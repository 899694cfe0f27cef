package model

import (
	"math"
	"testing"

	"wrht/internal/collective"
	"wrht/internal/core"
	"wrht/internal/dnn"
	"wrht/internal/electrical"
	"wrht/internal/optical"
	"wrht/internal/runner"
)

func almost(a, b, rel float64) bool {
	if a == b {
		return true
	}
	return math.Abs(a-b) <= rel*math.Max(math.Abs(a), math.Abs(b))
}

// bytesToElems converts an FP32 byte count to whole elements, as the
// simulators work in elements.
func bytesToElems(bytes int64) int { return int(bytes / 4) }

func TestERingMatchesSimulator(t *testing.T) {
	p := electrical.DefaultParams()
	for _, n := range []int{8, 64, 128} {
		bytes := int64(n) * 4 * 4096 // divisible by n so chunking is exact
		s, err := collective.RingAllReduce(n, bytesToElems(bytes))
		if err != nil {
			t.Fatal(err)
		}
		res, err := runner.RunElectrical(s, runner.ElectricalOptions{Params: p})
		if err != nil {
			t.Fatal(err)
		}
		pred := ERing(n, bytes, p)
		if !almost(res.TotalSec, pred, 0.01) {
			t.Errorf("n=%d: ERing sim %.6g vs model %.6g", n, res.TotalSec, pred)
		}
	}
}

func TestRDMatchesSimulator(t *testing.T) {
	p := electrical.DefaultParams()
	for _, n := range []int{8, 64, 100, 128} {
		bytes := int64(1 << 22)
		s, err := collective.RecursiveDoubling(n, bytesToElems(bytes))
		if err != nil {
			t.Fatal(err)
		}
		res, err := runner.RunElectrical(s, runner.ElectricalOptions{Params: p})
		if err != nil {
			t.Fatal(err)
		}
		pred := RD(n, bytes, p)
		if !almost(res.TotalSec, pred, 0.01) {
			t.Errorf("n=%d: RD sim %.6g vs model %.6g", n, res.TotalSec, pred)
		}
	}
}

func TestHDMatchesSimulator(t *testing.T) {
	p := electrical.DefaultParams()
	for _, n := range []int{8, 16, 64} {
		bytes := int64(1 << 22)
		s, err := collective.HalvingDoubling(n, bytesToElems(bytes))
		if err != nil {
			t.Fatal(err)
		}
		res, err := runner.RunElectrical(s, runner.ElectricalOptions{Params: p})
		if err != nil {
			t.Fatal(err)
		}
		pred := HD(n, bytes, p)
		if !almost(res.TotalSec, pred, 0.01) {
			t.Errorf("n=%d: HD sim %.6g vs model %.6g", n, res.TotalSec, pred)
		}
	}
}

func TestORingMatchesSimulator(t *testing.T) {
	p := optical.DefaultParams()
	for _, n := range []int{8, 64, 128} {
		bytes := int64(n) * 4 * 4096
		s, err := collective.RingAllReduce(n, bytesToElems(bytes))
		if err != nil {
			t.Fatal(err)
		}
		opts := runner.DefaultOpticalOptions()
		res, err := runner.RunOptical(s, opts)
		if err != nil {
			t.Fatal(err)
		}
		pred := ORing(n, bytes, p)
		if !almost(res.TotalSec, pred, 0.01) {
			t.Errorf("n=%d: ORing sim %.6g vs model %.6g", n, res.TotalSec, pred)
		}
		// Striped variant.
		opts.DefaultWidth = p.Wavelengths
		resS, err := runner.RunOptical(s, opts)
		if err != nil {
			t.Fatal(err)
		}
		predS := ORingStriped(n, bytes, p)
		if !almost(resS.TotalSec, predS, 0.01) {
			t.Errorf("n=%d: ORingStriped sim %.6g vs model %.6g", n, resS.TotalSec, predS)
		}
	}
}

// wrhtAuto plans Wrht with the optimizer's group size and predicts its time.
func wrhtAuto(n int, bytes int64, p optical.Params) (*core.Plan, float64, error) {
	opts := core.DefaultOptions()
	opts.Cost = CostParamsOf(p)
	plan, err := core.ChooseM(n, p.Wavelengths, opts)
	if err != nil {
		return nil, 0, err
	}
	return plan, Wrht(plan, bytes, p), nil
}

// reduction is the paper's headline metric: the fractional time reduction
// of ours versus baseline (0.7576 for "75.76%").
func reduction(baseline, ours float64) float64 { return 1 - ours/baseline }

func TestWrhtAutoMatchesSimulator(t *testing.T) {
	p := optical.DefaultParams()
	for _, n := range []int{128, 256} {
		bytes := int64(1 << 24)
		plan, pred, err := wrhtAuto(n, bytes, p)
		if err != nil {
			t.Fatal(err)
		}
		s, err := plan.Schedule(bytesToElems(bytes))
		if err != nil {
			t.Fatal(err)
		}
		opts := runner.DefaultOpticalOptions()
		opts.ValidateFabric = true
		res, err := runner.RunOptical(s, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !almost(res.TotalSec, pred, 0.01) {
			t.Errorf("n=%d: Wrht sim %.6g vs model %.6g (plan %v)", n, res.TotalSec, pred, plan)
		}
	}
}

func TestPaperOrderingHolds(t *testing.T) {
	// The qualitative shape of Figure 2 with default parameters, at every
	// Figure-2 scale and for every paper model: WRHT < E-Ring < O-Ring and
	// WRHT < RD.
	op := optical.DefaultParams()
	ep := electrical.DefaultParams()
	for _, m := range dnn.PaperModels() {
		bytes := m.GradientBytes(4)
		for _, n := range []int{128, 256, 512, 1024} {
			_, wrht, err := wrhtAuto(n, bytes, op)
			if err != nil {
				t.Fatal(err)
			}
			eRing := ERing(n, bytes, ep)
			rd := RD(n, bytes, ep)
			oRing := ORing(n, bytes, op)
			if !(wrht < eRing && eRing < oRing && wrht < rd) {
				t.Errorf("%s n=%d: ordering broken: wrht=%.4g eRing=%.4g rd=%.4g oRing=%.4g",
					m.Name, n, wrht, eRing, rd, oRing)
			}
			// Headline-scale factors: vs O-Ring the reduction should be deep
			// (paper: 91.86%); vs E-Ring substantial (paper: 75.76%).
			if r := reduction(oRing, wrht); r < 0.75 {
				t.Errorf("%s n=%d: reduction vs O-Ring only %.1f%%", m.Name, n, 100*r)
			}
			if r := reduction(eRing, wrht); r < 0.40 {
				t.Errorf("%s n=%d: reduction vs E-Ring only %.1f%%", m.Name, n, 100*r)
			}
		}
	}
}

func TestRDWorstForLargeModels(t *testing.T) {
	// RD moves log2(n) full buffers: for the big models it must exceed
	// E-Ring at scale (the tallest Figure-2 bars).
	ep := electrical.DefaultParams()
	bytes := dnn.VGG16().GradientBytes(4)
	if RD(1024, bytes, ep) <= ERing(1024, bytes, ep) {
		t.Fatal("RD should be slower than E-Ring for VGG16 at n=1024")
	}
}

func TestCrossoverStripedRingVsWrht(t *testing.T) {
	// With striping allowed for both, ring all-reduce is bandwidth-optimal
	// and must win for huge buffers, while Wrht's O(log) steps win for small
	// ones → a crossover exists. This is ablation A1's headline number.
	op := optical.DefaultParams()
	const n = 1024
	plan, err := core.BuildPlan(n, op.Wavelengths, core.Options{M: 3, Policy: core.A2AFormula, Striping: true})
	if err != nil {
		t.Fatal(err)
	}
	wrht := func(b int64) float64 { return Wrht(plan, b, op) }
	ringS := func(b int64) float64 { return ORingStriped(n, b, op) }
	// Bisect [1 KiB, 16 GiB] for the first size at which Wrht stops winning.
	lo, cross := int64(1<<10), int64(1<<34)
	if !(wrht(lo) < ringS(lo)) || wrht(cross) < ringS(cross) {
		t.Fatalf("no crossover in [%d, %d] B", lo, cross)
	}
	for cross-lo > 1 {
		if mid := lo + (cross-lo)/2; wrht(mid) < ringS(mid) {
			lo = mid
		} else {
			cross = mid
		}
	}
	// Small buffers: Wrht wins; large: striped ring wins.
	if !(wrht(cross/4) < ringS(cross/4)) {
		t.Errorf("below crossover (%d B) Wrht should win", cross/4)
	}
	if !(wrht(cross*4) > ringS(cross*4)) {
		t.Errorf("above crossover (%d B) striped ring should win", cross*4)
	}
}

func TestHeadlineReductionsNearPaper(t *testing.T) {
	// Averaged over the paper's 4 models × 4 scales, the measured reductions
	// should land near the paper's 75.76% (vs electrical) and 91.86%
	// (vs O-Ring). We accept ±12 percentage points — the paper's exact
	// parameter table is unpublished; see EXPERIMENTS.md.
	op := optical.DefaultParams()
	ep := electrical.DefaultParams()
	var vsElec, vsORing []float64
	for _, m := range dnn.PaperModels() {
		bytes := m.GradientBytes(4)
		for _, n := range []int{128, 256, 512, 1024} {
			_, wrht, err := wrhtAuto(n, bytes, op)
			if err != nil {
				t.Fatal(err)
			}
			elec := (ERing(n, bytes, ep) + RD(n, bytes, ep)) / 2
			vsElec = append(vsElec, reduction(elec, wrht))
			vsORing = append(vsORing, reduction(ORing(n, bytes, op), wrht))
		}
	}
	avg := func(xs []float64) float64 {
		s := 0.0
		for _, x := range xs {
			s += x
		}
		return s / float64(len(xs))
	}
	ae, ao := avg(vsElec), avg(vsORing)
	if math.Abs(ae-0.7576) > 0.12 {
		t.Errorf("avg reduction vs electrical = %.2f%%, paper 75.76%%", 100*ae)
	}
	if math.Abs(ao-0.9186) > 0.12 {
		t.Errorf("avg reduction vs O-Ring = %.2f%%, paper 91.86%%", 100*ao)
	}
	t.Logf("measured headline reductions: vs electrical %.2f%%, vs O-Ring %.2f%%", 100*ae, 100*ao)
}

func TestBinomialMatchesSimulator(t *testing.T) {
	p := electrical.DefaultParams()
	for _, n := range []int{8, 24, 64, 100} {
		bytes := int64(1 << 22)
		s, err := collective.BinomialTree(n, bytesToElems(bytes))
		if err != nil {
			t.Fatal(err)
		}
		res, err := runner.RunElectrical(s, runner.ElectricalOptions{Params: p})
		if err != nil {
			t.Fatal(err)
		}
		pred := Binomial(n, bytes, p)
		if !almost(res.TotalSec, pred, 0.01) {
			t.Errorf("n=%d: Binomial sim %.6g vs model %.6g", n, res.TotalSec, pred)
		}
	}
}

// pipelinedSim prices a pipelined plan's schedule through the wavelength
// simulator for comparison with the analytic predictor.
func pipelinedSim(t *testing.T, plan *core.Plan, p optical.Params, bytes int64, chunks int) float64 {
	t.Helper()
	s, err := plan.PipelinedSchedule(bytesToElems(bytes), chunks)
	if err != nil {
		t.Fatal(err)
	}
	opts := runner.DefaultOpticalOptions()
	opts.Params = p
	res, err := runner.RunOptical(s, opts)
	if err != nil {
		t.Fatal(err)
	}
	return res.TotalSec
}

func TestWrhtPipelinedPredictor(t *testing.T) {
	// Exact when every pipeline step's aggregate demand fits the wavelength
	// budget (the evaluation regimes); a documented approximation when steps
	// split into rounds. chunks <= 1 degrades to the unpipelined predictor.
	p := optical.DefaultParams()
	p.Wavelengths = 8
	opts := core.DefaultOptions()
	opts.Cost = CostParamsOf(p)
	opts.Striping = false
	opts.M = 3
	plan, err := core.BuildPlan(64, 8, opts)
	if err != nil {
		t.Fatal(err)
	}
	bytes := int64(32 << 20)

	if got, want := WrhtPipelined(plan, bytes, p, 1), Wrht(plan, bytes, p); got != want {
		t.Fatalf("chunks=1: %.9g, want unpipelined %.9g", got, want)
	}
	if sim, pred := pipelinedSim(t, plan, p, bytes, 64), WrhtPipelined(plan, bytes, p, 64); !almost(sim, pred, 1e-9) {
		t.Errorf("fit-budget regime: sim %.9g vs model %.9g", sim, pred)
	}
	if a, b := WrhtPipelined(plan, bytes, p, 64), WrhtPipelined(plan, 2*bytes, p, 64); b <= a {
		t.Errorf("not monotone in bytes: %.6g then %.6g", a, b)
	}

	// Round-splitting regime: a narrow budget forces concurrent stages to
	// serialize; the uniform-split model is only loosely accurate there.
	pn := optical.DefaultParams()
	pn.Wavelengths = 4
	optsN := core.DefaultOptions()
	optsN.Cost = CostParamsOf(pn)
	optsN.Striping = false
	optsN.M = 3
	narrow, err := core.BuildPlan(27, 4, optsN)
	if err != nil {
		t.Fatal(err)
	}
	sim := pipelinedSim(t, narrow, pn, 4<<20, 16)
	pred := WrhtPipelined(narrow, 4<<20, pn, 16)
	if pred <= 0 || !almost(sim, pred, 0.7) {
		t.Errorf("round-split regime: sim %.6g vs model %.6g outside the documented band", sim, pred)
	}
}
