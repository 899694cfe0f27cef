package trace

import (
	"math"
	"testing"

	"wrht/internal/core"
	"wrht/internal/dnn"
	"wrht/internal/electrical"
	"wrht/internal/model"
	"wrht/internal/optical"
)

func TestSimulateIterationFullyHidden(t *testing.T) {
	// Instant communication: iteration time = compute time, zero exposure.
	m := dnn.AlexNet()
	cm := DefaultCompute(m)
	res, err := SimulateIteration(m, cm, 25<<20, 4, func(int64) float64 { return 0 })
	if err != nil {
		t.Fatal(err)
	}
	if res.ExposedCommSec != 0 {
		t.Fatalf("exposed = %v", res.ExposedCommSec)
	}
	if math.Abs(res.IterationSec-res.ComputeSec) > 1e-12 {
		t.Fatalf("iteration %v != compute %v", res.IterationSec, res.ComputeSec)
	}
	if res.ScalingEfficiency != 1 {
		t.Fatalf("efficiency = %v", res.ScalingEfficiency)
	}
}

func TestSimulateIterationFullyExposed(t *testing.T) {
	// One giant bucket that only becomes ready at the very start of
	// backprop... the earliest layer gate means a single bucket waits for
	// the whole backward pass only if it includes layer 0.
	m := dnn.AlexNet()
	cm := DefaultCompute(m)
	const commTime = 0.5
	res, err := SimulateIteration(m, cm, 1<<40, 4, func(int64) float64 { return commTime })
	if err != nil {
		t.Fatal(err)
	}
	if res.Buckets != 1 {
		t.Fatalf("buckets = %d", res.Buckets)
	}
	// Single bucket covering all layers is ready when backprop reaches
	// layer 0, i.e. at BackwardSec. Everything is exposed.
	if math.Abs(res.ExposedCommSec-commTime) > 1e-9 {
		t.Fatalf("exposed = %v, want %v", res.ExposedCommSec, commTime)
	}
	want := cm.ForwardSec + cm.BackwardSec + commTime
	if math.Abs(res.IterationSec-want) > 1e-9 {
		t.Fatalf("iteration = %v, want %v", res.IterationSec, want)
	}
}

func TestBucketingImprovesOverlap(t *testing.T) {
	// With a fixed per-byte communication rate, small buckets must expose
	// no more communication than one monolithic bucket.
	m := dnn.VGG16()
	cm := DefaultCompute(m)
	perByte := 100e-12 // 100 ps/byte ≈ 80 Gb/s effective
	comm := func(b int64) float64 { return float64(b) * perByte }
	mono, err := SimulateIteration(m, cm, 1<<40, 4, comm)
	if err != nil {
		t.Fatal(err)
	}
	bucketed, err := SimulateIteration(m, cm, 25<<20, 4, comm)
	if err != nil {
		t.Fatal(err)
	}
	if bucketed.ExposedCommSec > mono.ExposedCommSec+1e-9 {
		t.Fatalf("bucketing exposed more: %v > %v", bucketed.ExposedCommSec, mono.ExposedCommSec)
	}
	if bucketed.Buckets <= mono.Buckets {
		t.Fatalf("expected more buckets, got %d vs %d", bucketed.Buckets, mono.Buckets)
	}
}

// wrhtPlan is the optimizer's Wrht plan for n nodes on p's wavelengths.
func wrhtPlan(t *testing.T, n int, p optical.Params) *core.Plan {
	t.Helper()
	opts := core.DefaultOptions()
	opts.Cost = model.CostParamsOf(p)
	plan, err := core.ChooseM(n, p.Wavelengths, opts)
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

func TestPaperMotivationCommShare(t *testing.T) {
	// The paper's intro: all-reduce occupies 50–90% of per-iteration time at
	// scale on electrical networks. Check E-Ring at n=1024 lands in that
	// band for the large models, and that Wrht cuts the share.
	ep := electrical.DefaultParams()
	op := optical.DefaultParams()
	plan := wrhtPlan(t, 1024, op)
	for _, m := range []dnn.Model{dnn.AlexNet(), dnn.VGG16()} {
		cm := DefaultCompute(m)
		eComm := func(b int64) float64 { return model.ERing(1024, b, ep) }
		res, err := SimulateIteration(m, cm, 25<<20, 4, eComm)
		if err != nil {
			t.Fatal(err)
		}
		if res.CommShare < 0.5 || res.CommShare > 0.95 {
			t.Errorf("%s: E-Ring comm share %.0f%%, expected the paper's 50–90%% band",
				m.Name, 100*res.CommShare)
		}
		wComm := func(b int64) float64 { return model.Wrht(plan, b, op) }
		wres, err := SimulateIteration(m, cm, 25<<20, 4, wComm)
		if err != nil {
			t.Fatal(err)
		}
		if wres.CommShare >= res.CommShare {
			t.Errorf("%s: Wrht share %.0f%% not below E-Ring share %.0f%%",
				m.Name, 100*wres.CommShare, 100*res.CommShare)
		}
		if wres.IterationSec >= res.IterationSec {
			t.Errorf("%s: Wrht iteration %.4g not faster than E-Ring %.4g",
				m.Name, wres.IterationSec, res.IterationSec)
		}
	}
}

func TestValidation(t *testing.T) {
	m := dnn.AlexNet()
	if _, err := SimulateIteration(m, ComputeModel{}, 1<<20, 4, func(int64) float64 { return 0 }); err == nil {
		t.Fatal("zero compute model accepted")
	}
	cm := DefaultCompute(m)
	if _, err := SimulateIteration(m, cm, 1<<20, 4, nil); err == nil {
		t.Fatal("nil timer accepted")
	}
	if _, err := SimulateIteration(m, cm, 0, 4, func(int64) float64 { return 0 }); err == nil {
		t.Fatal("zero bucket cap accepted")
	}
	if _, err := SimulateIteration(m, cm, 1<<20, 4, func(int64) float64 { return -1 }); err == nil {
		t.Fatal("negative comm time accepted")
	}
}

func TestDefaultComputeCoversCatalogAndFallback(t *testing.T) {
	for _, m := range dnn.PaperModels() {
		cm := DefaultCompute(m)
		if err := cm.Validate(); err != nil {
			t.Fatalf("%s: %v", m.Name, err)
		}
	}
	custom := dnn.Model{Name: "custom", Layers: []dnn.Layer{{Name: "fc", Params: 51_000_000}}}
	cm := DefaultCompute(custom)
	if err := cm.Validate(); err != nil {
		t.Fatal(err)
	}
	if cm.BackwardSec <= 0 {
		t.Fatal("fallback compute model empty")
	}
}

func TestFLOPsDerivedIterationSensible(t *testing.T) {
	// FLOPs-derived compute and the synthetic defaults must agree on the
	// qualitative outcome: Wrht hides most communication, E-Ring does not.
	op := optical.DefaultParams()
	plan := wrhtPlan(t, 1024, op)
	ep := electrical.DefaultParams()
	m := dnn.ResNet50()
	// Batch 32 at 40% of a 15.7 TFLOPS peak; backward costs twice forward.
	fwd := 32 * float64(m.TotalFLOPs()) / (15.7e12 * 0.4)
	cm := ComputeModel{ForwardSec: fwd, BackwardSec: 2 * fwd}
	eComm := func(b int64) float64 { return model.ERing(1024, b, ep) }
	wComm := func(b int64) float64 { return model.Wrht(plan, b, op) }
	e, err := SimulateIteration(m, cm, 25<<20, 4, eComm)
	if err != nil {
		t.Fatal(err)
	}
	w, err := SimulateIteration(m, cm, 25<<20, 4, wComm)
	if err != nil {
		t.Fatal(err)
	}
	if w.ExposedCommSec >= e.ExposedCommSec {
		t.Fatalf("Wrht exposed %v >= E-Ring exposed %v", w.ExposedCommSec, e.ExposedCommSec)
	}
	if w.ScalingEfficiency < 0.9 {
		t.Fatalf("Wrht ResNet50 efficiency %v, expected near-perfect overlap", w.ScalingEfficiency)
	}
}
