package runner

import (
	"math"
	"testing"

	"wrht/internal/collective"
	"wrht/internal/core"
	"wrht/internal/electrical"
	"wrht/internal/tensor"
)

func almost(a, b, rel float64) bool {
	if a == b {
		return true
	}
	return math.Abs(a-b) <= rel*math.Max(math.Abs(a), math.Abs(b))
}

func TestRunOpticalORingHandComputed(t *testing.T) {
	// O-Ring at n=8, 80 MB: 14 steps, each a 1-hop neighbor chunk on one
	// wavelength.
	const n, elems = 8, 20 << 20 // 20 Mi elements * 4 B = 80 MB
	s, err := collective.RingAllReduce(n, elems)
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOpticalOptions()
	opts.ValidateFabric = true
	res, err := RunOptical(s, opts)
	if err != nil {
		t.Fatal(err)
	}
	p := opts.Params
	chunkBytes := int64(elems/n) * 4
	want := float64(2*(n-1)) * (p.StepOverheadSec() + p.TransferSec(chunkBytes, 1, 1))
	if !almost(res.TotalSec, want, 1e-9) {
		t.Fatalf("O-Ring total %v, want %v", res.TotalSec, want)
	}
	if res.MaxWavelengths != 1 {
		t.Fatalf("O-Ring used %d wavelengths, want 1", res.MaxWavelengths)
	}
	if res.ExtraRounds != 0 {
		t.Fatalf("O-Ring split rounds: %d", res.ExtraRounds)
	}
}

func TestRunOpticalWrhtMatchesPrediction(t *testing.T) {
	// The planner's analytic model and the substrate must agree within 1%.
	for _, cse := range []struct{ n, w, m int }{
		{128, 64, 3},
		{128, 64, 129},
		{256, 64, 5},
		{1024, 64, 3},
		{100, 16, 7},
	} {
		m := cse.m
		if m > cse.n {
			m = cse.n
		}
		plan, err := core.BuildPlan(cse.n, cse.w, core.Options{M: m, Policy: core.A2AFormula, Striping: true})
		if err != nil {
			t.Fatal(err)
		}
		const elems = 4 << 20 // 16 MB
		s, err := plan.Schedule(elems)
		if err != nil {
			t.Fatal(err)
		}
		opts := DefaultOpticalOptions()
		opts.Params.Wavelengths = cse.w
		opts.ValidateFabric = true
		res, err := RunOptical(s, opts)
		if err != nil {
			t.Fatalf("n=%d m=%d: %v", cse.n, m, err)
		}
		cost := core.CostParams{
			GbpsPerWavelength: opts.Params.GbpsPerWavelength,
			PerStepSec:        opts.Params.StepOverheadSec() + opts.Params.PerTransferOverheadSec(),
			PropSecPerHop:     opts.Params.PropagationNsPerHop * 1e-9,
		}
		predicted := plan.PredictTime(cost, int64(elems)*4)
		if !almost(res.TotalSec, predicted, 0.01) {
			t.Errorf("n=%d w=%d m=%d: simulated %.6f s vs predicted %.6f s (%.2f%% off)",
				cse.n, cse.w, m, res.TotalSec, predicted,
				100*math.Abs(res.TotalSec-predicted)/predicted)
		}
		if res.MaxWavelengths > cse.w {
			t.Errorf("n=%d m=%d: used %d wavelengths, budget %d", cse.n, m, res.MaxWavelengths, cse.w)
		}
	}
}

func TestRunOpticalWrhtNoExtraRoundsOnTreeSteps(t *testing.T) {
	// Wrht's tree steps must fit the budget in one round (the paper's
	// wavelength analysis); only the all-to-all step may ever split under
	// First-Fit slack, and with the formula policy at these shapes it fits.
	plan, err := core.BuildPlan(512, 64, core.Options{M: 9, Policy: core.A2AFormula, Striping: true})
	if err != nil {
		t.Fatal(err)
	}
	s, err := plan.Schedule(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOpticalOptions()
	opts.ValidateFabric = true
	res, err := RunOptical(s, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.ExtraRounds != 0 {
		t.Fatalf("Wrht split %d extra rounds", res.ExtraRounds)
	}
}

func TestRunElectricalERingHandComputed(t *testing.T) {
	const n, elems = 16, 1 << 20
	s, err := collective.RingAllReduce(n, elems)
	if err != nil {
		t.Fatal(err)
	}
	p := electrical.DefaultParams()
	res, err := RunElectrical(s, ElectricalOptions{Params: p})
	if err != nil {
		t.Fatal(err)
	}
	chunkBits := float64(elems/n) * 4 * 8
	want := float64(2*(n-1)) * (p.PerStepLatencySec + chunkBits/(p.LinkGbps*1e9))
	if !almost(res.TotalSec, want, 1e-6) {
		t.Fatalf("E-Ring total %v, want %v", res.TotalSec, want)
	}
}

func TestRunElectricalRDHandComputed(t *testing.T) {
	const n, elems = 16, 1 << 20
	s, err := collective.RecursiveDoubling(n, elems)
	if err != nil {
		t.Fatal(err)
	}
	p := electrical.DefaultParams()
	res, err := RunElectrical(s, ElectricalOptions{Params: p})
	if err != nil {
		t.Fatal(err)
	}
	fullBits := float64(elems) * 4 * 8
	want := 4 * (p.PerStepLatencySec + fullBits/(p.LinkGbps*1e9))
	if !almost(res.TotalSec, want, 1e-6) {
		t.Fatalf("RD total %v, want %v", res.TotalSec, want)
	}
}

func TestRunOpticalUnroutedUsesShortestPath(t *testing.T) {
	// An unrouted transfer from 0 to n-1 should take 1 hop (CCW), not n-1.
	s := &collective.Schedule{Algorithm: "probe", N: 8, Elems: 1024, Steps: []collective.Step{{
		Transfers: []collective.Transfer{{
			Src: 0, Dst: 7,
			Region: tensor.Region{Offset: 0, Len: 1024},
			Op:     collective.OpReduce,
		}},
	}}}
	opts := DefaultOpticalOptions()
	res, err := RunOptical(s, opts)
	if err != nil {
		t.Fatal(err)
	}
	p := opts.Params
	want := p.StepOverheadSec() + p.TransferSec(4096, 1, 1)
	if !almost(res.TotalSec, want, 1e-9) {
		t.Fatalf("unrouted transfer total %v, want %v (1 hop)", res.TotalSec, want)
	}
}

func TestRunOpticalDefaultWidthStripes(t *testing.T) {
	// DefaultWidth = w turns O-Ring into its striped variant: 64x less
	// serialization per step.
	const n, elems = 8, 20 << 20
	s, _ := collective.RingAllReduce(n, elems)
	base := DefaultOpticalOptions()
	striped := DefaultOpticalOptions()
	striped.DefaultWidth = striped.Params.Wavelengths
	r1, err := RunOptical(s, base)
	if err != nil {
		t.Fatal(err)
	}
	r64, err := RunOptical(s, striped)
	if err != nil {
		t.Fatal(err)
	}
	if r64.TotalSec >= r1.TotalSec {
		t.Fatalf("striping did not help: %v vs %v", r64.TotalSec, r1.TotalSec)
	}
	if r64.MaxWavelengths != 64 {
		t.Fatalf("striped ring lit %d wavelengths", r64.MaxWavelengths)
	}
}

func TestRunRejectsInvalidSchedule(t *testing.T) {
	bad := &collective.Schedule{Algorithm: "bad", N: 0, Elems: 4}
	if _, err := RunOptical(bad, DefaultOpticalOptions()); err == nil {
		t.Fatal("invalid schedule accepted by optical runner")
	}
	if _, err := RunElectrical(bad, ElectricalOptions{Params: electrical.DefaultParams()}); err == nil {
		t.Fatal("invalid schedule accepted by electrical runner")
	}
}

func TestFabricValidationCatchesNothingOnValidSchedules(t *testing.T) {
	// Smoke test over several algorithms with fabric replay enabled.
	builders := []func(n, elems int) (*collective.Schedule, error){
		collective.RingAllReduce,
		collective.RecursiveDoubling,
		collective.HalvingDoubling,
		collective.BinomialTree,
	}
	for _, b := range builders {
		s, err := b(16, 4096)
		if err != nil {
			t.Fatal(err)
		}
		opts := DefaultOpticalOptions()
		opts.ValidateFabric = true
		if _, err := RunOptical(s, opts); err != nil {
			t.Fatalf("%s: %v", s.Algorithm, err)
		}
	}
}
