package multiring

import (
	"math/rand"
	"testing"

	"wrht/internal/collective"
	"wrht/internal/core"
	"wrht/internal/electrical"
	"wrht/internal/optical"
)

func opts(m int) core.Options {
	return core.Options{M: m, Policy: core.A2AFormula, Striping: true}
}

// build plans the rack ring with core.BuildPlan and assembles the hierarchy.
func build(racks, perRack, w int, o core.Options) (*Plan, error) {
	intra, err := core.BuildPlan(perRack, w, o)
	if err != nil {
		return nil, err
	}
	return BuildPlan(racks, intra), nil
}

func TestGlobalScheduleIsCorrectAllReduce(t *testing.T) {
	cases := []struct{ racks, perRack, m, elems int }{
		{2, 4, 3, 16},
		{3, 9, 3, 25},
		{4, 16, 5, 64},
		{2, 100, 7, 10},
		{8, 8, 3, 33},
	}
	for _, c := range cases {
		p, err := build(c.racks, c.perRack, 16, opts(c.m))
		if err != nil {
			t.Fatal(err)
		}
		s, err := p.GlobalSchedule(c.elems)
		if err != nil {
			t.Fatal(err)
		}
		if err := collective.VerifyAllReduce(s); err != nil {
			t.Fatalf("racks=%d perRack=%d m=%d: %v", c.racks, c.perRack, c.m, err)
		}
	}
}

func TestGlobalScheduleRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 40; trial++ {
		racks := rng.Intn(6) + 2
		perRack := rng.Intn(30) + 2
		w := rng.Intn(16) + 1
		maxM := core.MaxGroupSize(w)
		if maxM > perRack {
			maxM = perRack
		}
		m := 2
		if maxM > 2 {
			m = rng.Intn(maxM-1) + 2
		}
		p, err := build(racks, perRack, w, opts(m))
		if err != nil {
			t.Fatal(err)
		}
		s, err := p.GlobalSchedule(rng.Intn(40) + 1)
		if err != nil {
			t.Fatal(err)
		}
		if err := collective.VerifyAllReduce(s); err != nil {
			t.Fatalf("racks=%d perRack=%d w=%d m=%d: %v", racks, perRack, w, m, err)
		}
	}
}

func TestTimeBreakdownPositiveAndComposes(t *testing.T) {
	p, err := build(8, 128, 64, opts(3))
	if err != nil {
		t.Fatal(err)
	}
	const elems = 1 << 20
	tb, err := p.Time(elems, 4, optical.DefaultParams(), electrical.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if tb.IntraReduceSec <= 0 || tb.InterSec <= 0 || tb.IntraBroadcastSec <= 0 {
		t.Fatalf("non-positive phase: %+v", tb)
	}
	if tb.TotalSec() != tb.IntraReduceSec+tb.InterSec+tb.IntraBroadcastSec {
		t.Fatal("TotalSec broken")
	}
}

func TestHierarchyCompetitiveAtScale(t *testing.T) {
	// 8 racks × 128 nodes = 1024 workers. The hierarchy's intra phases run
	// racks in parallel, so it must beat a flat electrical ring over all
	// 1024 nodes for large buffers, where the leader ring at K=8 is cheap.
	p, err := build(8, 128, 64, opts(3))
	if err != nil {
		t.Fatal(err)
	}
	const elems = 32 << 20 // 128 MB
	tb, err := p.Time(elems, 4, optical.DefaultParams(), electrical.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	flat, err := collective.RingAllReduce(1024, elems)
	if err != nil {
		t.Fatal(err)
	}
	// Closed-form E-Ring at 1024 on the electrical substrate.
	chunkBits := float64(elems/1024) * 4 * 8
	ep := electrical.DefaultParams()
	flatSec := float64(2*1023) * (ep.PerStepLatencySec + chunkBits/(ep.LinkGbps*1e9))
	_ = flat
	if tb.TotalSec() >= flatSec {
		t.Fatalf("hierarchy %.4g s not under flat E-Ring %.4g s", tb.TotalSec(), flatSec)
	}
}

func TestLeaderSelection(t *testing.T) {
	p, err := build(2, 16, 4, opts(3))
	if err != nil {
		t.Fatal(err)
	}
	if p.Intra.A2AReps != nil {
		if p.LeaderLocal != p.Intra.A2AReps[0] {
			t.Fatalf("leader %d, want first rep %d", p.LeaderLocal, p.Intra.A2AReps[0])
		}
	} else if p.LeaderLocal != p.Intra.Root {
		t.Fatalf("leader %d, want root %d", p.LeaderLocal, p.Intra.Root)
	}
	if p.Nodes() != 32 {
		t.Fatalf("Nodes() = %d", p.Nodes())
	}
}

func TestBuildPlanValidation(t *testing.T) {
	if _, err := build(4, 1, 4, opts(3)); err == nil {
		t.Fatal("1 node per rack accepted")
	}
	if _, err := build(4, 8, 0, opts(3)); err == nil {
		t.Fatal("0 wavelengths accepted")
	}
}
