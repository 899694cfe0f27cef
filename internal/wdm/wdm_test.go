package wdm

import (
	"math/rand"
	"testing"

	"wrht/internal/ring"
)

func randomDemands(rng *rand.Rand, t ring.Topology, count, maxWidth int) []Demand {
	out := make([]Demand, count)
	for i := range out {
		src := rng.Intn(t.N())
		dst := rng.Intn(t.N())
		for dst == src {
			dst = rng.Intn(t.N())
		}
		dir := ring.CW
		if rng.Intn(2) == 1 {
			dir = ring.CCW
		}
		out[i] = Demand{Arc: ring.Arc{Src: src, Dst: dst, Dir: dir}, Width: rng.Intn(maxWidth) + 1}
	}
	return out
}

func TestAssignValidRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 300; trial++ {
		top := ring.MustNew(rng.Intn(20) + 2)
		demands := randomDemands(rng, top, rng.Intn(30)+1, 4)
		for _, pol := range []Policy{FirstFit, BestFit} {
			for _, ord := range []Order{AsGiven, LongestFirst} {
				asg, err := Assign(top, demands, pol, ord)
				if err != nil {
					t.Fatalf("Assign(%v,%v): %v", pol, ord, err)
				}
				if err := Validate(top, demands, asg); err != nil {
					t.Fatalf("Validate(%v,%v): %v", pol, ord, err)
				}
			}
		}
	}
}

func TestAssignRespectsLowerBound(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 200; trial++ {
		top := ring.MustNew(rng.Intn(16) + 2)
		demands := randomDemands(rng, top, rng.Intn(20)+1, 3)
		lb, err := MaxLinkLoad(top, demands)
		if err != nil {
			t.Fatal(err)
		}
		asg, err := Assign(top, demands, FirstFit, LongestFirst)
		if err != nil {
			t.Fatal(err)
		}
		if asg.NumColors < lb {
			t.Fatalf("NumColors %d below link-load lower bound %d", asg.NumColors, lb)
		}
	}
}

func TestDisjointArcsReuseWavelengths(t *testing.T) {
	// Wrht's core property: link-disjoint groups reuse the same wavelengths.
	top := ring.MustNew(12)
	// Four disjoint 1-hop arcs spread around the ring.
	demands := []Demand{
		{Arc: ring.Arc{Src: 0, Dst: 1, Dir: ring.CW}, Width: 1},
		{Arc: ring.Arc{Src: 3, Dst: 4, Dir: ring.CW}, Width: 1},
		{Arc: ring.Arc{Src: 6, Dst: 7, Dir: ring.CW}, Width: 1},
		{Arc: ring.Arc{Src: 9, Dst: 10, Dir: ring.CW}, Width: 1},
	}
	asg, err := Assign(top, demands, FirstFit, AsGiven)
	if err != nil {
		t.Fatal(err)
	}
	if asg.NumColors != 1 {
		t.Fatalf("disjoint arcs should share one wavelength, got %d", asg.NumColors)
	}
}

func TestGroupCollectionNeedsHalfM(t *testing.T) {
	// A Wrht group of m members around a middle representative needs exactly
	// ⌊m/2⌋ wavelengths: members on each side send toward the middle and the
	// two sides travel on opposite waveguides.
	for m := 2; m <= 9; m++ {
		top := ring.MustNew(3 * m)
		// group occupying positions [m, 2m)
		members := make([]int, m)
		for i := range members {
			members[i] = m + i
		}
		rep := ring.Middle(members)
		var demands []Demand
		for _, mem := range members {
			if mem == rep {
				continue
			}
			dir := ring.CW
			if mem > rep {
				dir = ring.CCW
			}
			demands = append(demands, Demand{Arc: ring.Arc{Src: mem, Dst: rep, Dir: dir}, Width: 1})
		}
		asg, err := Assign(top, demands, FirstFit, AsGiven)
		if err != nil {
			t.Fatal(err)
		}
		want := m / 2
		if asg.NumColors != want {
			t.Fatalf("m=%d: group collection used %d wavelengths, want ⌊m/2⌋=%d",
				m, asg.NumColors, want)
		}
	}
}

func TestAllToAllNearLiangShenBound(t *testing.T) {
	// Balanced routing keeps the per-link load at (or under) the paper's
	// ⌈r²/8⌉ requirement for r equally spaced nodes; First-Fit coloring of
	// circular arcs may exceed the load bound by a small constant factor
	// (exact Liang–Shen schedules need a bespoke construction).
	for r := 2; r <= 16; r++ {
		top := ring.MustNew(r * 4)
		nodes := make([]int, r)
		for i := range nodes {
			nodes[i] = i * 4
		}
		demands := AllToAllDemandsBalanced(top, nodes, 1)
		load, err := MaxLinkLoad(top, demands)
		if err != nil {
			t.Fatal(err)
		}
		if load > LiangShenBound(r) {
			t.Errorf("r=%d: balanced routing load %d exceeds Liang–Shen bound %d",
				r, load, LiangShenBound(r))
		}
		asg, err := Assign(top, demands, FirstFit, LongestFirst)
		if err != nil {
			t.Fatal(err)
		}
		if err := Validate(top, demands, asg); err != nil {
			t.Fatal(err)
		}
		if asg.NumColors < load {
			t.Fatalf("r=%d: coloring beat the load lower bound (%d < %d)", r, asg.NumColors, load)
		}
		slack := LiangShenBound(r) + LiangShenBound(r)/3 + 1
		if asg.NumColors > slack {
			t.Errorf("r=%d: all-to-all used %d wavelengths, want <= %d (bound %d + 1/3 slack)",
				r, asg.NumColors, slack, LiangShenBound(r))
		}
	}
}

func TestLiangShenBoundValues(t *testing.T) {
	cases := map[int]int{1: 1, 2: 1, 3: 2, 4: 2, 8: 8, 13: 22, 16: 32}
	for r, want := range cases {
		if got := LiangShenBound(r); got != want {
			t.Errorf("LiangShenBound(%d) = %d, want %d", r, got, want)
		}
	}
}

func TestHeuristicsNearOptimal(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 100; trial++ {
		top := ring.MustNew(rng.Intn(8) + 4)
		demands := randomDemands(rng, top, rng.Intn(8)+2, 1)
		opt, err := OptimalColors(top, demands)
		if err != nil {
			t.Fatal(err)
		}
		asg, err := Assign(top, demands, FirstFit, LongestFirst)
		if err != nil {
			t.Fatal(err)
		}
		if asg.NumColors < opt {
			t.Fatalf("heuristic beat the optimum: %d < %d (invalid!)", asg.NumColors, opt)
		}
		// Ring RWA heuristics are within 2x of optimal in practice; flag
		// anything worse as a regression.
		if asg.NumColors > 2*opt {
			t.Errorf("first-fit used %d colors, optimum %d", asg.NumColors, opt)
		}
	}
}

func TestStripedAssignment(t *testing.T) {
	top := ring.MustNew(8)
	demands := []Demand{
		{Arc: ring.Arc{Src: 0, Dst: 2, Dir: ring.CW}, Width: 3},
		{Arc: ring.Arc{Src: 1, Dst: 3, Dir: ring.CW}, Width: 2}, // conflicts with first
		{Arc: ring.Arc{Src: 4, Dst: 6, Dir: ring.CW}, Width: 3}, // disjoint from both
	}
	asg, err := Assign(top, demands, FirstFit, AsGiven)
	if err != nil {
		t.Fatal(err)
	}
	if err := Validate(top, demands, asg); err != nil {
		t.Fatal(err)
	}
	if asg.NumColors != 5 {
		t.Fatalf("expected 5 colors (3 + 2 conflicting, third reuses), got %d", asg.NumColors)
	}
}

func TestRoundsRespectBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 200; trial++ {
		top := ring.MustNew(rng.Intn(16) + 2)
		demands := randomDemands(rng, top, rng.Intn(25)+1, 3)
		w := rng.Intn(6) + 3
		rounds, err := NewWorkspace(top).RoundsReused(demands, w, FirstFit, AsGiven)
		if err != nil {
			t.Fatal(err)
		}
		covered := make(map[int]bool)
		for _, r := range rounds {
			if r.Assignment.NumColors > w {
				t.Fatalf("round exceeds budget: %d > %d", r.Assignment.NumColors, w)
			}
			sub := make([]Demand, len(r.Demands))
			for i, di := range r.Demands {
				sub[i] = demands[di]
				if covered[di] {
					t.Fatalf("demand %d scheduled twice", di)
				}
				covered[di] = true
			}
			if err := Validate(top, sub, r.Assignment); err != nil {
				t.Fatal(err)
			}
		}
		if len(covered) != len(demands) {
			t.Fatalf("rounds covered %d of %d demands", len(covered), len(demands))
		}
	}
}

func TestRoundsSingleWhenFits(t *testing.T) {
	top := ring.MustNew(12)
	demands := []Demand{
		{Arc: ring.Arc{Src: 0, Dst: 1, Dir: ring.CW}, Width: 2},
		{Arc: ring.Arc{Src: 6, Dst: 7, Dir: ring.CW}, Width: 2},
	}
	rounds, err := NewWorkspace(top).RoundsReused(demands, 2, FirstFit, AsGiven)
	if err != nil {
		t.Fatal(err)
	}
	if len(rounds) != 1 {
		t.Fatalf("disjoint demands should fit one round, got %d", len(rounds))
	}
}

func TestRoundsWidthTooLarge(t *testing.T) {
	top := ring.MustNew(4)
	demands := []Demand{{Arc: ring.Arc{Src: 0, Dst: 1, Dir: ring.CW}, Width: 5}}
	if _, err := NewWorkspace(top).RoundsReused(demands, 4, FirstFit, AsGiven); err == nil {
		t.Fatal("width > budget must error")
	}
}

func TestAssignRejectsBadDemands(t *testing.T) {
	top := ring.MustNew(4)
	if _, err := Assign(top, []Demand{{Arc: ring.Arc{Src: 1, Dst: 1, Dir: ring.CW}, Width: 1}}, FirstFit, AsGiven); err == nil {
		t.Fatal("zero-length arc must error")
	}
	if _, err := Assign(top, []Demand{{Arc: ring.Arc{Src: 0, Dst: 1, Dir: ring.CW}, Width: 0}}, FirstFit, AsGiven); err == nil {
		t.Fatal("zero width must error")
	}
}

func TestValidateCatchesConflicts(t *testing.T) {
	top := ring.MustNew(6)
	demands := []Demand{
		{Arc: ring.Arc{Src: 0, Dst: 2, Dir: ring.CW}, Width: 1},
		{Arc: ring.Arc{Src: 1, Dst: 3, Dir: ring.CW}, Width: 1},
	}
	bad := Assignment{Stripes: [][]int{{0}, {0}}, NumColors: 1}
	if err := Validate(top, demands, bad); err == nil {
		t.Fatal("Validate accepted a conflicting assignment")
	}
	short := Assignment{Stripes: [][]int{{0}}, NumColors: 1}
	if err := Validate(top, demands, short); err == nil {
		t.Fatal("Validate accepted wrong stripe count")
	}
}

func TestBestFitPacks(t *testing.T) {
	top := ring.MustNew(16)
	// Place one long arc, then a disjoint short arc: BestFit should reuse
	// color 0 (most used) rather than open a new one.
	demands := []Demand{
		{Arc: ring.Arc{Src: 0, Dst: 4, Dir: ring.CW}, Width: 1},
		{Arc: ring.Arc{Src: 8, Dst: 9, Dir: ring.CW}, Width: 1},
	}
	asg, err := Assign(top, demands, BestFit, AsGiven)
	if err != nil {
		t.Fatal(err)
	}
	if asg.NumColors != 1 {
		t.Fatalf("BestFit should pack into 1 color, used %d", asg.NumColors)
	}
}

func TestMaxLinkLoadSimple(t *testing.T) {
	top := ring.MustNew(6)
	demands := []Demand{
		{Arc: ring.Arc{Src: 0, Dst: 3, Dir: ring.CW}, Width: 2},
		{Arc: ring.Arc{Src: 2, Dst: 4, Dir: ring.CW}, Width: 1},
		{Arc: ring.Arc{Src: 3, Dst: 1, Dir: ring.CCW}, Width: 4},
	}
	got, err := MaxLinkLoad(top, demands)
	if err != nil {
		t.Fatal(err)
	}
	if got != 4 {
		t.Fatalf("MaxLinkLoad = %d, want 4", got)
	}
}
