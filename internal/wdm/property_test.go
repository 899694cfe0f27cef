package wdm

import (
	"math/rand"
	"testing"

	"wrht/internal/ring"
)

func TestRoundsConsistentWithAssign(t *testing.T) {
	// If an unconstrained assignment fits within w colors, the budgeted
	// splitter must produce exactly one round (and vice versa: more rounds
	// imply the unconstrained coloring exceeded w under the same order).
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 300; trial++ {
		top := ring.MustNew(rng.Intn(18) + 2)
		demands := randomDemands(rng, top, rng.Intn(20)+1, 3)
		asg, err := Assign(top, demands, FirstFit, AsGiven)
		if err != nil {
			t.Fatal(err)
		}
		w := rng.Intn(10) + 3
		maxWidth := 0
		for _, d := range demands {
			if d.Width > maxWidth {
				maxWidth = d.Width
			}
		}
		if maxWidth > w {
			continue // RoundsReused would reject; covered elsewhere
		}
		rounds, err := NewWorkspace(top).RoundsReused(demands, w, FirstFit, AsGiven)
		if err != nil {
			t.Fatal(err)
		}
		if asg.NumColors <= w && len(rounds) != 1 {
			t.Fatalf("assignment fits %d <= %d colors but RoundsReused split into %d",
				asg.NumColors, w, len(rounds))
		}
		if asg.NumColors > w && len(rounds) == 1 {
			t.Fatalf("assignment needs %d > %d colors but RoundsReused produced one round",
				asg.NumColors, w)
		}
	}
}

func TestAssignDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	top := ring.MustNew(16)
	demands := randomDemands(rng, top, 25, 3)
	a1, err := Assign(top, demands, FirstFit, LongestFirst)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := Assign(top, demands, FirstFit, LongestFirst)
	if err != nil {
		t.Fatal(err)
	}
	if a1.NumColors != a2.NumColors {
		t.Fatal("non-deterministic color count")
	}
	for i := range a1.Stripes {
		for j := range a1.Stripes[i] {
			if a1.Stripes[i][j] != a2.Stripes[i][j] {
				t.Fatalf("non-deterministic stripe for demand %d", i)
			}
		}
	}
}

func TestBalancedRoutingNeverWorseLoadThanNaive(t *testing.T) {
	// Balanced all-to-all routing must not exceed the naive shortest-path
	// routing's maximum link load.
	for r := 3; r <= 12; r++ {
		top := ring.MustNew(r * 5)
		nodes := make([]int, r)
		for i := range nodes {
			nodes[i] = i * 5
		}
		naive, err := MaxLinkLoad(top, AllToAllDemands(top, nodes, 1))
		if err != nil {
			t.Fatal(err)
		}
		balanced, err := MaxLinkLoad(top, AllToAllDemandsBalanced(top, nodes, 1))
		if err != nil {
			t.Fatal(err)
		}
		if balanced > naive {
			t.Errorf("r=%d: balanced load %d worse than naive %d", r, balanced, naive)
		}
	}
}

func TestAllToAllDemandsCount(t *testing.T) {
	top := ring.MustNew(20)
	nodes := []int{0, 5, 10, 15}
	for _, demands := range [][]Demand{
		AllToAllDemands(top, nodes, 2),
		AllToAllDemandsBalanced(top, nodes, 2),
	} {
		if len(demands) != len(nodes)*(len(nodes)-1) {
			t.Fatalf("%d demands for %d nodes", len(demands), len(nodes))
		}
		for _, d := range demands {
			if d.Width != 2 {
				t.Fatalf("width %d", d.Width)
			}
			if d.Arc.Src == d.Arc.Dst {
				t.Fatalf("self arc %v", d.Arc)
			}
		}
	}
}

func TestOptimalColorsSimpleCases(t *testing.T) {
	top := ring.MustNew(6)
	// Two disjoint arcs: optimum 1.
	d := []Demand{
		{Arc: ring.Arc{Src: 0, Dst: 1, Dir: ring.CW}, Width: 1},
		{Arc: ring.Arc{Src: 3, Dst: 4, Dir: ring.CW}, Width: 1},
	}
	if opt, err := OptimalColors(top, d); err != nil || opt != 1 {
		t.Fatalf("disjoint optimum = %d, %v", opt, err)
	}
	// Three mutually conflicting arcs: optimum 3.
	d = []Demand{
		{Arc: ring.Arc{Src: 0, Dst: 3, Dir: ring.CW}, Width: 1},
		{Arc: ring.Arc{Src: 1, Dst: 4, Dir: ring.CW}, Width: 1},
		{Arc: ring.Arc{Src: 2, Dst: 5, Dir: ring.CW}, Width: 1},
	}
	if opt, err := OptimalColors(top, d); err != nil || opt != 3 {
		t.Fatalf("clique optimum = %d, %v", opt, err)
	}
	// Width-2 demand unsupported.
	d[0].Width = 2
	if _, err := OptimalColors(top, d); err == nil {
		t.Fatal("width-2 accepted by OptimalColors")
	}
}
