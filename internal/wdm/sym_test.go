package wdm

import (
	"math/rand"
	"reflect"
	"testing"

	"wrht/internal/ring"
)

// TestRoundsReusedMatchesRounds: one workspace reused across trials returns
// value-equal rounds to a fresh workspace per trial for random demand sets,
// budgets, policies, and orders, so the arenas carry nothing between calls.
func TestRoundsReusedMatchesRounds(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{4, 9, 16} {
		topo := ring.MustNew(n)
		ws := NewWorkspace(topo)
		for trial := 0; trial < 40; trial++ {
			demands := randomDemands(rng, topo, 1+rng.Intn(3*n), 3)
			w := 3 + rng.Intn(8)
			policy := Policy(rng.Intn(2))
			order := Order(rng.Intn(2))
			want, errWant := NewWorkspace(topo).RoundsReused(demands, w, policy, order)
			got, errGot := ws.RoundsReused(demands, w, policy, order)
			if (errWant == nil) != (errGot == nil) {
				t.Fatalf("n=%d trial %d: error divergence: %v vs %v", n, trial, errWant, errGot)
			}
			if errWant != nil {
				continue
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("n=%d trial %d (w=%d %v %v): reused rounds diverge\n got %+v\nwant %+v",
					n, trial, w, policy, order, got, want)
			}
		}
	}
}

// TestSymmetricSingleRoundColorsMatchesRounds: on orbit demand sets that fit
// one round, the symmetric assigner reports exactly the colors a full
// First-Fit RoundsReused run uses; when the orbit cannot fit, it reports
// ok=false exactly when the full run needs more than one round.
func TestSymmetricSingleRoundColorsMatchesRounds(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	topo := ring.MustNew(24)
	sa := NewSymmetricAssigner(topo)
	for trial := 0; trial < 60; trial++ {
		w := 2 + rng.Intn(10)
		orbit := randomDemands(rng, topo, 1+rng.Intn(8), w)
		colors, ok, err := sa.SingleRoundColors(orbit, w)
		if err != nil {
			t.Fatal(err)
		}
		rounds, err := NewWorkspace(topo).RoundsReused(orbit, w, FirstFit, AsGiven)
		if err != nil {
			t.Fatal(err)
		}
		if ok != (len(rounds) == 1) {
			t.Fatalf("trial %d: ok=%v but full path used %d rounds", trial, ok, len(rounds))
		}
		if ok && colors != rounds[0].Assignment.NumColors {
			t.Fatalf("trial %d: symmetric colors %d, full path %d", trial, colors, rounds[0].Assignment.NumColors)
		}
	}
}

// TestSymmetricAssignerReplication: replicating a link-disjoint orbit
// block-major around the ring changes nothing about the full assignment —
// the whole step uses exactly the orbit's colors in a single round (the
// property classed pricing rests on).
func TestSymmetricAssignerReplication(t *testing.T) {
	topo := ring.MustNew(24)
	sa := NewSymmetricAssigner(topo)
	// Orbit: three demands confined to nodes [0, 6) — one period window of a
	// period-6, 4-block layout.
	orbit := []Demand{
		{Arc: ring.Arc{Src: 0, Dst: 3, Dir: ring.CW}, Width: 2},
		{Arc: ring.Arc{Src: 1, Dst: 3, Dir: ring.CW}, Width: 1},
		{Arc: ring.Arc{Src: 5, Dst: 3, Dir: ring.CCW}, Width: 1},
	}
	const w, period, blocks = 8, 6, 4
	colors, ok, err := sa.SingleRoundColors(orbit, w)
	if err != nil || !ok {
		t.Fatalf("orbit solve failed: colors=%d ok=%v err=%v", colors, ok, err)
	}
	var full []Demand
	for b := 0; b < blocks; b++ {
		for _, d := range orbit {
			d.Arc.Src = (d.Arc.Src + b*period) % topo.N()
			d.Arc.Dst = (d.Arc.Dst + b*period) % topo.N()
			full = append(full, d)
		}
	}
	rounds, err := NewWorkspace(topo).RoundsReused(full, w, FirstFit, AsGiven)
	if err != nil {
		t.Fatal(err)
	}
	if len(rounds) != 1 {
		t.Fatalf("replicated step used %d rounds, want 1", len(rounds))
	}
	if got := rounds[0].Assignment.NumColors; got != colors {
		t.Fatalf("replicated step used %d colors, orbit solve said %d", got, colors)
	}
	if err := Validate(topo, full, rounds[0].Assignment); err != nil {
		t.Fatal(err)
	}
}

// TestSymmetricAssignerMemo: identical orbit shapes solve once and hit the
// shape memo thereafter (verified by pointer-stable results, not timing).
func TestSymmetricAssignerMemo(t *testing.T) {
	topo := ring.MustNew(16)
	sa := NewSymmetricAssigner(topo)
	orbit := []Demand{{Arc: ring.Arc{Src: 0, Dst: 1, Dir: ring.CW}, Width: 3}}
	c1, ok1, err1 := sa.SingleRoundColors(orbit, 8)
	c2, ok2, err2 := sa.SingleRoundColors(orbit, 8)
	if err1 != nil || err2 != nil || !ok1 || !ok2 || c1 != c2 || c1 != 3 {
		t.Fatalf("memoized solve inconsistent: (%d,%v,%v) vs (%d,%v,%v)", c1, ok1, err1, c2, ok2, err2)
	}
	// A different budget is a different shape (callers clamp widths first).
	narrow := []Demand{{Arc: ring.Arc{Src: 0, Dst: 1, Dir: ring.CW}, Width: 2}}
	c3, ok3, err3 := sa.SingleRoundColors(narrow, 2)
	if err3 != nil || !ok3 || c3 != 2 {
		t.Fatalf("clamped-budget solve: colors=%d ok=%v err=%v, want 2", c3, ok3, err3)
	}
}
