package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"wrht/internal/collective"
	"wrht/internal/ring"
	"wrht/internal/wdm"
)

func mustPlan(t *testing.T, n, w int, opts Options) *Plan {
	t.Helper()
	p, err := BuildPlan(n, w, opts)
	if err != nil {
		t.Fatalf("BuildPlan(n=%d, w=%d, %+v): %v", n, w, opts, err)
	}
	return p
}

func TestCeilLogM(t *testing.T) {
	cases := []struct{ m, n, want int }{
		{2, 1, 0}, {2, 2, 1}, {2, 3, 2}, {2, 1024, 10},
		{3, 1024, 7}, {129, 1024, 2}, {129, 129, 1}, {10, 1000, 3}, {10, 1001, 4},
	}
	for _, c := range cases {
		if got := CeilLogM(c.m, c.n); got != c.want {
			t.Errorf("CeilLogM(%d,%d) = %d, want %d", c.m, c.n, got, c.want)
		}
	}
}

// MStar returns the paper's representative count at the last level,
// m* = ⌈N / m^(⌈log_m N⌉−1)⌉.
func MStar(n, m int) int {
	l := CeilLogM(m, n)
	p := 1
	for i := 0; i < l-1; i++ {
		p *= m
	}
	return (n + p - 1) / p
}

func TestMStar(t *testing.T) {
	// Paper: m* = ⌈N / m^(⌈log_m N⌉−1)⌉
	cases := []struct{ n, m, want int }{
		{1024, 3, 2},   // ⌈1024/729⌉
		{1024, 129, 8}, // ⌈1024/129⌉
		{1024, 2, 2},
		{128, 3, 2}, // ⌈128/81⌉
		{100, 10, 10},
	}
	for _, c := range cases {
		if got := MStar(c.n, c.m); got != c.want {
			t.Errorf("MStar(%d,%d) = %d, want %d", c.n, c.m, got, c.want)
		}
	}
}

func TestStepCountFormulaPolicy(t *testing.T) {
	// For the formula policy the paper's step count is exact:
	// 2⌈log_m N⌉ − 1 when all-to-all is feasible at the last level,
	// 2⌈log_m N⌉ otherwise.
	for _, n := range []int{2, 3, 7, 16, 100, 128, 256, 512, 1024} {
		for _, w := range []int{1, 2, 4, 8, 64} {
			maxM := MaxGroupSize(w)
			if maxM > n {
				maxM = n
			}
			for m := 2; m <= maxM; m++ {
				p := mustPlan(t, n, w, Options{M: m, Policy: A2AFormula, Striping: true})
				if err := p.CheckInvariants(); err != nil {
					t.Fatalf("n=%d w=%d m=%d: %v", n, w, m, err)
				}
				bound := 2 * CeilLogM(m, n)
				want := bound
				if wdm.LiangShenBound(MStar(n, m)) <= w {
					want = bound - 1
				}
				if got := p.NumSteps(); got != want {
					t.Errorf("n=%d w=%d m=%d: steps=%d, want %d", n, w, m, got, want)
				}
			}
		}
	}
}

func TestPaperHeadlineShapes(t *testing.T) {
	// TeraRack defaults: w=64. The shapes the paper quotes:
	// N=1024, m=129 (max fan-in): 2 levels, m*=8, steps 3.
	p := mustPlan(t, 1024, 64, Options{M: 129, Policy: A2AFormula})
	if len(p.ReduceLevels) != 1 || p.A2AReps == nil || len(p.A2AReps) != 8 {
		t.Fatalf("m=129: levels=%d a2a=%v", len(p.ReduceLevels), p.A2AReps)
	}
	if p.NumSteps() != 3 {
		t.Fatalf("m=129 steps = %d, want 3", p.NumSteps())
	}
	if p.A2ADemand != wdm.LiangShenBound(8) {
		t.Fatalf("a2a demand %d", p.A2ADemand)
	}

	// m=3: ⌈log3 1024⌉ = 7 → 13 steps under the formula policy.
	p3 := mustPlan(t, 1024, 64, Options{M: 3, Policy: A2AFormula})
	if p3.NumSteps() != 13 {
		t.Fatalf("m=3 steps = %d, want 13", p3.NumSteps())
	}
	// Greedy policy stops the tree as soon as ⌈r²/8⌉ ≤ 64 (r=13 at level 4).
	g3 := mustPlan(t, 1024, 64, Options{M: 3, Policy: A2AGreedy})
	if g3.NumSteps() >= p3.NumSteps() {
		t.Fatalf("greedy (%d steps) should beat formula (%d steps) at m=3",
			g3.NumSteps(), p3.NumSteps())
	}
	if len(g3.A2AReps) != 13 {
		t.Fatalf("greedy a2a reps = %d, want 13", len(g3.A2AReps))
	}
}

func TestTreeStripeUsesResidualWavelengths(t *testing.T) {
	// m=3 demands ⌊3/2⌋=1 wavelength per step, so striping should give each
	// transfer all 64.
	p := mustPlan(t, 128, 64, Options{M: 3, Policy: A2AFormula, Striping: true})
	if p.TreeStripe != 64 {
		t.Fatalf("TreeStripe = %d, want 64", p.TreeStripe)
	}
	// m=9 demands 4: stripe 16.
	p9 := mustPlan(t, 128, 64, Options{M: 9, Policy: A2AFormula, Striping: true})
	if p9.TreeStripe != 16 {
		t.Fatalf("TreeStripe = %d, want 16", p9.TreeStripe)
	}
	// Striping off: always 1.
	p1 := mustPlan(t, 128, 64, Options{M: 3, Policy: A2AFormula, Striping: false})
	if p1.TreeStripe != 1 || p1.A2AStripe != 1 {
		t.Fatalf("striping off gave stripes %d/%d", p1.TreeStripe, p1.A2AStripe)
	}
}

func TestWavelengthDemandsWithinBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 300; trial++ {
		n := rng.Intn(300) + 2
		w := rng.Intn(64) + 1
		maxM := MaxGroupSize(w)
		if maxM > n {
			maxM = n
		}
		m := 2
		if maxM > 2 {
			m = rng.Intn(maxM-1) + 2
		}
		policy := A2APolicy(rng.Intn(2))
		striping := rng.Intn(2) == 0
		p := mustPlan(t, n, w, Options{M: m, Policy: policy, Striping: striping})
		if err := p.CheckInvariants(); err != nil {
			t.Fatalf("n=%d w=%d m=%d %v striping=%v: %v", n, w, m, policy, striping, err)
		}
		for si, d := range p.WavelengthDemands() {
			if d > w {
				t.Fatalf("n=%d w=%d m=%d: step %d demand %d > w", n, w, m, si, d)
			}
		}
	}
}

func TestScheduleIsCorrectAllReduce(t *testing.T) {
	// The decisive test: every Wrht schedule must actually all-reduce.
	cases := []struct {
		n, w, m int
		policy  A2APolicy
	}{
		{2, 1, 2, A2AFormula},
		{3, 1, 2, A2AFormula},
		{4, 2, 3, A2AFormula},
		{7, 2, 4, A2AGreedy},
		{16, 4, 3, A2AFormula},
		{16, 4, 9, A2AGreedy},
		{33, 8, 5, A2AFormula},
		{64, 64, 65, A2AFormula}, // single level collapses to all-to-all? m>n clamps
		{100, 16, 7, A2AGreedy},
		{128, 64, 3, A2AFormula},
		{128, 64, 129, A2AFormula},
	}
	for _, c := range cases {
		m := c.m
		if m > c.n {
			m = c.n
		}
		p := mustPlan(t, c.n, c.w, Options{M: m, Policy: c.policy, Striping: true})
		for _, elems := range []int{1, 5, 64} {
			s, err := p.Schedule(elems)
			if err != nil {
				t.Fatal(err)
			}
			if err := collective.VerifyAllReduce(s); err != nil {
				t.Fatalf("n=%d w=%d m=%d %v: %v", c.n, c.w, m, c.policy, err)
			}
		}
	}
}

func TestScheduleCorrectnessProperty(t *testing.T) {
	if testing.Short() {
		t.Skip("property test")
	}
	prop := func(nRaw uint8, wRaw uint8, mRaw uint8, policyRaw, stripeRaw uint8) bool {
		n := int(nRaw)%126 + 2
		w := int(wRaw)%32 + 1
		maxM := MaxGroupSize(w)
		if maxM > n {
			maxM = n
		}
		m := 2
		if maxM > 2 {
			m = int(mRaw)%(maxM-1) + 2
		}
		opts := Options{
			M:        m,
			Policy:   A2APolicy(policyRaw % 2),
			Striping: stripeRaw%2 == 0,
		}
		p, err := BuildPlan(n, w, opts)
		if err != nil {
			return false
		}
		if p.CheckInvariants() != nil {
			return false
		}
		s, err := p.Schedule(17)
		if err != nil {
			return false
		}
		return collective.VerifyAllReduce(s) == nil
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestScheduleWavelengthAssignable(t *testing.T) {
	// Every step of a Wrht schedule must be colorable within w wavelengths
	// in a single round (the plan's whole point). Verified with real
	// First-Fit assignment on the step's arcs.
	cases := []struct {
		n, w, m int
		policy  A2APolicy
	}{
		{16, 4, 3, A2AFormula},
		{64, 8, 5, A2AFormula},
		{128, 64, 3, A2AFormula},
		{128, 64, 129, A2AFormula},
		{100, 16, 7, A2AGreedy},
		{256, 64, 17, A2AGreedy},
	}
	for _, c := range cases {
		m := c.m
		if m > c.n {
			m = c.n
		}
		p := mustPlan(t, c.n, c.w, Options{M: m, Policy: c.policy, Striping: true})
		s, err := p.Schedule(8)
		if err != nil {
			t.Fatal(err)
		}
		for si, st := range s.Steps {
			demands := make([]wdm.Demand, 0, len(st.Transfers))
			for _, tr := range st.Transfers {
				demands = append(demands, wdm.Demand{
					Arc:   arcOf(tr),
					Width: tr.Width,
				})
			}
			asg, err := wdm.Assign(p.Topo, demands, wdm.FirstFit, wdm.LongestFirst)
			if err != nil {
				t.Fatalf("n=%d m=%d step %d: %v", c.n, m, si, err)
			}
			if err := wdm.Validate(p.Topo, demands, asg); err != nil {
				t.Fatalf("n=%d m=%d step %d: %v", c.n, m, si, err)
			}
			// Tree steps must fit exactly; the all-to-all step may exceed the
			// Liang–Shen load bound under First-Fit by a small factor (the
			// substrate then splits it into rounds), so allow slack there.
			budget := c.w
			if p.A2AReps != nil && si == len(p.ReduceLevels) {
				budget = c.w + c.w/2
			}
			if asg.NumColors > budget {
				t.Errorf("n=%d m=%d step %d (%s): %d colors > budget %d",
					c.n, m, si, st.Label, asg.NumColors, budget)
			}
		}
	}
}

func TestChooseMPicksSensibleShape(t *testing.T) {
	opts := DefaultOptions()
	p, err := BuildPlan(1024, 64, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// With striping, deep narrow trees (m=3, stripe 64) dominate shallow wide
	// ones; the optimizer must not pick the max fan-in.
	if p.M >= MaxGroupSize(64) {
		t.Fatalf("optimizer picked max fan-in m=%d", p.M)
	}
	// And the chosen plan must beat both extremes it searched.
	t3 := p.PredictTime(opts.Cost, 100<<20)
	for _, m := range []int{2, 129} {
		alt := mustPlan(t, 1024, 64, Options{M: m, Policy: A2AFormula, Striping: true})
		if ta := alt.PredictTime(opts.Cost, 100<<20); ta < t3-1e-12 {
			t.Fatalf("optimizer time %.6f beaten by m=%d (%.6f)", t3, m, ta)
		}
	}
}

func TestChooseMWithoutStripingPrefersShallow(t *testing.T) {
	// Without striping each transfer is one wavelength, so fewer steps win:
	// the optimizer should pick a large fan-in (or greedy all-to-all), never
	// the binary tree.
	opts := Options{Striping: false, Cost: DefaultCostParams()}
	p, err := BuildPlan(1024, 64, opts)
	if err != nil {
		t.Fatal(err)
	}
	if p.NumSteps() > 5 {
		t.Fatalf("unstriped optimizer chose %d steps (m=%d)", p.NumSteps(), p.M)
	}
}

func TestBuildPlanValidation(t *testing.T) {
	if _, err := BuildPlan(1, 4, Options{M: 2}); err == nil {
		t.Fatal("n=1 accepted")
	}
	if _, err := BuildPlan(8, 0, Options{M: 2}); err == nil {
		t.Fatal("w=0 accepted")
	}
	if _, err := BuildPlan(8, 4, Options{M: 1}); err == nil {
		t.Fatal("m=1 accepted")
	}
	if _, err := BuildPlan(8, 2, Options{M: 6}); err == nil {
		t.Fatal("⌊m/2⌋ > w accepted")
	}
}

func TestPlanString(t *testing.T) {
	p := mustPlan(t, 16, 4, Options{M: 3, Policy: A2AFormula, Striping: true})
	if s := p.String(); s == "" {
		t.Fatal("empty String()")
	}
}

func TestPredictTimeMonotoneInBytes(t *testing.T) {
	p := mustPlan(t, 128, 64, Options{M: 3, Policy: A2AFormula, Striping: true})
	c := DefaultCostParams()
	small := p.PredictTime(c, 1<<20)
	big := p.PredictTime(c, 1<<30)
	if big <= small {
		t.Fatalf("PredictTime not monotone: %v vs %v", small, big)
	}
}

func TestW1DegeneratesToBinaryTreePlusExchange(t *testing.T) {
	// With a single wavelength the only feasible fan-ins are m ∈ {2, 3}; the
	// plan must still terminate and verify.
	for _, n := range []int{2, 5, 16, 33} {
		for _, m := range []int{2, 3} {
			mm := m
			if mm > n {
				mm = n
			}
			p := mustPlan(t, n, 1, Options{M: mm, Policy: A2AFormula})
			if err := p.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			s, err := p.Schedule(9)
			if err != nil {
				t.Fatal(err)
			}
			if err := collective.VerifyAllReduce(s); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// arcOf converts a routed transfer to its ring arc.
func arcOf(tr collective.Transfer) ring.Arc {
	return ring.Arc{Src: tr.Src, Dst: tr.Dst, Dir: tr.Dir}
}
