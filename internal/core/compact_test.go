package core

import (
	"reflect"
	"testing"
)

// TestClassScheduleMatchesBoxed: the direct classed lowering — uniform
// levels as certified orbit steps, ragged levels and the all-to-all
// materialized — expands to exactly the boxed lowering, across plan shapes.
func TestClassScheduleMatchesBoxed(t *testing.T) {
	cases := []struct {
		n, w int
		opts Options
	}{
		{8, 4, Options{M: 3, Policy: A2AFormula}},
		{9, 4, Options{M: 3, Policy: A2AFormula}}, // uniform 3|9 levels
		{8, 4, Options{M: 3, Policy: A2AGreedy}},
		{16, 8, Options{M: 4, Policy: A2AFormula, Striping: true}}, // uniform 4|16
		{24, 8, Options{M: 5, Policy: A2AFormula, Striping: true}},
		{24, 8, Options{M: 5, Policy: A2AFormula, AvoidWrap: true}},
		{30, 16, Options{M: 0, Policy: A2AFormula, Striping: true, Cost: DefaultCostParams()}},
		{64, 8, Options{M: 9, Policy: A2AGreedy, Striping: true}},
		{7, 3, Options{M: 2, Policy: A2AFormula}},
	}
	for _, c := range cases {
		p, err := BuildPlan(c.n, c.w, c.opts)
		if err != nil {
			t.Fatalf("n=%d w=%d: %v", c.n, c.w, err)
		}
		for _, elems := range []int{0, 1, 100} {
			boxed, err := p.Schedule(elems)
			if err != nil {
				t.Fatal(err)
			}
			cls, err := p.ClassSchedule(elems)
			if err != nil {
				t.Fatal(err)
			}
			back := cls.Expand()
			for i := range boxed.Steps {
				if len(boxed.Steps[i].Transfers) == 0 {
					boxed.Steps[i].Transfers = nil
				}
				if len(back.Steps[i].Transfers) == 0 {
					back.Steps[i].Transfers = nil
				}
			}
			if !reflect.DeepEqual(back, boxed) {
				t.Fatalf("n=%d w=%d m=%d elems=%d: classed lowering diverges from boxed",
					c.n, c.w, p.M, elems)
			}
			cls.Release()
		}
	}
}

// TestClassScheduleCertifiesUniformLevels: when the node count is an exact
// power of the group size, every tree level is uniform and must carry the
// symmetry certificate (the large-N fast path depends on it).
func TestClassScheduleCertifiesUniformLevels(t *testing.T) {
	p, err := BuildPlan(27, 8, Options{M: 3, Policy: A2AFormula})
	if err != nil {
		t.Fatal(err)
	}
	cls, err := p.ClassSchedule(81)
	if err != nil {
		t.Fatal(err)
	}
	defer cls.Release()
	symSteps := 0
	for s := 0; s < cls.NumSteps(); s++ {
		if _, _, _, _, ok := cls.Sym(s); ok {
			symSteps++
		}
	}
	// 27 = 3³ with m=3: levels 27→9 and 9→3 are uniform in both stages; the
	// final 3-rep stage ends in the all-to-all (materialized).
	if symSteps < 4 {
		t.Fatalf("only %d certified steps of %d; uniform levels lost their certificate",
			symSteps, cls.NumSteps())
	}
}

// TestClassScheduleRejectsNegativeElems mirrors Schedule's validation.
func TestClassScheduleRejectsNegativeElems(t *testing.T) {
	p, err := BuildPlan(8, 4, Options{M: 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.ClassSchedule(-1); err == nil {
		t.Fatal("negative elems accepted")
	}
}

// TestPlanSigDeterminesSchedule: plans built through different paths with
// equal signatures lower to identical schedules (the schedule cache's
// soundness condition).
func TestPlanSigDeterminesSchedule(t *testing.T) {
	// The optimizer's choice, and the same (m, policy) requested explicitly.
	auto, err := BuildPlan(30, 16, Options{Policy: A2AFormula, Striping: true, Cost: DefaultCostParams()})
	if err != nil {
		t.Fatal(err)
	}
	explicit, err := BuildPlan(30, 16, Options{
		M: auto.M, Policy: auto.Policy, Striping: true, Cost: DefaultCostParams(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if auto.Sig() != explicit.Sig() {
		t.Fatalf("sigs differ: %+v vs %+v", auto.Sig(), explicit.Sig())
	}
	a, err := auto.Schedule(64)
	if err != nil {
		t.Fatal(err)
	}
	b, err := explicit.Schedule(64)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("equal signatures lowered to different schedules")
	}
	// Distinct shapes must have distinct signatures.
	other, err := BuildPlan(30, 16, Options{M: 2, Policy: A2AFormula, Striping: true})
	if err != nil {
		t.Fatal(err)
	}
	if other.M != auto.M && other.Sig() == auto.Sig() {
		t.Fatal("different plans share a signature")
	}
}
