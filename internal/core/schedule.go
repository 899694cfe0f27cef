package core

import (
	"fmt"

	"wrht/internal/collective"
	"wrht/internal/ring"
	"wrht/internal/tensor"
	"wrht/internal/wdm"
)

// stage is one step of the plan: tree level `level` in the reduce or the
// broadcast direction, or the all-to-all among the final representatives
// (level −1).
type stage struct {
	level     int
	broadcast bool
}

// stages returns the plan's steps in execution order: the reduce levels, the
// all-to-all if the plan has one, then the broadcast levels in reverse. It is
// the one owner of Wrht's step order; every lowering and predictor except
// PredictTime walks it.
func (p *Plan) stages() []stage {
	out := make([]stage, 0, p.NumSteps())
	for li := range p.ReduceLevels {
		out = append(out, stage{level: li})
	}
	if p.A2AReps != nil {
		out = append(out, stage{level: -1})
	}
	for li := len(p.ReduceLevels) - 1; li >= 0; li-- {
		out = append(out, stage{level: li, broadcast: true})
	}
	return out
}

// label names stage s's step.
func (p *Plan) label(s stage) string {
	switch {
	case s.level < 0:
		return fmt.Sprintf("all-to-all among %d reps", len(p.A2AReps))
	case s.broadcast:
		return fmt.Sprintf("broadcast level %d", s.level+1)
	}
	return fmt.Sprintf("reduce level %d", s.level+1)
}

// demand returns the wavelengths stage s lights, after striping.
func (p *Plan) demand(s stage) int {
	if s.level < 0 {
		return p.A2ADemand * p.A2AStripe
	}
	return p.ReduceLevels[s.level].Demand * p.TreeStripe
}

// emit appends stage s's transfers over region through add: every group's
// tree transfers (emitGroup), or the routed all-to-all among the final
// representatives. It is the one owner of Wrht's transfer rule.
func (p *Plan) emit(s stage, region tensor.Region, add func(collective.Transfer)) {
	if s.level >= 0 {
		for _, g := range p.ReduceLevels[s.level].Groups {
			emitGroup(add, g, region, p.TreeStripe, s.broadcast)
		}
		return
	}
	for _, d := range p.a2aDemands() {
		add(collective.Transfer{
			Src: d.Arc.Src, Dst: d.Arc.Dst,
			Region: region,
			Op:     collective.OpReduce,
			Routed: true,
			Dir:    d.Arc.Dir,
			Width:  p.A2AStripe,
		})
	}
}

// ClassSchedule lowers the plan directly to the symmetry-aware classed IR.
// A reduce/broadcast level whose groups are uniform — equal sizes, members
// and representative translated by a fixed stride — becomes one orbit step
// (group 0's transfers, replicated #groups times at the stride); ragged
// levels and the all-to-all step are materialized. Steps, labels, and
// transfer order (under ClassSchedule.ForEachTransfer) are identical to
// Schedule, and classed pricing of the result is bit-identical to the boxed
// path — tests enforce both.
func (p *Plan) ClassSchedule(elems int) (*collective.ClassSchedule, error) {
	if elems < 0 {
		return nil, fmt.Errorf("core: negative elems %d", elems)
	}
	b := collective.NewClassScheduleBuilder(fmt.Sprintf("wrht(m=%d,%v)", p.M, p.Policy), p.N, elems)
	full := tensor.Region{Offset: 0, Len: elems}
	for _, s := range p.stages() {
		if s.level >= 0 {
			groups := p.ReduceLevels[s.level].Groups
			if period, ok := uniformLevel(groups); ok {
				b.StartSymUniform(p.label(s), period, len(groups), full)
				emitGroup(b.AddOrbit, groups[0], full, p.TreeStripe, s.broadcast)
				continue
			}
		}
		b.StartStep(p.label(s))
		p.emit(s, full, b.Add)
	}
	return b.Finish(), nil
}

// emitGroup appends one group's member↔representative transfers (reduce
// direction, or its broadcast mirror) through add.
func emitGroup(add func(collective.Transfer), g ring.Group, full tensor.Region, stripe int, broadcast bool) {
	for _, mem := range g.Members {
		if mem == g.Rep {
			continue
		}
		tr := collective.Transfer{
			Src: mem, Dst: g.Rep,
			Region: full,
			Op:     collective.OpReduce,
			Routed: true,
			Dir:    dirToward(mem, g.Rep),
			Width:  stripe,
		}
		if broadcast {
			tr.Src, tr.Dst = g.Rep, mem
			tr.Op = collective.OpCopy
			tr.Dir = tr.Dir.Opposite()
		}
		add(tr)
	}
}

// uniformLevel reports whether every group is group 0 translated by a fixed
// stride (the provably-symmetric level shape) and returns that stride.
func uniformLevel(groups []ring.Group) (int, bool) {
	if len(groups) < 2 {
		return 0, false
	}
	g0 := groups[0]
	period := groups[1].Members[0] - g0.Members[0]
	if period < 1 {
		return 0, false
	}
	for k, g := range groups {
		if len(g.Members) != len(g0.Members) {
			return 0, false
		}
		shift := k * period
		if g.Rep != g0.Rep+shift {
			return 0, false
		}
		for i, mem := range g.Members {
			if mem != g0.Members[i]+shift {
				return 0, false
			}
		}
	}
	return period, true
}

// Schedule lowers the plan to the collective IR over a buffer of elems
// elements. Tree reduce levels move each member's full buffer to its
// representative (OpReduce); the all-to-all step exchanges full partials
// among representatives; broadcast levels mirror the reduce levels with
// OpCopy. The resulting schedule passes collective.VerifyAllReduce for every
// (N, w, m, policy) combination — tests enforce this.
func (p *Plan) Schedule(elems int) (*collective.Schedule, error) {
	if elems < 0 {
		return nil, fmt.Errorf("core: negative elems %d", elems)
	}
	out := &collective.Schedule{
		Algorithm: fmt.Sprintf("wrht(m=%d,%v)", p.M, p.Policy),
		N:         p.N,
		Elems:     elems,
	}
	full := tensor.Region{Offset: 0, Len: elems}
	for _, s := range p.stages() {
		st := collective.Step{Label: p.label(s)}
		p.emit(s, full, func(tr collective.Transfer) { st.Transfers = append(st.Transfers, tr) })
		out.Steps = append(out.Steps, st)
	}
	return out, nil
}

// a2aDemands routes the final all-to-all: load-balanced by default,
// wrap-avoiding when the plan was built with AvoidWrap.
func (p *Plan) a2aDemands() []wdm.Demand {
	if p.AvoidWrap {
		return wdm.AllToAllDemandsNoWrap(p.Topo, p.A2AReps, 1)
	}
	return wdm.AllToAllDemandsBalanced(p.Topo, p.A2AReps, 1)
}

// CheckInvariants verifies the structural properties the paper's analysis
// relies on. It is exercised heavily by tests and available to callers that
// construct unusual configurations:
//
//   - every node participates exactly once per level (as member or pass-through
//     representative of the previous level),
//   - each group is contiguous and ascending with its representative a member,
//   - per-step wavelength demand after striping fits the budget w,
//   - the step count matches the paper's 2⌈log_m N⌉ (or −1) bound for the
//     formula policy, and never exceeds it for the greedy policy.
func (p *Plan) CheckInvariants() error {
	// Level participant bookkeeping.
	expected := p.Topo.AllNodes()
	for li, lvl := range p.ReduceLevels {
		seen := make(map[int]bool, len(expected))
		var next []int
		for gi, g := range lvl.Groups {
			if len(g.Members) == 0 {
				return fmt.Errorf("core: level %d group %d empty", li, gi)
			}
			if len(g.Members) > p.M {
				return fmt.Errorf("core: level %d group %d has %d members (m=%d)",
					li, gi, len(g.Members), p.M)
			}
			if g.RepIndex() < 0 {
				return fmt.Errorf("core: level %d group %d rep %d not a member", li, gi, g.Rep)
			}
			prev := -1
			for _, mem := range g.Members {
				if mem <= prev {
					return fmt.Errorf("core: level %d group %d members not ascending", li, gi)
				}
				prev = mem
				if seen[mem] {
					return fmt.Errorf("core: level %d node %d in two groups", li, mem)
				}
				seen[mem] = true
			}
			next = append(next, g.Rep)
		}
		if len(seen) != len(expected) {
			return fmt.Errorf("core: level %d covers %d of %d participants",
				li, len(seen), len(expected))
		}
		for _, e := range expected {
			if !seen[e] {
				return fmt.Errorf("core: level %d missing participant %d", li, e)
			}
		}
		expected = next
	}
	if p.A2AReps != nil {
		if len(expected) != len(p.A2AReps) {
			return fmt.Errorf("core: all-to-all over %d reps, levels left %d",
				len(p.A2AReps), len(expected))
		}
		if wdm.LiangShenBound(len(p.A2AReps)) > p.W {
			return fmt.Errorf("core: all-to-all demand %d exceeds budget %d",
				wdm.LiangShenBound(len(p.A2AReps)), p.W)
		}
	} else if len(expected) != 1 || expected[0] != p.Root {
		return fmt.Errorf("core: root mismatch: levels end at %v, Root=%d", expected, p.Root)
	}

	for si, d := range p.WavelengthDemands() {
		if d > p.W {
			return fmt.Errorf("core: step %d demands %d wavelengths, budget %d", si, d, p.W)
		}
		if d < 1 {
			return fmt.Errorf("core: step %d demands %d wavelengths", si, d)
		}
	}

	bound := p.StepsUpperBound()
	switch p.Policy {
	case A2AFormula:
		if n := p.NumSteps(); n != bound && n != bound-1 {
			return fmt.Errorf("core: formula policy steps %d, want %d or %d", n, bound, bound-1)
		}
	case A2AGreedy:
		if n := p.NumSteps(); n > bound {
			return fmt.Errorf("core: greedy policy steps %d exceed bound %d", n, bound)
		}
	}
	return nil
}
