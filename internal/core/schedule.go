package core

import (
	"fmt"

	"wrht/internal/collective"
	"wrht/internal/ring"
	"wrht/internal/tensor"
	"wrht/internal/wdm"
)

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

	reduceLevel := func(li int, broadcast bool) {
		lvl := p.ReduceLevels[li]
		label := fmt.Sprintf("reduce level %d", li+1)
		if broadcast {
			label = fmt.Sprintf("broadcast level %d", li+1)
		}
		if period, ok := uniformLevel(lvl.Groups); ok {
			b.StartSymUniform(label, period, len(lvl.Groups), full)
			emitGroup(b.AddOrbit, lvl.Groups[0], full, p.TreeStripe, broadcast)
			return
		}
		b.StartStep(label)
		for _, g := range lvl.Groups {
			emitGroup(b.Add, g, full, p.TreeStripe, broadcast)
		}
	}

	for li := range p.ReduceLevels {
		reduceLevel(li, false)
	}
	if p.A2AReps != nil {
		b.StartStep(fmt.Sprintf("all-to-all among %d reps", len(p.A2AReps)))
		for _, d := range p.a2aDemands() {
			b.Add(collective.Transfer{
				Src: d.Arc.Src, Dst: d.Arc.Dst,
				Region: full,
				Op:     collective.OpReduce,
				Routed: true,
				Dir:    d.Arc.Dir,
				Width:  p.A2AStripe,
			})
		}
	}
	for li := len(p.ReduceLevels) - 1; li >= 0; li-- {
		reduceLevel(li, true)
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
	s := &collective.Schedule{
		Algorithm: fmt.Sprintf("wrht(m=%d,%v)", p.M, p.Policy),
		N:         p.N,
		Elems:     elems,
	}
	full := tensor.Region{Offset: 0, Len: elems}

	// Reduce stage.
	for li, lvl := range p.ReduceLevels {
		st := collective.Step{Label: fmt.Sprintf("reduce level %d", li+1)}
		for _, g := range lvl.Groups {
			for _, mem := range g.Members {
				if mem == g.Rep {
					continue
				}
				st.Transfers = append(st.Transfers, collective.Transfer{
					Src: mem, Dst: g.Rep,
					Region: full,
					Op:     collective.OpReduce,
					Routed: true,
					Dir:    dirToward(mem, g.Rep),
					Width:  p.TreeStripe,
				})
			}
		}
		s.Steps = append(s.Steps, st)
	}

	// All-to-all among the final representatives.
	if p.A2AReps != nil {
		st := collective.Step{Label: fmt.Sprintf("all-to-all among %d reps", len(p.A2AReps))}
		demands := p.a2aDemands()
		for _, d := range demands {
			st.Transfers = append(st.Transfers, collective.Transfer{
				Src: d.Arc.Src, Dst: d.Arc.Dst,
				Region: full,
				Op:     collective.OpReduce,
				Routed: true,
				Dir:    d.Arc.Dir,
				Width:  p.A2AStripe,
			})
		}
		s.Steps = append(s.Steps, st)
	}

	// Broadcast stage: mirror of the reduce stage.
	for li := len(p.ReduceLevels) - 1; li >= 0; li-- {
		lvl := p.ReduceLevels[li]
		st := collective.Step{Label: fmt.Sprintf("broadcast level %d", li+1)}
		for _, g := range lvl.Groups {
			for _, mem := range g.Members {
				if mem == g.Rep {
					continue
				}
				st.Transfers = append(st.Transfers, collective.Transfer{
					Src: g.Rep, Dst: mem,
					Region: full,
					Op:     collective.OpCopy,
					Routed: true,
					Dir:    dirToward(mem, g.Rep).Opposite(),
					Width:  p.TreeStripe,
				})
			}
		}
		s.Steps = append(s.Steps, st)
	}
	return s, nil
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
