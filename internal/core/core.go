// Package core implements Wrht — the Wavelength Reused Hierarchical Tree
// all-reduce of Dai et al. (PPoPP'23) — as a planner that turns (N nodes,
// w wavelengths) into a collective.Schedule.
//
// The plan has a reduce stage and a broadcast stage. In each reduce level the
// current participants (initially all N nodes) are partitioned into
// contiguous groups of at most m along the ring; the middle node of each
// group is its representative and collects every member's full gradient
// vector, using ⌊m/2⌋ wavelengths per group (the two halves of a group travel
// on opposite waveguides, and link-disjoint groups reuse the same
// wavelengths). Levels repeat until the surviving representatives can finish
// with a single-step WDM all-to-all (wavelength requirement ⌈r²/8⌉, Liang &
// Shen), after which the broadcast stage mirrors the reduce stage. Total
// steps: 2⌈log_m N⌉ or 2⌈log_m N⌉ − 1, matching the paper.
//
// Beyond the paper's prose the planner supports wavelength striping (a
// transfer may ride k = ⌊w/demand⌋ wavelengths in parallel, exploiting the
// residual WDM capacity TeraRack hardware exposes), a greedy variant of the
// all-to-all trigger, and an optimizer that searches group size and policy
// against an analytic time model.
package core

import (
	"fmt"
	"sync/atomic"

	"wrht/internal/ring"
	"wrht/internal/wdm"
)

// A2APolicy controls when the reduce stage switches from tree levels to the
// final all-to-all among representatives.
type A2APolicy int

const (
	// A2AFormula runs tree levels while more than m representatives remain,
	// then finishes with an all-to-all among the final m* ≤ m
	// representatives — the construction behind the paper's step-count
	// formula 2⌈log_m N⌉ − 1. If even that all-to-all exceeds the wavelength
	// budget, a last tree level reduces to a single root (2⌈log_m N⌉ steps).
	A2AFormula A2APolicy = iota
	// A2AGreedy switches to all-to-all at the first level where
	// ⌈r²/8⌉ ≤ w, the literal reading of the paper's prose. It can finish in
	// fewer, larger steps than A2AFormula.
	A2AGreedy
)

func (p A2APolicy) String() string {
	switch p {
	case A2AFormula:
		return "formula"
	case A2AGreedy:
		return "greedy"
	default:
		return fmt.Sprintf("A2APolicy(%d)", int(p))
	}
}

// Options configures plan construction.
type Options struct {
	// M is the group size (fan-in) per tree level; 2 ≤ M. M = 0 selects the
	// group size automatically via ChooseM against Cost.
	M int
	// Policy is the all-to-all trigger policy.
	Policy A2APolicy
	// Striping lets transfers ride multiple wavelengths when the step's
	// wavelength demand leaves headroom. The paper's analysis assigns one
	// wavelength per transfer; striping is the natural hardware extension
	// and is on in the evaluation (see DESIGN.md). Disable for the literal
	// single-wavelength reading.
	Striping bool
	// AvoidWrap routes the final all-to-all so that no transfer crosses the
	// ring span between node N-1 and node 0. Since tree groups are
	// contiguous and never wrap, the entire schedule then survives a
	// failure of that span (a property O-Ring cannot have) — at the cost of
	// higher all-to-all link load.
	AvoidWrap bool
	// Cost parameterizes the analytic model used when M == 0.
	Cost CostParams
}

// DefaultOptions returns the configuration used throughout the evaluation:
// automatic group size, formula policy preferred by the optimizer, striping
// enabled, default TeraRack-like cost constants.
func DefaultOptions() Options {
	return Options{M: 0, Policy: A2AFormula, Striping: true, Cost: DefaultCostParams()}
}

// Level is one reduce level: the grouping applied to the participants that
// survived the previous level.
type Level struct {
	Groups []ring.Group
	// MaxHops is the largest member→representative ring distance in this
	// level (drives propagation delay).
	MaxHops int
	// Demand is the per-step wavelength demand before striping: the largest
	// ⌊len(group)/2⌋ over groups.
	Demand int
}

// Plan is a fully resolved Wrht schedule shape for N nodes and w wavelengths.
type Plan struct {
	N, W, M  int
	Policy   A2APolicy
	Striping bool

	Topo ring.Topology

	// ReduceLevels are applied in order; the broadcast stage mirrors them in
	// reverse.
	ReduceLevels []Level

	// A2AReps holds the representatives of the final all-to-all step, or is
	// nil when the reduce stage ends at a single Root.
	A2AReps []int
	// Root is the final representative when A2AReps is nil.
	Root int

	// TreeStripe and A2AStripe are the wavelengths per transfer in tree
	// levels and in the all-to-all step (1 when striping is off).
	TreeStripe int
	A2AStripe  int

	// A2ADemand is the analytic wavelength requirement ⌈r²/8⌉ of the
	// all-to-all step before striping (0 when A2AReps is nil).
	A2ADemand int

	// AvoidWrap records Options.AvoidWrap.
	AvoidWrap bool
}

// CeilLogM returns ⌈log_m n⌉ for m ≥ 2, n ≥ 1: the smallest L with m^L ≥ n.
func CeilLogM(m, n int) int {
	if m < 2 || n < 1 {
		panic(fmt.Sprintf("core: CeilLogM(%d, %d)", m, n))
	}
	l := 0
	p := 1
	for p < n {
		// p*m can overflow for silly inputs; n is bounded by node counts.
		p *= m
		l++
	}
	return l
}

// MaxGroupSize returns the largest feasible m for w wavelengths: the tree
// step needs ⌊m/2⌋ ≤ w, so m ≤ 2w+1.
func MaxGroupSize(w int) int { return 2*w + 1 }

// planBuilds counts every BuildPlan invocation process-wide, including the
// optimizer's internal candidate builds (ChooseM issues one per feasible
// group size and policy). Benchmarks diff it to quantify what plan caching
// saves on wide sweeps.
var planBuilds atomic.Int64

// PlanBuildCount returns the process-wide number of BuildPlan invocations.
func PlanBuildCount() int64 { return planBuilds.Load() }

// BuildPlan constructs a Wrht plan for n nodes and w wavelengths.
func BuildPlan(n, w int, opts Options) (*Plan, error) {
	planBuilds.Add(1)
	if n < 2 {
		return nil, fmt.Errorf("core: need at least 2 nodes, got %d", n)
	}
	if w < 1 {
		return nil, fmt.Errorf("core: need at least 1 wavelength, got %d", w)
	}
	m := opts.M
	if m == 0 {
		best, err := ChooseM(n, w, opts)
		if err != nil {
			return nil, err
		}
		return best, nil
	}
	if m < 2 {
		return nil, fmt.Errorf("core: group size m=%d (need >= 2)", m)
	}
	if m/2 > w {
		return nil, fmt.Errorf("core: group size m=%d needs ⌊m/2⌋=%d wavelengths, budget is %d",
			m, m/2, w)
	}

	topo, err := ring.New(n)
	if err != nil {
		return nil, err
	}
	p := &Plan{
		N: n, W: w, M: m,
		Policy:    opts.Policy,
		Striping:  opts.Striping,
		AvoidWrap: opts.AvoidWrap,
		Topo:      topo,
	}

	reps := topo.AllNodes()
	for len(reps) > 1 {
		r := len(reps)
		a2aFeasible := wdm.LiangShenBound(r) <= w
		switch opts.Policy {
		case A2AGreedy:
			if a2aFeasible {
				p.A2AReps = reps
				p.A2ADemand = wdm.LiangShenBound(r)
				reps = nil
				continue
			}
		case A2AFormula:
			if r <= m && a2aFeasible {
				p.A2AReps = reps
				p.A2ADemand = wdm.LiangShenBound(r)
				reps = nil
				continue
			}
			// If r <= m but all-to-all is infeasible, fall through to one
			// more tree level, which reduces to a single root.
		default:
			return nil, fmt.Errorf("core: unknown policy %v", opts.Policy)
		}
		groups := ring.PartitionContiguous(reps, m)
		lvl := Level{Groups: groups}
		next := make([]int, 0, len(groups))
		for _, g := range groups {
			for _, mem := range g.Members {
				if mem == g.Rep {
					continue
				}
				if h := topo.Dist(mem, g.Rep, dirToward(mem, g.Rep)); h > lvl.MaxHops {
					lvl.MaxHops = h
				}
			}
			if d := len(g.Members) / 2; d > lvl.Demand {
				lvl.Demand = d
			}
			next = append(next, g.Rep)
		}
		p.ReduceLevels = append(p.ReduceLevels, lvl)
		reps = next
	}
	if p.A2AReps == nil {
		if len(reps) != 1 {
			return nil, fmt.Errorf("core: internal error: reduce ended with %d reps", len(reps))
		}
		p.Root = reps[0]
	}

	p.TreeStripe, p.A2AStripe = 1, 1
	if opts.Striping {
		maxDemand := 1
		for _, lvl := range p.ReduceLevels {
			if lvl.Demand > maxDemand {
				maxDemand = lvl.Demand
			}
		}
		if k := w / maxDemand; k > 1 {
			p.TreeStripe = k
		}
		if p.A2ADemand > 0 {
			if k := w / p.A2ADemand; k > 1 {
				p.A2AStripe = k
			}
		}
	}
	return p, nil
}

// dirToward returns the ring direction from a member to its representative
// inside a contiguous (non-wrapping) group: node ids within a group are
// ascending, so lower ids travel CW and higher ids travel CCW.
func dirToward(member, rep int) ring.Direction {
	if member < rep {
		return ring.CW
	}
	return ring.CCW
}

// NumSteps returns the total number of communication steps:
// len(ReduceLevels) tree steps + optional all-to-all + broadcast mirror.
func (p *Plan) NumSteps() int {
	steps := len(p.ReduceLevels) * 2 // reduce + broadcast mirrors
	if p.A2AReps != nil {
		steps++
	}
	return steps
}

// StepsUpperBound returns the paper's bound 2⌈log_m N⌉; the realized count
// NumSteps is that or one less.
func (p *Plan) StepsUpperBound() int { return 2 * CeilLogM(p.M, p.N) }

// WavelengthDemands returns the per-step wavelength usage (after striping)
// in execution order: reduce levels, optional all-to-all, broadcast levels.
func (p *Plan) WavelengthDemands() []int {
	stages := p.stages()
	out := make([]int, len(stages))
	for i, s := range stages {
		out[i] = p.demand(s)
	}
	return out
}

// PlanSig is a comparable value that fully determines a plan's schedule:
// two plans with equal signatures lower to identical schedules for any
// elems, whatever path built them (BuildPlan is deterministic in these
// fields — partitioning, representative choice, and all-to-all routing are
// pure functions of them). Cross-run schedule and simulation caches key on
// it so the optimizer's chosen plan and the same plan requested with an
// explicit group size share entries.
type PlanSig struct {
	N, W, M    int
	Policy     A2APolicy
	Striping   bool
	AvoidWrap  bool
	TreeStripe int
	A2AStripe  int
}

// Sig returns the plan's schedule-identity signature.
func (p *Plan) Sig() PlanSig {
	return PlanSig{
		N: p.N, W: p.W, M: p.M,
		Policy:     p.Policy,
		Striping:   p.Striping,
		AvoidWrap:  p.AvoidWrap,
		TreeStripe: p.TreeStripe,
		A2AStripe:  p.A2AStripe,
	}
}

// String summarizes the plan shape.
func (p *Plan) String() string {
	a2a := "none"
	if p.A2AReps != nil {
		a2a = fmt.Sprintf("%d reps (demand %d, stripe %d)", len(p.A2AReps), p.A2ADemand, p.A2AStripe)
	}
	return fmt.Sprintf("wrht{N=%d w=%d m=%d policy=%v levels=%d a2a=%s steps=%d stripe=%d}",
		p.N, p.W, p.M, p.Policy, len(p.ReduceLevels), a2a, p.NumSteps(), p.TreeStripe)
}
