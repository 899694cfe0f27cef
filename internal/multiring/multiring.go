// Package multiring scales Wrht beyond a single optical ring — the natural
// deployment question TeraRack-style racks raise: K racks of R nodes each,
// every rack an independent WDM ring, racks joined by an electrical leader
// network. The hierarchical all-reduce runs Wrht's reduce stage inside every
// rack in parallel, gathers each rack's partial at a leader, all-reduces the
// K leaders across racks, and mirrors the broadcast back down.
//
// The composed global schedule is verified by the same data-level oracle as
// every other algorithm; timing composes the per-phase substrate costs
// (intra phases run in parallel across racks on their own rings).
package multiring

import (
	"fmt"

	"wrht/internal/collective"
	"wrht/internal/core"
	"wrht/internal/electrical"
	"wrht/internal/optical"
	"wrht/internal/runner"
	"wrht/internal/tensor"
)

// Plan is a hierarchical all-reduce plan over Racks × NodesPerRack workers.
type Plan struct {
	Racks, NodesPerRack int
	// Intra is the per-rack Wrht plan (identical across racks).
	Intra *core.Plan
	// LeaderLocal is the local id of each rack's leader (the first final
	// representative of the intra plan).
	LeaderLocal int
}

// PlanBuilder mirrors core.BuildPlan's signature so sweeps can inject a
// shared memoized plan cache for the intra-rack plan.
type PlanBuilder func(n, w int, opts core.Options) (*core.Plan, error)

// BuildPlan constructs the hierarchy: a Wrht plan per rack plus leader
// selection. wavelengths is the per-rack WDM budget.
func BuildPlan(racks, nodesPerRack, wavelengths int, opts core.Options) (*Plan, error) {
	return BuildPlanWith(racks, nodesPerRack, wavelengths, opts, core.BuildPlan)
}

// BuildPlanWith is BuildPlan with an injectable intra-rack plan builder.
func BuildPlanWith(racks, nodesPerRack, wavelengths int, opts core.Options, build PlanBuilder) (*Plan, error) {
	if racks < 2 {
		return nil, fmt.Errorf("multiring: need >= 2 racks, got %d", racks)
	}
	if nodesPerRack < 2 {
		return nil, fmt.Errorf("multiring: need >= 2 nodes per rack, got %d", nodesPerRack)
	}
	intra, err := build(nodesPerRack, wavelengths, opts)
	if err != nil {
		return nil, err
	}
	leader := intra.Root
	if intra.A2AReps != nil {
		leader = intra.A2AReps[0]
	}
	return &Plan{
		Racks: racks, NodesPerRack: nodesPerRack,
		Intra:       intra,
		LeaderLocal: leader,
	}, nil
}

// Nodes returns the total worker count.
func (p *Plan) Nodes() int { return p.Racks * p.NodesPerRack }

// global maps a rack-local node id to the global id.
func (p *Plan) global(rack, local int) int { return rack*p.NodesPerRack + local }

// intraReduceSteps returns the per-rack reduce steps on local ids: the Wrht
// tree levels, then (when the intra plan ends in an all-to-all) a gather of
// the other final representatives into the leader.
func (p *Plan) intraReduceSteps(elems int) []collective.Step {
	full := tensor.Region{Offset: 0, Len: elems}
	var steps []collective.Step
	for li, lvl := range p.Intra.ReduceLevels {
		st := collective.Step{Label: fmt.Sprintf("rack reduce level %d", li+1)}
		for _, g := range lvl.Groups {
			for _, mem := range g.Members {
				if mem == g.Rep {
					continue
				}
				st.Transfers = append(st.Transfers, collective.Transfer{
					Src: mem, Dst: g.Rep, Region: full,
					Op:    collective.OpReduce,
					Width: p.Intra.TreeStripe,
				})
			}
		}
		steps = append(steps, st)
	}
	if p.Intra.A2AReps != nil && len(p.Intra.A2AReps) > 1 {
		st := collective.Step{Label: "rack gather to leader"}
		for _, rep := range p.Intra.A2AReps {
			if rep == p.LeaderLocal {
				continue
			}
			st.Transfers = append(st.Transfers, collective.Transfer{
				Src: rep, Dst: p.LeaderLocal, Region: full,
				Op:    collective.OpReduce,
				Width: p.Intra.TreeStripe,
			})
		}
		steps = append(steps, st)
	}
	return steps
}

// intraBroadcastSteps mirrors intraReduceSteps: leader scatter to the other
// representatives, then the tree broadcast.
func (p *Plan) intraBroadcastSteps(elems int) []collective.Step {
	full := tensor.Region{Offset: 0, Len: elems}
	var steps []collective.Step
	if p.Intra.A2AReps != nil && len(p.Intra.A2AReps) > 1 {
		st := collective.Step{Label: "rack scatter from leader"}
		for _, rep := range p.Intra.A2AReps {
			if rep == p.LeaderLocal {
				continue
			}
			st.Transfers = append(st.Transfers, collective.Transfer{
				Src: p.LeaderLocal, Dst: rep, Region: full,
				Op:    collective.OpCopy,
				Width: p.Intra.TreeStripe,
			})
		}
		steps = append(steps, st)
	}
	for li := len(p.Intra.ReduceLevels) - 1; li >= 0; li-- {
		st := collective.Step{Label: fmt.Sprintf("rack broadcast level %d", li+1)}
		for _, g := range p.Intra.ReduceLevels[li].Groups {
			for _, mem := range g.Members {
				if mem == g.Rep {
					continue
				}
				st.Transfers = append(st.Transfers, collective.Transfer{
					Src: g.Rep, Dst: mem, Region: full,
					Op:    collective.OpCopy,
					Width: p.Intra.TreeStripe,
				})
			}
		}
		steps = append(steps, st)
	}
	return steps
}

// remapSteps shifts a rack-local step list to global ids for every rack and
// merges racks step-by-step (racks run in lockstep, each on its own ring).
func (p *Plan) remapSteps(local []collective.Step) []collective.Step {
	out := make([]collective.Step, len(local))
	for si, st := range local {
		g := collective.Step{Label: st.Label}
		for rack := 0; rack < p.Racks; rack++ {
			for _, tr := range st.Transfers {
				tr.Src = p.global(rack, tr.Src)
				tr.Dst = p.global(rack, tr.Dst)
				g.Transfers = append(g.Transfers, tr)
			}
		}
		out[si] = g
	}
	return out
}

// InterSchedule builds the leader all-reduce on K logical nodes (ring
// all-reduce — bandwidth optimal on the electrical leader network).
func (p *Plan) InterSchedule(elems int) (*collective.Schedule, error) {
	return collective.RingAllReduce(p.Racks, elems)
}

// GlobalSchedule composes the full hierarchy on Racks·NodesPerRack global
// node ids, for data-level verification.
func (p *Plan) GlobalSchedule(elems int) (*collective.Schedule, error) {
	if elems < 0 {
		return nil, fmt.Errorf("multiring: negative elems %d", elems)
	}
	s := &collective.Schedule{
		Algorithm: fmt.Sprintf("multiring-wrht(%dx%d)", p.Racks, p.NodesPerRack),
		N:         p.Nodes(),
		Elems:     elems,
	}
	s.Steps = append(s.Steps, p.remapSteps(p.intraReduceSteps(elems))...)

	inter, err := p.InterSchedule(elems)
	if err != nil {
		return nil, err
	}
	for _, st := range inter.Steps {
		g := collective.Step{Label: "inter-rack " + st.Label}
		for _, tr := range st.Transfers {
			tr.Src = p.global(tr.Src, p.LeaderLocal)
			tr.Dst = p.global(tr.Dst, p.LeaderLocal)
			tr.Routed = false
			g.Transfers = append(g.Transfers, tr)
		}
		s.Steps = append(s.Steps, g)
	}

	s.Steps = append(s.Steps, p.remapSteps(p.intraBroadcastSteps(elems))...)
	return s, nil
}

// TimeBreakdown is the per-phase cost of the hierarchical all-reduce.
type TimeBreakdown struct {
	IntraReduceSec    float64
	InterSec          float64
	IntraBroadcastSec float64
}

// TotalSec sums the phases.
func (t TimeBreakdown) TotalSec() float64 {
	return t.IntraReduceSec + t.InterSec + t.IntraBroadcastSec
}

// Time prices the hierarchy for elems elements of bytesPerElem bytes each:
// the intra phases run on one rack's ring (all racks in parallel), the
// inter phase on an electrical cluster of K leader uplinks.
func (p *Plan) Time(elems, bytesPerElem int, op optical.Params, ep electrical.Params) (TimeBreakdown, error) {
	optOpts := runner.DefaultOpticalOptions()
	optOpts.Params = op
	optOpts.BytesPerElem = bytesPerElem
	intra := func(algorithm string, steps []collective.Step) (float64, error) {
		cls := (&collective.Schedule{Algorithm: algorithm, N: p.NodesPerRack, Elems: elems, Steps: steps}).Classes()
		defer cls.Release()
		r, err := runner.RunOpticalClassedObserved(cls, optOpts, nil, "")
		return r.TotalSec, err
	}
	var out TimeBreakdown
	var err error
	if out.IntraReduceSec, err = intra("intra-reduce", p.intraReduceSteps(elems)); err != nil {
		return out, err
	}
	if out.IntraBroadcastSec, err = intra("intra-broadcast", p.intraBroadcastSteps(elems)); err != nil {
		return out, err
	}
	s, err := p.InterSchedule(elems)
	if err != nil {
		return out, err
	}
	inter := s.Classes()
	defer inter.Release()
	r, err := runner.RunElectricalClassedObserved(inter, runner.ElectricalOptions{Params: ep, BytesPerElem: bytesPerElem}, nil, "")
	if err != nil {
		return out, err
	}
	out.InterSec = r.TotalSec
	return out, nil
}
