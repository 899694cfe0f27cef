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

// BuildPlan assembles the hierarchy from the per-rack Wrht plan the caller
// built (intra.N is the rack size): racks copies of intra, each rack led by
// the intra plan's first final representative. The caller owns the shape
// rule (racks >= 2, checked before it plans the rack ring).
func BuildPlan(racks int, intra *core.Plan) *Plan {
	leader := intra.Root
	if intra.A2AReps != nil {
		leader = intra.A2AReps[0]
	}
	return &Plan{
		Racks: racks, NodesPerRack: intra.N,
		Intra:       intra,
		LeaderLocal: leader,
	}
}

// Nodes returns the total worker count.
func (p *Plan) Nodes() int { return p.Racks * p.NodesPerRack }

// global maps a rack-local node id to the global id.
func (p *Plan) global(rack, local int) int { return rack*p.NodesPerRack + local }

// intraSteps returns the per-rack phases on local ids. The reduce phase is
// the intra plan's tree reduce levels, then (when the intra plan ends in an
// all-to-all) a gather of the other final representatives into the leader;
// the broadcast phase mirrors it: the leader's scatter, then the tree
// broadcast levels. The tree steps are the intra plan's own first and last
// len(ReduceLevels) steps, relabelled and unpinned (each transfer takes its
// shortest arc).
func (p *Plan) intraSteps(elems int) (reduce, broadcast []collective.Step, err error) {
	s, err := p.Intra.Schedule(elems)
	if err != nil {
		return nil, nil, err
	}
	for i := range s.Steps {
		st := &s.Steps[i]
		st.Label = "rack " + st.Label
		for j := range st.Transfers {
			st.Transfers[j].Routed = false
			st.Transfers[j].Dir = 0
		}
	}
	levels := len(p.Intra.ReduceLevels)
	reduce, broadcast = s.Steps[:levels:levels], s.Steps[len(s.Steps)-levels:]
	if len(p.Intra.A2AReps) > 1 {
		gather := collective.Step{Label: "rack gather to leader"}
		scatter := collective.Step{Label: "rack scatter from leader"}
		for _, rep := range p.Intra.A2AReps {
			if rep == p.LeaderLocal {
				continue
			}
			tr := collective.Transfer{
				Src: rep, Dst: p.LeaderLocal, Region: tensor.Region{Len: elems},
				Op:    collective.OpReduce,
				Width: p.Intra.TreeStripe,
			}
			gather.Transfers = append(gather.Transfers, tr)
			tr.Src, tr.Dst, tr.Op = p.LeaderLocal, rep, collective.OpCopy
			scatter.Transfers = append(scatter.Transfers, tr)
		}
		reduce = append(reduce, gather)
		broadcast = append([]collective.Step{scatter}, broadcast...)
	}
	return reduce, broadcast, nil
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
	reduce, broadcast, err := p.intraSteps(elems)
	if err != nil {
		return nil, err
	}
	s.Steps = append(s.Steps, p.remapSteps(reduce)...)

	// The leader all-reduce on K logical nodes is a ring all-reduce
	// (bandwidth optimal on the electrical leader network).
	inter, err := collective.RingAllReduce(p.Racks, elems)
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

	s.Steps = append(s.Steps, p.remapSteps(broadcast)...)
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
	reduce, broadcast, err := p.intraSteps(elems)
	if err != nil {
		return out, err
	}
	if out.IntraReduceSec, err = intra("intra-reduce", reduce); err != nil {
		return out, err
	}
	if out.IntraBroadcastSec, err = intra("intra-broadcast", broadcast); err != nil {
		return out, err
	}
	inter, err := collective.RingAllReduceClassed(p.Racks, elems)
	if err != nil {
		return out, err
	}
	defer inter.Release()
	r, err := runner.RunElectricalClassedObserved(inter, runner.ElectricalOptions{Params: ep, BytesPerElem: bytesPerElem}, nil, "")
	if err != nil {
		return out, err
	}
	out.InterSec = r.TotalSec
	return out, nil
}
