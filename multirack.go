package wrht

import (
	"fmt"

	"wrht/internal/collective"
	"wrht/internal/model"
	"wrht/internal/multiring"
)

// MultiRackResult describes a hierarchical all-reduce over several optical
// rings joined by an electrical leader network.
type MultiRackResult struct {
	Racks, NodesPerRack int
	// Phase timings: Wrht reduce inside every rack (parallel), leader
	// all-reduce across racks, mirrored broadcast.
	IntraReduceSec    float64
	InterSec          float64
	IntraBroadcastSec float64
	TotalSec          float64
	// FlatERingSec is the flat electrical ring over all workers, for
	// comparison.
	FlatERingSec float64
}

// MultiRackTime prices a hierarchical all-reduce of `bytes` bytes over
// racks × nodesPerRack workers: per-rack Wrht on cfg.Optical rings, leaders
// all-reduced over cfg.Electrical. cfg.Nodes is ignored (the worker count is
// racks × nodesPerRack).
func MultiRackTime(cfg Config, racks, nodesPerRack int, bytes int64) (MultiRackResult, error) {
	return multiRackTime(cfg, racks, nodesPerRack, bytes, nil)
}

// multiRackTime is MultiRackTime planning through the session (RunSweep
// shares its memoized plan cache across multi-rack points).
func multiRackTime(cfg Config, racks, nodesPerRack int, bytes int64, sess *session) (MultiRackResult, error) {
	if err := cfg.Optical.Validate(); err != nil {
		return MultiRackResult{}, err
	}
	if err := cfg.Electrical.Validate(); err != nil {
		return MultiRackResult{}, err
	}
	if bytes <= 0 {
		return MultiRackResult{}, fmt.Errorf("wrht: non-positive buffer size %d", bytes)
	}
	bpe := cfg.BytesPerElem
	if bpe == 0 {
		bpe = 4
	}
	if bpe < 1 {
		// Same validation CommunicationTime applies (via Config.Validate);
		// only the zero value means "default", a negative width is an error,
		// not a silent negative element count.
		return MultiRackResult{}, fmt.Errorf("wrht: BytesPerElem %d", cfg.BytesPerElem)
	}
	plan, err := sess.rackPlan(cfg, racks, nodesPerRack)
	if err != nil {
		return MultiRackResult{}, err
	}
	elems := int((bytes + int64(bpe) - 1) / int64(bpe))
	tb, err := plan.Time(elems, bpe, cfg.Optical, cfg.Electrical)
	if err != nil {
		return MultiRackResult{}, err
	}
	return MultiRackResult{
		Racks: racks, NodesPerRack: nodesPerRack,
		IntraReduceSec:    tb.IntraReduceSec,
		InterSec:          tb.InterSec,
		IntraBroadcastSec: tb.IntraBroadcastSec,
		TotalSec:          tb.TotalSec(),
		FlatERingSec:      model.ERing(racks*nodesPerRack, int64(elems)*int64(bpe), cfg.Electrical),
	}, nil
}

// VerifyMultiRack executes the composed hierarchical schedule on real
// buffers and confirms every worker ends with the exact global sum. It
// verifies the plan MultiRackTime prices for the same configuration.
func VerifyMultiRack(cfg Config, racks, nodesPerRack, elems int) error {
	return verifyMultiRack(cfg, racks, nodesPerRack, elems, nil)
}

// verifyMultiRack is VerifyMultiRack planning through the session, so a
// verification shares the plan-cache entry of the pricing it checks.
func verifyMultiRack(cfg Config, racks, nodesPerRack, elems int, sess *session) error {
	plan, err := sess.rackPlan(cfg, racks, nodesPerRack)
	if err != nil {
		return err
	}
	s, err := plan.GlobalSchedule(elems)
	if err != nil {
		return err
	}
	return collective.VerifyAllReduce(s)
}

// rackPlan lowers cfg to the hierarchy over racks × nodesPerRack workers:
// the per-rack ring is planned like every other Wrht plan (buildPlan, at
// Nodes = nodesPerRack), so WrhtGroupSize and WrhtGreedyA2A reach it.
func (s *session) rackPlan(cfg Config, racks, nodesPerRack int) (*multiring.Plan, error) {
	// The shape is checked before planning, so a bad rack count never
	// touches the plan cache.
	if racks < 2 {
		return nil, fmt.Errorf("multiring: need >= 2 racks, got %d", racks)
	}
	if nodesPerRack < 2 {
		return nil, fmt.Errorf("multiring: need >= 2 nodes per rack, got %d", nodesPerRack)
	}
	cfg.Nodes = nodesPerRack
	intra, err := s.buildPlan(cfg, AlgWrht)
	if err != nil {
		return nil, err
	}
	return multiring.BuildPlan(racks, intra), nil
}
