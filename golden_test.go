package wrht

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"wrht/internal/collective"
	"wrht/internal/core"
	"wrht/internal/model"
	"wrht/internal/multiring"
	"wrht/internal/opticalsim"
	"wrht/internal/ring"
	"wrht/internal/runner"
	"wrht/internal/wdm"
)

// buildSchedule constructs the boxed schedule for alg — the form the
// reference oracles price and verify.
func buildSchedule(cfg Config, alg Algorithm, elems int) (*collective.Schedule, error) {
	switch alg {
	case AlgERing, AlgORing, AlgORingStriped:
		return collective.RingAllReduce(cfg.Nodes, elems)
	case AlgRD:
		return collective.RecursiveDoubling(cfg.Nodes, elems)
	case AlgHD:
		return collective.HalvingDoubling(cfg.Nodes, elems)
	case AlgBinomial:
		return collective.BinomialTree(cfg.Nodes, elems)
	case AlgWrht, AlgWrhtUnstriped, AlgWrhtPipelined:
		plan, err := core.BuildPlan(cfg.Nodes, cfg.Optical.Wavelengths, wrhtOptions(cfg, alg))
		if err != nil {
			return nil, err
		}
		if alg == AlgWrhtPipelined {
			return plan.PipelinedSchedule(elems, pipelineChunks(cfg))
		}
		return plan.Schedule(elems)
	default:
		return nil, fmt.Errorf("wrht: unknown algorithm %q", alg)
	}
}

// referenceCommunicationTime is the historical pricing path — boxed schedule
// through runner.RunOptical/RunElectrical — kept verbatim as the old-path
// oracle the classed fast path must match bit for bit.
func referenceCommunicationTime(cfg Config, alg Algorithm, bytes int64) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	elems := int((bytes + int64(cfg.BytesPerElem) - 1) / int64(cfg.BytesPerElem))
	s, err := buildSchedule(cfg, alg, elems)
	if err != nil {
		return Result{}, err
	}
	out := Result{Algorithm: alg, Steps: s.NumSteps()}
	if isElectrical(alg) {
		res, err := runner.RunElectrical(s, runner.ElectricalOptions{
			Params:       cfg.Electrical,
			BytesPerElem: cfg.BytesPerElem,
		})
		if err != nil {
			return Result{}, err
		}
		out.Substrate = res.Substrate
		out.Seconds = res.TotalSec
		return out, nil
	}
	opts := runner.DefaultOpticalOptions()
	opts.Params = cfg.Optical
	opts.BytesPerElem = cfg.BytesPerElem
	opts.Assigner = wdm.FirstFit
	if alg == AlgORingStriped {
		opts.DefaultWidth = cfg.Optical.Wavelengths
	}
	res, err := runner.RunOptical(s, opts)
	if err != nil {
		return Result{}, err
	}
	out.Substrate = res.Substrate
	out.Seconds = res.TotalSec
	out.MaxWavelengths = res.MaxWavelengths
	return out, nil
}

// goldenConfigs is a miniature of the Figure-2 grid plus the canonical
// report axes (group sizes, wavelength budgets) at test-friendly scales.
func goldenConfigs() []Config {
	var out []Config
	for _, n := range []int{16, 24, 32} {
		for _, w := range []int{8, 64} {
			cfg := DefaultConfig(n)
			cfg.Optical.Wavelengths = w
			out = append(out, cfg)
		}
	}
	gs := DefaultConfig(24)
	gs.WrhtGroupSize = 3
	out = append(out, gs)
	greedy := DefaultConfig(24)
	greedy.WrhtGreedyA2A = true
	out = append(out, greedy)
	return out
}

// TestCommunicationTimeGoldenEquality: every priced number out of the
// compact, pooled, memoized fast path is bit-identical to the historical
// boxed path, across the canonical grid axes and every algorithm.
func TestCommunicationTimeGoldenEquality(t *testing.T) {
	const bytes = 3 << 20
	for _, cfg := range goldenConfigs() {
		for _, alg := range Algorithms() {
			want, refErr := referenceCommunicationTime(cfg, alg, bytes)
			got, newErr := CommunicationTime(cfg, alg, bytes)
			if (refErr == nil) != (newErr == nil) {
				t.Fatalf("n=%d w=%d %s: error divergence: ref=%v new=%v",
					cfg.Nodes, cfg.Optical.Wavelengths, alg, refErr, newErr)
			}
			if refErr != nil {
				continue
			}
			// The reference does not recompute PredictedSeconds (it is not a
			// simulate-path output); compare the simulated fields bit-exactly.
			got.PredictedSeconds = 0
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("n=%d w=%d %s: fast path diverges\n got %+v\nwant %+v",
					cfg.Nodes, cfg.Optical.Wavelengths, alg, got, want)
			}
		}
	}
}

// TestSessionReuseGoldenEquality: pricing through a shared SweepSession —
// caches warm, schedules and simulations served from memory — returns
// bit-identical results to fresh uncached calls, in any order.
func TestSessionReuseGoldenEquality(t *testing.T) {
	sess := NewSweepSession()
	cfg := DefaultConfig(24)
	const bytes = 1 << 20
	for round := 0; round < 3; round++ {
		for _, alg := range Algorithms() {
			fresh, err := CommunicationTime(cfg, alg, bytes)
			if err != nil {
				t.Fatal(err)
			}
			cached, err := sess.CommunicationTime(cfg, alg, bytes)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(fresh, cached) {
				t.Fatalf("round %d %s: session result diverges", round, alg)
			}
		}
	}
	st := sess.Stats()
	if st.SimulationRuns == 0 || st.SimulationHits == 0 {
		t.Fatalf("session caches idle: %+v", st)
	}
	// Rounds 2 and 3 must be pure cache hits: no new simulations.
	if st.SimulationRuns > int64(len(Algorithms())) {
		t.Fatalf("repeat rounds re-simulated: %+v", st)
	}
}

// TestSimulateFabricGoldenEquality: the session-backed fabric path equals
// the one-shot path, and repeated session use stays bit-stable.
func TestSimulateFabricGoldenEquality(t *testing.T) {
	cfg := DefaultConfig(16)
	cfg.Optical.Wavelengths = 16
	jobs := []JobSpec{
		{Name: "a", Bytes: 1 << 20, Priority: 2, MaxWavelengths: 8},
		{Name: "b", Bytes: 2 << 20, ArrivalSec: 1e-4},
		{Name: "c", Bytes: 1 << 19, Algorithm: AlgORing},
	}
	sess := NewSweepSession()
	for _, pol := range FabricPolicies() {
		want, err := SimulateFabric(cfg, jobs, pol)
		if err != nil {
			t.Fatal(err)
		}
		for round := 0; round < 2; round++ {
			got, err := sess.SimulateFabric(cfg, jobs, pol)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("policy %s round %d: session fabric result diverges", pol, round)
			}
		}
	}
}

// TestSweepSessionRunSweepGoldenEquality: a sweep through a warm shared
// session equals a fresh RunSweep cell for cell.
func TestSweepSessionRunSweepGoldenEquality(t *testing.T) {
	spec := sweepTestSpec()
	fresh, err := RunSweep(spec)
	if err != nil {
		t.Fatal(err)
	}
	sess := NewSweepSession()
	for round := 0; round < 2; round++ {
		got, err := sess.RunSweep(spec)
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Cells) != len(fresh.Cells) {
			t.Fatalf("cell count diverges: %d vs %d", len(got.Cells), len(fresh.Cells))
		}
		for i := range got.Cells {
			g, w := got.Cells[i], fresh.Cells[i]
			// Errors carry distinct instances; compare text.
			if (g.Err == nil) != (w.Err == nil) {
				t.Fatalf("cell %d error divergence", i)
			}
			if g.Err != nil {
				if g.Err.Error() != w.Err.Error() {
					t.Fatalf("cell %d error text diverges", i)
				}
				continue
			}
			g.Err, w.Err = nil, nil
			if !reflect.DeepEqual(g, w) {
				t.Fatalf("cell %d diverges between fresh and warm-session sweeps", i)
			}
		}
	}
}

// referenceScheduleOutline is ScheduleOutline on the boxed schedule through
// runner.RunOptical — the oracle the classed outline must match field for
// field.
func referenceScheduleOutline(cfg Config, alg Algorithm, bytes int64) ([]StepOutline, error) {
	elems := int((bytes + int64(cfg.BytesPerElem) - 1) / int64(cfg.BytesPerElem))
	s, err := buildSchedule(cfg, alg, elems)
	if err != nil {
		return nil, err
	}
	topo, err := ring.New(cfg.Nodes)
	if err != nil {
		return nil, err
	}
	opts := runner.DefaultOpticalOptions()
	opts.Params = cfg.Optical
	opts.BytesPerElem = cfg.BytesPerElem
	if alg == AlgORingStriped {
		opts.DefaultWidth = cfg.Optical.Wavelengths
	}
	res, err := runner.RunOptical(s, opts)
	if err != nil {
		return nil, err
	}
	out := make([]StepOutline, 0, len(s.Steps))
	for si, st := range s.Steps {
		o := StepOutline{Index: si + 1, Label: st.Label, Transfers: len(st.Transfers), Seconds: res.StepSec[si]}
		var demands []wdm.Demand
		for _, tr := range st.Transfers {
			if tr.Region.Len == 0 {
				continue
			}
			arc := ring.Arc{Src: tr.Src, Dst: tr.Dst, Dir: tr.Dir}
			if !tr.Routed {
				arc = topo.ShortestArc(tr.Src, tr.Dst)
			}
			width := tr.Width
			if width < 1 {
				width = opts.DefaultWidth
			}
			if width > cfg.Optical.Wavelengths {
				width = cfg.Optical.Wavelengths
			}
			demands = append(demands, wdm.Demand{Arc: arc, Width: width})
			if len(o.Arcs) < 64 {
				o.Arcs = append(o.Arcs, fmt.Sprintf("%d->%d[x%d]", tr.Src, tr.Dst, width))
			}
		}
		if len(demands) > 0 {
			rounds, err := wdm.Rounds(topo, demands, cfg.Optical.Wavelengths, wdm.FirstFit, wdm.AsGiven)
			if err != nil {
				return nil, err
			}
			for _, rd := range rounds {
				o.Wavelengths = max(o.Wavelengths, rd.Assignment.NumColors)
			}
		}
		out = append(out, o)
	}
	return out, nil
}

// TestScheduleOutlineGoldenEquality: every outline field — labels, transfer
// counts, arcs, wavelength counts, per-step seconds — is bit-identical to
// the boxed reference across the golden grid and every algorithm.
func TestScheduleOutlineGoldenEquality(t *testing.T) {
	const bytes = 3 << 20
	for _, cfg := range goldenConfigs() {
		for _, alg := range Algorithms() {
			want, refErr := referenceScheduleOutline(cfg, alg, bytes)
			got, newErr := ScheduleOutline(cfg, alg, bytes)
			if (refErr == nil) != (newErr == nil) {
				t.Fatalf("n=%d w=%d %s: error divergence: ref=%v new=%v",
					cfg.Nodes, cfg.Optical.Wavelengths, alg, refErr, newErr)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("n=%d w=%d %s: outline diverges\n got %+v\nwant %+v",
					cfg.Nodes, cfg.Optical.Wavelengths, alg, got, want)
			}
		}
	}
}

// referenceEventLevelTime runs the message-level simulator on the boxed
// schedule's own lowering (its compact fingerprint) rather than on the
// schedule production builds — the oracle for EventLevelTime.
func referenceEventLevelTime(cfg Config, alg Algorithm, bytes int64, async bool) (Result, error) {
	elems := int((bytes + int64(cfg.BytesPerElem) - 1) / int64(cfg.BytesPerElem))
	s, err := buildSchedule(cfg, alg, elems)
	if err != nil {
		return Result{}, err
	}
	opts := opticalsim.DefaultOptions()
	opts.Params = cfg.Optical
	opts.BytesPerElem = cfg.BytesPerElem
	if alg == AlgORingStriped {
		opts.DefaultWidth = cfg.Optical.Wavelengths
	}
	if async {
		opts.Mode = opticalsim.Async
	}
	cls := s.Classes()
	defer cls.Release()
	r, err := opticalsim.Run(cls, opts)
	if err != nil {
		return Result{}, err
	}
	return Result{
		Algorithm: alg,
		Substrate: fmt.Sprintf("optical-ring(w=%d,%s)", cfg.Optical.Wavelengths, r.Mode),
		Seconds:   r.TotalSec,
		Steps:     s.NumSteps(),
	}, nil
}

// TestEventLevelTimeGoldenEquality: the event-level simulator, in barrier
// and async modes, returns bit-identical results to the boxed reference for
// every optical algorithm across the golden grid.
func TestEventLevelTimeGoldenEquality(t *testing.T) {
	const bytes = 1 << 20
	for _, cfg := range goldenConfigs() {
		for _, alg := range Algorithms() {
			if isElectrical(alg) {
				continue
			}
			for _, async := range []bool{false, true} {
				want, refErr := referenceEventLevelTime(cfg, alg, bytes, async)
				got, newErr := EventLevelTime(cfg, alg, bytes, async)
				if (refErr == nil) != (newErr == nil) {
					t.Fatalf("n=%d w=%d %s async=%v: error divergence: ref=%v new=%v",
						cfg.Nodes, cfg.Optical.Wavelengths, alg, async, refErr, newErr)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("n=%d w=%d %s async=%v: event-level result diverges\n got %+v\nwant %+v",
						cfg.Nodes, cfg.Optical.Wavelengths, alg, async, got, want)
				}
			}
		}
	}
}

// referenceMultiRackTime prices the hierarchy's phases as boxed schedules
// through runner.RunOptical/RunElectrical. The rack-local phases are cut
// from the verified global schedule: rack 0's transfers of every step
// before the inter-rack steps form the reduce phase, those after form the
// broadcast phase.
func referenceMultiRackTime(cfg Config, racks, perRack int, bytes int64) (MultiRackResult, error) {
	opts := core.DefaultOptions()
	opts.Cost = model.CostParamsOf(cfg.Optical)
	opts.M = cfg.WrhtGroupSize
	if cfg.WrhtGreedyA2A {
		opts.Policy = core.A2AGreedy
	}
	plan, err := multiring.BuildPlan(racks, perRack, cfg.Optical.Wavelengths, opts)
	if err != nil {
		return MultiRackResult{}, err
	}
	elems := int((bytes + int64(cfg.BytesPerElem) - 1) / int64(cfg.BytesPerElem))
	global, err := plan.GlobalSchedule(elems)
	if err != nil {
		return MultiRackResult{}, err
	}
	reduce := &collective.Schedule{Algorithm: "intra-reduce", N: perRack, Elems: elems}
	bcast := &collective.Schedule{Algorithm: "intra-broadcast", N: perRack, Elems: elems}
	phase := reduce
	for _, st := range global.Steps {
		if strings.HasPrefix(st.Label, "inter-rack ") {
			phase = bcast
			continue
		}
		local := collective.Step{Label: st.Label}
		for _, tr := range st.Transfers {
			if tr.Src < perRack {
				local.Transfers = append(local.Transfers, tr)
			}
		}
		phase.Steps = append(phase.Steps, local)
	}
	optOpts := runner.DefaultOpticalOptions()
	optOpts.Params = cfg.Optical
	optOpts.BytesPerElem = cfg.BytesPerElem
	r1, err := runner.RunOptical(reduce, optOpts)
	if err != nil {
		return MultiRackResult{}, err
	}
	r3, err := runner.RunOptical(bcast, optOpts)
	if err != nil {
		return MultiRackResult{}, err
	}
	inter, err := plan.InterSchedule(elems)
	if err != nil {
		return MultiRackResult{}, err
	}
	r2, err := runner.RunElectrical(inter, runner.ElectricalOptions{Params: cfg.Electrical, BytesPerElem: cfg.BytesPerElem})
	if err != nil {
		return MultiRackResult{}, err
	}
	return MultiRackResult{
		Racks: racks, NodesPerRack: perRack,
		IntraReduceSec:    r1.TotalSec,
		InterSec:          r2.TotalSec,
		IntraBroadcastSec: r3.TotalSec,
		TotalSec:          r1.TotalSec + r2.TotalSec + r3.TotalSec,
		FlatERingSec:      model.ERing(racks*perRack, int64(elems)*int64(cfg.BytesPerElem), cfg.Electrical),
	}, nil
}

// TestMultiRackTimeGoldenEquality: every phase of the hierarchical pricing
// is bit-identical to the boxed reference at 4 B/elem, over the golden grid
// split into 2 and 4 racks.
func TestMultiRackTimeGoldenEquality(t *testing.T) {
	const bytes = 3 << 20
	for _, cfg := range goldenConfigs() {
		if cfg.BytesPerElem != 4 {
			t.Fatalf("golden config prices %d B/elem, want 4", cfg.BytesPerElem)
		}
		for _, racks := range []int{2, 4} {
			want, refErr := referenceMultiRackTime(cfg, racks, cfg.Nodes/racks, bytes)
			got, newErr := MultiRackTime(cfg, racks, cfg.Nodes/racks, bytes)
			if (refErr == nil) != (newErr == nil) {
				t.Fatalf("%dx%d w=%d: error divergence: ref=%v new=%v",
					racks, cfg.Nodes/racks, cfg.Optical.Wavelengths, refErr, newErr)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%dx%d w=%d: multi-rack result diverges\n got %+v\nwant %+v",
					racks, cfg.Nodes/racks, cfg.Optical.Wavelengths, got, want)
			}
		}
	}
}

// TestVerifyAlgorithmGoldenEquality: VerifyAlgorithm agrees with verifying
// the boxed reference schedule, and the schedule production prices expands
// to exactly that boxed schedule, so verification covers the priced form.
func TestVerifyAlgorithmGoldenEquality(t *testing.T) {
	const elems = 64
	for _, cfg := range goldenConfigs() {
		for _, alg := range Algorithms() {
			boxed, err := buildSchedule(cfg, alg, elems)
			if err != nil {
				t.Fatal(err)
			}
			want := collective.VerifyAllReduce(boxed)
			if got := VerifyAlgorithm(cfg, alg, elems); (got == nil) != (want == nil) {
				t.Fatalf("n=%d w=%d %s: verify divergence: got %v want %v",
					cfg.Nodes, cfg.Optical.Wavelengths, alg, got, want)
			}
			cls, _, _, err := buildClassSchedule(cfg, alg, elems, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(normalizeSteps(cls.Expand()), normalizeSteps(boxed)) {
				t.Fatalf("n=%d w=%d %s: priced schedule diverges from the boxed reference",
					cfg.Nodes, cfg.Optical.Wavelengths, alg)
			}
			cls.Release()
		}
	}
}

// normalizeSteps maps empty transfer slices to nil (Expand reconstructs
// empty steps as nil).
func normalizeSteps(s *collective.Schedule) *collective.Schedule {
	for i := range s.Steps {
		if len(s.Steps[i].Transfers) == 0 {
			s.Steps[i].Transfers = nil
		}
	}
	return s
}
