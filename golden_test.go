package wrht

import (
	"fmt"
	"hash/fnv"
	"math/rand"
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
// classed, pooled, memoized fast path is bit-identical to the historical
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
			rounds, err := wdm.NewWorkspace(topo).RoundsReused(demands, cfg.Optical.Wavelengths, wdm.FirstFit, wdm.AsGiven)
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
// schedule's own lowering (its class fingerprint) rather than on the
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
	intra, err := core.BuildPlan(perRack, cfg.Optical.Wavelengths, opts)
	if err != nil {
		return MultiRackResult{}, err
	}
	plan := multiring.BuildPlan(racks, intra)
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
	inter, err := collective.RingAllReduce(racks, elems)
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

// digestFleetFabrics, digestFleetShapes and digestFleetTrace mirror the
// canonical F4 churn scenario (report.FleetChurnFabrics, FleetChurnShapes
// and FleetChurnTrace), cut to 1,000 jobs. They are spelled out here
// because the report package imports this one.
func digestFleetFabrics() []FleetFabricSpec {
	return []FleetFabricSpec{
		{Name: "pod-a", Nodes: 32, Wavelengths: 16, ReconfigDelaySec: 2e-6, MigrationCostSec: 20e-3},
		{Name: "pod-b", Nodes: 32, Wavelengths: 16, ReconfigDelaySec: 2e-6, MigrationCostSec: 20e-3},
		{Name: "pod-c", Nodes: 16, Wavelengths: 8, ReconfigDelaySec: 5e-6, MigrationCostSec: 10e-3},
		{Name: "edge", Nodes: 16, Wavelengths: 4, ReconfigDelaySec: 10e-6, MigrationCostSec: 5e-3},
	}
}

func digestFleetShapes() []FleetShape {
	return []FleetShape{{Model: "AlexNet"}, {Model: "ResNet50"}, {Model: "VGG16"}}
}

func digestFleetTrace(t *testing.T, seed int64) []FleetJob {
	jobs, err := GenerateFleetTrace(FleetTraceSpec{
		Kind: "heavy-tail", Jobs: 1000, Seed: seed, MeanGapSec: 40e-3,
		NumShapes: 3, NumFabrics: 4, MaxWidth: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range jobs {
		jobs[i].CheckpointEverySec = 50e-3
	}
	return jobs
}

// digestFleetPlan is report.FleetRecoveryPlan(1): wavelength darkening, job
// crashes and whole-fabric outages over the trace's arrival span.
func digestFleetPlan() FaultPlan {
	return FaultPlan{
		Seed: 5, HorizonSec: 60,
		WavelengthMTBFSec: 40, WavelengthMTTRSec: 1.5,
		JobFaultMTBFSec: 25,
		FabricMTBFSec:   90, FabricMTTRSec: 8,
	}
}

// digestFabricMixes are two single-fabric tenant mixes: a churn burst with
// a late uncapped straggler, and a prioritized mix with width floors,
// caps and checkpoints.
func digestFabricMixes() map[string][]JobSpec {
	var churn []JobSpec
	for i := 0; i < 8; i++ {
		churn = append(churn, JobSpec{
			Name: fmt.Sprintf("burst%d", i), Bytes: int64(1+i%3) << 20,
			ArrivalSec: float64(i) * 1e-4, MaxWavelengths: 8, Iterations: 1 + i%3,
			CheckpointEverySec: 2e-4,
		})
	}
	churn = append(churn, JobSpec{Name: "straggler", Bytes: 8 << 20, ArrivalSec: 2e-3, Iterations: 2})
	var prio []JobSpec
	for i := 0; i < 16; i++ {
		prio = append(prio, JobSpec{
			Name: fmt.Sprintf("p%d", i), Bytes: int64(1+i%4) << 19,
			ArrivalSec: float64(i%5) * 3e-4, Priority: i % 3,
			MinWavelengths: 1 + i%3, MaxWavelengths: 4 + 4*(i%3),
			Iterations: 1 + i%4, CheckpointEverySec: 1e-4 * float64(i%3),
		})
	}
	return map[string][]JobSpec{"churn": churn, "prio": prio}
}

// digestFabricPlans are the single-fabric fault plans: none, wavelength
// darkening plus job crashes, and job crashes alone.
func digestFabricPlans() map[string]*FaultPlan {
	return map[string]*FaultPlan{
		"none": nil,
		"wavelength+job": {
			Seed: 3, HorizonSec: 5e-3,
			WavelengthMTBFSec: 1e-3, WavelengthMTTRSec: 5e-4, WavelengthsPerFault: 4,
			JobFaultMTBFSec: 4e-4,
		},
		"job": {Seed: 4, HorizonSec: 5e-3, JobFaultMTBFSec: 3e-4},
	}
}

func resultDigest(v any) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%#v", v)
	return h.Sum64()
}

// resultDigests runs every digest case and returns one FNV-64 of each
// result's %#v, keyed by case name.
func resultDigests(t *testing.T) map[string]uint64 {
	out := map[string]uint64{}
	ss := NewSweepSession()
	cfg := DefaultConfig(32)
	for _, seed := range []int64{1, 2} {
		jobs := digestFleetTrace(t, seed)
		for _, placement := range []string{FleetLeastLoaded, FleetBestFit, FleetPriorityAware} {
			for _, pol := range []string{FabricElastic, FabricPriority, FabricFirstFit} {
				for _, lite := range []bool{true, false} {
					for _, recovery := range []string{"", RecoveryFailFast, RecoveryRetrySameFabric, RecoveryMigrateOnFailure} {
						opt := FleetOptions{Placement: placement, Policy: FabricPolicy{Kind: pol}, Lite: lite}
						name := fmt.Sprintf("fleet/seed%d/%s/%s/lite=%v", seed, placement, pol, lite)
						if recovery != "" {
							opt.Faults = digestFleetPlan()
							opt.Recovery = recovery
							name += "/" + recovery
						}
						res, err := ss.SimulateFleet(cfg, digestFleetFabrics(), digestFleetShapes(), jobs, opt)
						if err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						out[name] = resultDigest(res)
					}
				}
			}
		}
	}
	pricingDigests(t, out)
	fcfg := DefaultConfig(16)
	fcfg.Optical.Wavelengths = 16
	for mix, jobs := range digestFabricMixes() {
		for planName, plan := range digestFabricPlans() {
			for _, pol := range FabricPolicies() {
				if pol.Kind == FabricStatic && plan != nil && plan.WavelengthMTBFSec > 0 {
					continue // wavelength faults need a shared pool
				}
				if pol.Kind == FabricElastic {
					pol.ReconfigDelaySec = 2e-6
				}
				var plans []FaultPlan
				if plan != nil {
					plans = append(plans, *plan)
				}
				res, err := ss.SimulateFabric(fcfg, jobs, pol, plans...)
				name := fmt.Sprintf("fabric/%s/%s/%s", mix, planName, pol.Kind)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				out[name] = resultDigest(res)
			}
		}
	}
	floorDigests(t, ss, out)
	return out
}

// floorDigests adds fleet cases with a fixed group size m=8, so every
// shape runs above a structural floor of 4 wavelengths (the least w with
// core.MaxGroupSize(w) >= 8): all of the edge fabric, half of pod-c. The
// trace's maxima are raised to the floor so validation accepts every job.
func floorDigests(t *testing.T, ss *SweepSession, out map[string]uint64) {
	cfg := DefaultConfig(32)
	cfg.WrhtGroupSize = 8
	jobs := digestFleetTrace(t, 1)
	for i := range jobs {
		jobs[i].MaxWavelengths = max(jobs[i].MaxWavelengths, 4)
	}
	for _, placement := range []string{FleetLeastLoaded, FleetBestFit, FleetPriorityAware} {
		for _, pol := range []string{FabricElastic, FabricPriority, FabricFirstFit} {
			for _, recovery := range []string{"", RecoveryMigrateOnFailure} {
				opt := FleetOptions{Placement: placement, Policy: FabricPolicy{Kind: pol}}
				name := fmt.Sprintf("fleet/m8/seed1/%s/%s", placement, pol)
				if recovery != "" {
					opt.Faults = digestFleetPlan()
					opt.Recovery = recovery
					name += "/" + recovery
				}
				res, err := ss.SimulateFleet(cfg, digestFleetFabrics(), digestFleetShapes(), jobs, opt)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				out[name] = resultDigest(res)
			}
		}
	}
}

// digestWrhtConfig draws one seeded Wrht configuration: n nodes on w
// wavelengths, the optimizer's m or a forced one (any feasible size, so
// ragged levels, single-root plans and all-to-all plans all occur), and
// either all-to-all policy.
func digestWrhtConfig(rng *rand.Rand, maxNodes int) Config {
	w := []int{2, 4, 8, 16, 64}[rng.Intn(5)]
	cfg := DefaultConfig(2 + rng.Intn(maxNodes-1))
	cfg.Optical.Wavelengths = w
	if rng.Intn(3) > 0 {
		cfg.WrhtGroupSize = 2 + rng.Intn(2*w)
	}
	cfg.WrhtGreedyA2A = rng.Intn(2) == 1
	return cfg
}

// pricingDigests adds the Wrht pricing cases to out: MultiRackTime over
// seeded racks × nodes per rack × w × m × policy, and, over seeded
// single-ring configurations, the plan summary plus CommunicationTime and
// ScheduleOutline for the three Wrht lowerings at 1, 3 and 64 pipeline
// chunks. Each case prices through the production lowering, so these
// digests pin the numbers independently of any oracle built from it.
func pricingDigests(t *testing.T, out map[string]uint64) {
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 16; i++ {
		cfg := digestWrhtConfig(rng, 48)
		racks := 2 + rng.Intn(4)
		bytes := int64(1<<20 + rng.Intn(1<<20))
		name := fmt.Sprintf("pricing/multirack/%02d/r%d/n%d/w%d/m%d/greedy=%v",
			i, racks, cfg.Nodes, cfg.Optical.Wavelengths, cfg.WrhtGroupSize, cfg.WrhtGreedyA2A)
		res, err := MultiRackTime(cfg, racks, cfg.Nodes, bytes)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out[name] = resultDigest(res)
	}
	for i := 0; i < 8; i++ {
		cfg := digestWrhtConfig(rng, 300)
		bytes := int64(1<<22 + rng.Intn(1<<22))
		base := fmt.Sprintf("pricing/%02d/n%d/w%d/m%d/greedy=%v",
			i, cfg.Nodes, cfg.Optical.Wavelengths, cfg.WrhtGroupSize, cfg.WrhtGreedyA2A)
		sum, err := Plan(cfg)
		if err != nil {
			t.Fatalf("%s: %v", base, err)
		}
		out[base+"/plan"] = resultDigest(sum)
		for _, alg := range []Algorithm{AlgWrht, AlgWrhtUnstriped, AlgWrhtPipelined} {
			for _, chunks := range []int{1, 3, 64} {
				cfg.PipelineChunks = chunks
				name := fmt.Sprintf("%s/%s/c%d", base, alg, chunks)
				res, err := CommunicationTime(cfg, alg, bytes)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				outline, err := ScheduleOutline(cfg, alg, bytes)
				if err != nil {
					t.Fatalf("%s outline: %v", name, err)
				}
				out[name] = resultDigest(res)
				out[name+"/outline"] = resultDigest(outline)
			}
		}
	}
}

// TestResultDigestsGolden pins the exact output of Wrht pricing and of the
// fabric and fleet co-simulations: the seeded pricing cases of
// pricingDigests, every placement × policy × Lite/full × recovery policy on
// two seeded churn traces, every placement × policy on one of them above a
// structural width floor (floorDigests), and two tenant mixes under every fabric policy
// with and without faults. Each case carries its own digest, so a failure
// names the case whose result moved. The digests are those of an amd64
// build; where the compiler fuses multiply-adds (arm64, ppc64le, s390x,
// riscv64) the last bits of some results may round differently.
func TestResultDigestsGolden(t *testing.T) {
	got := resultDigests(t)
	if len(got) != len(goldenDigests) {
		t.Errorf("%d digest cases, want %d", len(got), len(goldenDigests))
	}
	for name, want := range goldenDigests {
		if d, ok := got[name]; !ok {
			t.Errorf("%s: case missing", name)
		} else if d != want {
			t.Errorf("%s: digest %#016x, want %#016x", name, d, want)
		}
	}
}

var goldenDigests = map[string]uint64{
	"fabric/churn/job/elastic":                                        0x88e41622097494c7,
	"fabric/churn/job/first-fit":                                      0xf1eed1ee842ac15c,
	"fabric/churn/job/priority":                                       0x63a619718d41d3ec,
	"fabric/churn/job/static":                                         0x7ab794fd0da75334,
	"fabric/churn/none/elastic":                                       0x043aaf84daa71ff3,
	"fabric/churn/none/first-fit":                                     0x115aeb15bbdd298c,
	"fabric/churn/none/priority":                                      0xacad6bbe05b60efc,
	"fabric/churn/none/static":                                        0x07a430bb5c3e8082,
	"fabric/churn/wavelength+job/elastic":                             0x96830d3fcf4b88db,
	"fabric/churn/wavelength+job/first-fit":                           0x5fe730f81f9c0cc9,
	"fabric/churn/wavelength+job/priority":                            0x07683dc6ffbc1545,
	"fabric/prio/job/elastic":                                         0xae318c27eac77182,
	"fabric/prio/job/first-fit":                                       0x992e1f0896ff28f3,
	"fabric/prio/job/priority":                                        0x04206c9b760c4da2,
	"fabric/prio/job/static":                                          0xc3d7a2a3967a8688,
	"fabric/prio/none/elastic":                                        0xf67b11fda341494f,
	"fabric/prio/none/first-fit":                                      0x46de1ccf8c7ec5d9,
	"fabric/prio/none/priority":                                       0x0d4e551a2c9df612,
	"fabric/prio/none/static":                                         0xca7b9232c71f5585,
	"fabric/prio/wavelength+job/elastic":                              0x473394af00d2b7af,
	"fabric/prio/wavelength+job/first-fit":                            0x2c44b35a2a24c8aa,
	"fabric/prio/wavelength+job/priority":                             0x773c21b45c338d68,
	"fleet/m8/seed1/best-fit/elastic":                                 0xe0d3215bc603aa89,
	"fleet/m8/seed1/best-fit/elastic/migrate":                         0x0b9bbdf9bfd36e90,
	"fleet/m8/seed1/best-fit/first-fit":                               0x31f0831dbad47f37,
	"fleet/m8/seed1/best-fit/first-fit/migrate":                       0xd12a6e7009c1f49b,
	"fleet/m8/seed1/best-fit/priority":                                0x4b83301c4dce61b2,
	"fleet/m8/seed1/best-fit/priority/migrate":                        0x2e5cd6836e0f62b3,
	"fleet/m8/seed1/least-loaded/elastic":                             0xa6a7d5352d328de9,
	"fleet/m8/seed1/least-loaded/elastic/migrate":                     0xdc5a4d5302dfb72f,
	"fleet/m8/seed1/least-loaded/first-fit":                           0x2d3e766459b4bac9,
	"fleet/m8/seed1/least-loaded/first-fit/migrate":                   0x563f6dc01e489f21,
	"fleet/m8/seed1/least-loaded/priority":                            0x6180f0426279bae8,
	"fleet/m8/seed1/least-loaded/priority/migrate":                    0x485d3fe0aa7860cb,
	"fleet/m8/seed1/priority-aware/elastic":                           0x8682e9f9bbf8fa2c,
	"fleet/m8/seed1/priority-aware/elastic/migrate":                   0x6107420118c625ad,
	"fleet/m8/seed1/priority-aware/first-fit":                         0xb6ddcd397de10e23,
	"fleet/m8/seed1/priority-aware/first-fit/migrate":                 0x0f2add9b0931e2f8,
	"fleet/m8/seed1/priority-aware/priority":                          0x9b9d5389067a162f,
	"fleet/m8/seed1/priority-aware/priority/migrate":                  0xfeae73e2afa60587,
	"fleet/seed1/best-fit/elastic/lite=false":                         0xf8dc98ae4224821e,
	"fleet/seed1/best-fit/elastic/lite=false/fail-fast":               0xffe4881307080fb8,
	"fleet/seed1/best-fit/elastic/lite=false/migrate":                 0x985435c7ef99fa38,
	"fleet/seed1/best-fit/elastic/lite=false/retry":                   0xa9342095d0179750,
	"fleet/seed1/best-fit/elastic/lite=true":                          0x2638b604a855d5ff,
	"fleet/seed1/best-fit/elastic/lite=true/fail-fast":                0x8df3a106a7b36977,
	"fleet/seed1/best-fit/elastic/lite=true/migrate":                  0x7e56f76004a5603a,
	"fleet/seed1/best-fit/elastic/lite=true/retry":                    0xc0b4ee6306ad4d21,
	"fleet/seed1/best-fit/first-fit/lite=false":                       0x203e655ddaa5a296,
	"fleet/seed1/best-fit/first-fit/lite=false/fail-fast":             0x98a4f71b19de7336,
	"fleet/seed1/best-fit/first-fit/lite=false/migrate":               0xfb4ffd7f6ee70d09,
	"fleet/seed1/best-fit/first-fit/lite=false/retry":                 0xb762bfa6c8e47122,
	"fleet/seed1/best-fit/first-fit/lite=true":                        0x175cdc994ef84291,
	"fleet/seed1/best-fit/first-fit/lite=true/fail-fast":              0xad91acf8f6d01eea,
	"fleet/seed1/best-fit/first-fit/lite=true/migrate":                0x943902bf8dad2c2b,
	"fleet/seed1/best-fit/first-fit/lite=true/retry":                  0xa569deb7e75f1e86,
	"fleet/seed1/best-fit/priority/lite=false":                        0x74384fad21a3a1cf,
	"fleet/seed1/best-fit/priority/lite=false/fail-fast":              0x42ea4da18bc0251b,
	"fleet/seed1/best-fit/priority/lite=false/migrate":                0x045ea87ed8735d45,
	"fleet/seed1/best-fit/priority/lite=false/retry":                  0x56ede89d7ad9cc06,
	"fleet/seed1/best-fit/priority/lite=true":                         0x47b88e41a10a6a00,
	"fleet/seed1/best-fit/priority/lite=true/fail-fast":               0x493a5a0be4fa06f0,
	"fleet/seed1/best-fit/priority/lite=true/migrate":                 0x438e12f736233330,
	"fleet/seed1/best-fit/priority/lite=true/retry":                   0x7dec9120cb906684,
	"fleet/seed1/least-loaded/elastic/lite=false":                     0xdfa31ce9de5c7c12,
	"fleet/seed1/least-loaded/elastic/lite=false/fail-fast":           0xb6bded838bc43fad,
	"fleet/seed1/least-loaded/elastic/lite=false/migrate":             0x0b98446f30dc94fc,
	"fleet/seed1/least-loaded/elastic/lite=false/retry":               0x78ba1cfbd9cba61d,
	"fleet/seed1/least-loaded/elastic/lite=true":                      0xceec5ae5b1fbfa30,
	"fleet/seed1/least-loaded/elastic/lite=true/fail-fast":            0x6b099613f5454a82,
	"fleet/seed1/least-loaded/elastic/lite=true/migrate":              0x4cdafdb1509520b7,
	"fleet/seed1/least-loaded/elastic/lite=true/retry":                0x083b0d2cae33f89e,
	"fleet/seed1/least-loaded/first-fit/lite=false":                   0x24af28fc67f3cdb0,
	"fleet/seed1/least-loaded/first-fit/lite=false/fail-fast":         0x4b558a9051389fb8,
	"fleet/seed1/least-loaded/first-fit/lite=false/migrate":           0x33b3778efe958299,
	"fleet/seed1/least-loaded/first-fit/lite=false/retry":             0x6c7a793ba98de9a5,
	"fleet/seed1/least-loaded/first-fit/lite=true":                    0xd55e9fd69a156097,
	"fleet/seed1/least-loaded/first-fit/lite=true/fail-fast":          0xcec2a61acd1445c8,
	"fleet/seed1/least-loaded/first-fit/lite=true/migrate":            0x3e31bcdd05ea3986,
	"fleet/seed1/least-loaded/first-fit/lite=true/retry":              0xc29ba14b86b3e0f0,
	"fleet/seed1/least-loaded/priority/lite=false":                    0xbea8194ef8fecc99,
	"fleet/seed1/least-loaded/priority/lite=false/fail-fast":          0xd699955b8c126035,
	"fleet/seed1/least-loaded/priority/lite=false/migrate":            0x2b23eebc04832722,
	"fleet/seed1/least-loaded/priority/lite=false/retry":              0x54beaf003fedd25a,
	"fleet/seed1/least-loaded/priority/lite=true":                     0xd9f77ceb126510d8,
	"fleet/seed1/least-loaded/priority/lite=true/fail-fast":           0xdc2312a99f28489e,
	"fleet/seed1/least-loaded/priority/lite=true/migrate":             0x7756c9514c7cb28b,
	"fleet/seed1/least-loaded/priority/lite=true/retry":               0x1e1e25efe7733773,
	"fleet/seed1/priority-aware/elastic/lite=false":                   0x128b51abd2ffe477,
	"fleet/seed1/priority-aware/elastic/lite=false/fail-fast":         0xed8d8039710c03bd,
	"fleet/seed1/priority-aware/elastic/lite=false/migrate":           0x3e0835f1e18d2905,
	"fleet/seed1/priority-aware/elastic/lite=false/retry":             0xc0df431f9f79f370,
	"fleet/seed1/priority-aware/elastic/lite=true":                    0x53705086dfb04ceb,
	"fleet/seed1/priority-aware/elastic/lite=true/fail-fast":          0xa9c6ab98579d4091,
	"fleet/seed1/priority-aware/elastic/lite=true/migrate":            0xb617026a435aa95e,
	"fleet/seed1/priority-aware/elastic/lite=true/retry":              0x33cd0a298c364af4,
	"fleet/seed1/priority-aware/first-fit/lite=false":                 0xe36b3c7eff39397f,
	"fleet/seed1/priority-aware/first-fit/lite=false/fail-fast":       0xc86e4346f397346a,
	"fleet/seed1/priority-aware/first-fit/lite=false/migrate":         0x124511eb5700c412,
	"fleet/seed1/priority-aware/first-fit/lite=false/retry":           0x059c0a9ae81bdbf6,
	"fleet/seed1/priority-aware/first-fit/lite=true":                  0xadc874bb29e3455a,
	"fleet/seed1/priority-aware/first-fit/lite=true/fail-fast":        0x0b5c9c56c194dcf6,
	"fleet/seed1/priority-aware/first-fit/lite=true/migrate":          0x489c481fda7fb566,
	"fleet/seed1/priority-aware/first-fit/lite=true/retry":            0xa28650e13a16971b,
	"fleet/seed1/priority-aware/priority/lite=false":                  0x4795a8b93c5d4fa3,
	"fleet/seed1/priority-aware/priority/lite=false/fail-fast":        0x4740dd6cfcc2f49d,
	"fleet/seed1/priority-aware/priority/lite=false/migrate":          0x65229a540b2a7bc7,
	"fleet/seed1/priority-aware/priority/lite=false/retry":            0x85fe9278b23c3de7,
	"fleet/seed1/priority-aware/priority/lite=true":                   0x8453defe32f11f2d,
	"fleet/seed1/priority-aware/priority/lite=true/fail-fast":         0xa7fd7a8747124814,
	"fleet/seed1/priority-aware/priority/lite=true/migrate":           0xac6b2e3e7bc63972,
	"fleet/seed1/priority-aware/priority/lite=true/retry":             0x85cb52dcfccbbdca,
	"fleet/seed2/best-fit/elastic/lite=false":                         0x855848be9191c5ff,
	"fleet/seed2/best-fit/elastic/lite=false/fail-fast":               0xc526fe34fd1b01cc,
	"fleet/seed2/best-fit/elastic/lite=false/migrate":                 0xf1bbb1c94e4e2236,
	"fleet/seed2/best-fit/elastic/lite=false/retry":                   0xc01d98e9dbc90a90,
	"fleet/seed2/best-fit/elastic/lite=true":                          0x81e22dbccd06bf87,
	"fleet/seed2/best-fit/elastic/lite=true/fail-fast":                0x15f3e5b4aa4a064c,
	"fleet/seed2/best-fit/elastic/lite=true/migrate":                  0xd4b814c9e417f462,
	"fleet/seed2/best-fit/elastic/lite=true/retry":                    0x9d21f1d1ed75c3d7,
	"fleet/seed2/best-fit/first-fit/lite=false":                       0x2607ecb2406154d4,
	"fleet/seed2/best-fit/first-fit/lite=false/fail-fast":             0xfa0cc3df392a532c,
	"fleet/seed2/best-fit/first-fit/lite=false/migrate":               0xdc344879fd425da1,
	"fleet/seed2/best-fit/first-fit/lite=false/retry":                 0xb8aa0ed4b828777f,
	"fleet/seed2/best-fit/first-fit/lite=true":                        0x2f75e6118c33e916,
	"fleet/seed2/best-fit/first-fit/lite=true/fail-fast":              0x588870e79626fa64,
	"fleet/seed2/best-fit/first-fit/lite=true/migrate":                0xea0a9cc241ceef46,
	"fleet/seed2/best-fit/first-fit/lite=true/retry":                  0x9f9a7cf414ba6b0d,
	"fleet/seed2/best-fit/priority/lite=false":                        0x96c2b045b46f1acf,
	"fleet/seed2/best-fit/priority/lite=false/fail-fast":              0xdd611f29e3ced721,
	"fleet/seed2/best-fit/priority/lite=false/migrate":                0x3c58047e3946aa96,
	"fleet/seed2/best-fit/priority/lite=false/retry":                  0x90dcec79238d2700,
	"fleet/seed2/best-fit/priority/lite=true":                         0xa11e5039c47cb69e,
	"fleet/seed2/best-fit/priority/lite=true/fail-fast":               0x278fee30acb39c9c,
	"fleet/seed2/best-fit/priority/lite=true/migrate":                 0xb0f55411b5d7ca2b,
	"fleet/seed2/best-fit/priority/lite=true/retry":                   0x5681a99991c9b144,
	"fleet/seed2/least-loaded/elastic/lite=false":                     0xab0336012f24621f,
	"fleet/seed2/least-loaded/elastic/lite=false/fail-fast":           0xc0de56a638e7901d,
	"fleet/seed2/least-loaded/elastic/lite=false/migrate":             0x7b6e7f172681fd88,
	"fleet/seed2/least-loaded/elastic/lite=false/retry":               0x955978e577d55cf7,
	"fleet/seed2/least-loaded/elastic/lite=true":                      0x0eb25dd74751e52a,
	"fleet/seed2/least-loaded/elastic/lite=true/fail-fast":            0x0affb23242dc427c,
	"fleet/seed2/least-loaded/elastic/lite=true/migrate":              0xf68a274adaa4b09c,
	"fleet/seed2/least-loaded/elastic/lite=true/retry":                0x4c6cdd547642d9cd,
	"fleet/seed2/least-loaded/first-fit/lite=false":                   0xa908f2d2411cf0b0,
	"fleet/seed2/least-loaded/first-fit/lite=false/fail-fast":         0x6f580e6ccbc8c9a6,
	"fleet/seed2/least-loaded/first-fit/lite=false/migrate":           0x174136a9f759369b,
	"fleet/seed2/least-loaded/first-fit/lite=false/retry":             0xda72a3034ce9fdea,
	"fleet/seed2/least-loaded/first-fit/lite=true":                    0xc84f9158dc954e61,
	"fleet/seed2/least-loaded/first-fit/lite=true/fail-fast":          0xbb5f0d7ce0f27925,
	"fleet/seed2/least-loaded/first-fit/lite=true/migrate":            0xe95d2abff91c7366,
	"fleet/seed2/least-loaded/first-fit/lite=true/retry":              0xb8590457b78a8706,
	"fleet/seed2/least-loaded/priority/lite=false":                    0x27d43769803e8c0e,
	"fleet/seed2/least-loaded/priority/lite=false/fail-fast":          0x85c45af08b214fb7,
	"fleet/seed2/least-loaded/priority/lite=false/migrate":            0x4b3043c04ede0b50,
	"fleet/seed2/least-loaded/priority/lite=false/retry":              0xdba39d574ba5c136,
	"fleet/seed2/least-loaded/priority/lite=true":                     0x1936398154325743,
	"fleet/seed2/least-loaded/priority/lite=true/fail-fast":           0xf3f4b03adec5bba6,
	"fleet/seed2/least-loaded/priority/lite=true/migrate":             0x59751be5102673ff,
	"fleet/seed2/least-loaded/priority/lite=true/retry":               0x97665a84eb931700,
	"fleet/seed2/priority-aware/elastic/lite=false":                   0xb82f4bc8916740a5,
	"fleet/seed2/priority-aware/elastic/lite=false/fail-fast":         0x752f3de1f49de340,
	"fleet/seed2/priority-aware/elastic/lite=false/migrate":           0x7f1e0afc73b2ce6b,
	"fleet/seed2/priority-aware/elastic/lite=false/retry":             0x0d655dc7e040bfd7,
	"fleet/seed2/priority-aware/elastic/lite=true":                    0xadf6acb9e3042fb3,
	"fleet/seed2/priority-aware/elastic/lite=true/fail-fast":          0x2be999df30055b43,
	"fleet/seed2/priority-aware/elastic/lite=true/migrate":            0xbccc7f76c750cabc,
	"fleet/seed2/priority-aware/elastic/lite=true/retry":              0x6e998628df5d19a0,
	"fleet/seed2/priority-aware/first-fit/lite=false":                 0x2bbf8a03622beaae,
	"fleet/seed2/priority-aware/first-fit/lite=false/fail-fast":       0x428b76248f2b3e85,
	"fleet/seed2/priority-aware/first-fit/lite=false/migrate":         0xe6310e0f97489f83,
	"fleet/seed2/priority-aware/first-fit/lite=false/retry":           0xe131c2c2f5fabf5c,
	"fleet/seed2/priority-aware/first-fit/lite=true":                  0xb7394f121c7488ee,
	"fleet/seed2/priority-aware/first-fit/lite=true/fail-fast":        0xcaea1b881353e725,
	"fleet/seed2/priority-aware/first-fit/lite=true/migrate":          0x9675f0fb385dfcea,
	"fleet/seed2/priority-aware/first-fit/lite=true/retry":            0x3c5b51967d212168,
	"fleet/seed2/priority-aware/priority/lite=false":                  0x1e8348b5c6c20efe,
	"fleet/seed2/priority-aware/priority/lite=false/fail-fast":        0x021048dec89387a5,
	"fleet/seed2/priority-aware/priority/lite=false/migrate":          0x5401835231543e63,
	"fleet/seed2/priority-aware/priority/lite=false/retry":            0x770bfad1297c7b85,
	"fleet/seed2/priority-aware/priority/lite=true":                   0x28d3a2ff2281932d,
	"fleet/seed2/priority-aware/priority/lite=true/fail-fast":         0xa84b2c3e60ffcb70,
	"fleet/seed2/priority-aware/priority/lite=true/migrate":           0x57a38de1718da29c,
	"fleet/seed2/priority-aware/priority/lite=true/retry":             0x4b5cbf68e3f26b4f,
	"pricing/00/n38/w16/m18/greedy=false/plan":                        0x36efe023d098f1a1,
	"pricing/00/n38/w16/m18/greedy=false/wrht-pipelined/c1":           0xd82e9cfc72c8c46e,
	"pricing/00/n38/w16/m18/greedy=false/wrht-pipelined/c1/outline":   0xccac09a0b06c83a9,
	"pricing/00/n38/w16/m18/greedy=false/wrht-pipelined/c3":           0xac99b763bdf81241,
	"pricing/00/n38/w16/m18/greedy=false/wrht-pipelined/c3/outline":   0x7a959bcc7a67805f,
	"pricing/00/n38/w16/m18/greedy=false/wrht-pipelined/c64":          0xbf702e6cc8ce5781,
	"pricing/00/n38/w16/m18/greedy=false/wrht-pipelined/c64/outline":  0xf6345cf4be543192,
	"pricing/00/n38/w16/m18/greedy=false/wrht-unstriped/c1":           0xf30b08481b7e22be,
	"pricing/00/n38/w16/m18/greedy=false/wrht-unstriped/c1/outline":   0xccac09a0b06c83a9,
	"pricing/00/n38/w16/m18/greedy=false/wrht-unstriped/c3":           0xf30b08481b7e22be,
	"pricing/00/n38/w16/m18/greedy=false/wrht-unstriped/c3/outline":   0xccac09a0b06c83a9,
	"pricing/00/n38/w16/m18/greedy=false/wrht-unstriped/c64":          0xf30b08481b7e22be,
	"pricing/00/n38/w16/m18/greedy=false/wrht-unstriped/c64/outline":  0xccac09a0b06c83a9,
	"pricing/00/n38/w16/m18/greedy=false/wrht/c1":                     0x9af0c3a51c468ee7,
	"pricing/00/n38/w16/m18/greedy=false/wrht/c1/outline":             0x733509dafe58d94f,
	"pricing/00/n38/w16/m18/greedy=false/wrht/c3":                     0x9af0c3a51c468ee7,
	"pricing/00/n38/w16/m18/greedy=false/wrht/c3/outline":             0x733509dafe58d94f,
	"pricing/00/n38/w16/m18/greedy=false/wrht/c64":                    0x9af0c3a51c468ee7,
	"pricing/00/n38/w16/m18/greedy=false/wrht/c64/outline":            0x733509dafe58d94f,
	"pricing/01/n157/w64/m84/greedy=false/plan":                       0x37d00cbb717848c0,
	"pricing/01/n157/w64/m84/greedy=false/wrht-pipelined/c1":          0x2ba15ee2646bf1a7,
	"pricing/01/n157/w64/m84/greedy=false/wrht-pipelined/c1/outline":  0xe0f2d339e3854942,
	"pricing/01/n157/w64/m84/greedy=false/wrht-pipelined/c3":          0x3809a42bb9fb9da9,
	"pricing/01/n157/w64/m84/greedy=false/wrht-pipelined/c3/outline":  0x3114544f666916be,
	"pricing/01/n157/w64/m84/greedy=false/wrht-pipelined/c64":         0x7eec266531ce5ad9,
	"pricing/01/n157/w64/m84/greedy=false/wrht-pipelined/c64/outline": 0x16f243c98a4141d7,
	"pricing/01/n157/w64/m84/greedy=false/wrht-unstriped/c1":          0x896269c4393780f7,
	"pricing/01/n157/w64/m84/greedy=false/wrht-unstriped/c1/outline":  0xe0f2d339e3854942,
	"pricing/01/n157/w64/m84/greedy=false/wrht-unstriped/c3":          0x896269c4393780f7,
	"pricing/01/n157/w64/m84/greedy=false/wrht-unstriped/c3/outline":  0xe0f2d339e3854942,
	"pricing/01/n157/w64/m84/greedy=false/wrht-unstriped/c64":         0x896269c4393780f7,
	"pricing/01/n157/w64/m84/greedy=false/wrht-unstriped/c64/outline": 0xe0f2d339e3854942,
	"pricing/01/n157/w64/m84/greedy=false/wrht/c1":                    0x01c7ab7d0c0d0c3f,
	"pricing/01/n157/w64/m84/greedy=false/wrht/c1/outline":            0x90096a9701d828b6,
	"pricing/01/n157/w64/m84/greedy=false/wrht/c3":                    0x01c7ab7d0c0d0c3f,
	"pricing/01/n157/w64/m84/greedy=false/wrht/c3/outline":            0x90096a9701d828b6,
	"pricing/01/n157/w64/m84/greedy=false/wrht/c64":                   0x01c7ab7d0c0d0c3f,
	"pricing/01/n157/w64/m84/greedy=false/wrht/c64/outline":           0x90096a9701d828b6,
	"pricing/02/n287/w8/m11/greedy=false/plan":                        0x6f2e6fc34b6475d7,
	"pricing/02/n287/w8/m11/greedy=false/wrht-pipelined/c1":           0x7ce35fa2943d3600,
	"pricing/02/n287/w8/m11/greedy=false/wrht-pipelined/c1/outline":   0x7a6a6d3204b47784,
	"pricing/02/n287/w8/m11/greedy=false/wrht-pipelined/c3":           0x47f7989c6f6dc617,
	"pricing/02/n287/w8/m11/greedy=false/wrht-pipelined/c3/outline":   0x90b58b79e88720ec,
	"pricing/02/n287/w8/m11/greedy=false/wrht-pipelined/c64":          0x52481c46961f9ae5,
	"pricing/02/n287/w8/m11/greedy=false/wrht-pipelined/c64/outline":  0xc991660aeb9f4b20,
	"pricing/02/n287/w8/m11/greedy=false/wrht-unstriped/c1":           0x9d82789034a03790,
	"pricing/02/n287/w8/m11/greedy=false/wrht-unstriped/c1/outline":   0x7a6a6d3204b47784,
	"pricing/02/n287/w8/m11/greedy=false/wrht-unstriped/c3":           0x9d82789034a03790,
	"pricing/02/n287/w8/m11/greedy=false/wrht-unstriped/c3/outline":   0x7a6a6d3204b47784,
	"pricing/02/n287/w8/m11/greedy=false/wrht-unstriped/c64":          0x9d82789034a03790,
	"pricing/02/n287/w8/m11/greedy=false/wrht-unstriped/c64/outline":  0x7a6a6d3204b47784,
	"pricing/02/n287/w8/m11/greedy=false/wrht/c1":                     0x90bebe6f432013bf,
	"pricing/02/n287/w8/m11/greedy=false/wrht/c1/outline":             0xa7dcbc96d9d1bb38,
	"pricing/02/n287/w8/m11/greedy=false/wrht/c3":                     0x90bebe6f432013bf,
	"pricing/02/n287/w8/m11/greedy=false/wrht/c3/outline":             0xa7dcbc96d9d1bb38,
	"pricing/02/n287/w8/m11/greedy=false/wrht/c64":                    0x90bebe6f432013bf,
	"pricing/02/n287/w8/m11/greedy=false/wrht/c64/outline":            0xa7dcbc96d9d1bb38,
	"pricing/03/n292/w4/m6/greedy=false/plan":                         0xc53869d7f8849194,
	"pricing/03/n292/w4/m6/greedy=false/wrht-pipelined/c1":            0xd02460a62667401b,
	"pricing/03/n292/w4/m6/greedy=false/wrht-pipelined/c1/outline":    0x02baca8a7def176d,
	"pricing/03/n292/w4/m6/greedy=false/wrht-pipelined/c3":            0x3dc0adf81f3f34cf,
	"pricing/03/n292/w4/m6/greedy=false/wrht-pipelined/c3/outline":    0x24ce22ef77fa2d06,
	"pricing/03/n292/w4/m6/greedy=false/wrht-pipelined/c64":           0x7a0bd3edede1bd70,
	"pricing/03/n292/w4/m6/greedy=false/wrht-pipelined/c64/outline":   0x5cb10f29af5ffa51,
	"pricing/03/n292/w4/m6/greedy=false/wrht-unstriped/c1":            0xaaded656fff7f4ab,
	"pricing/03/n292/w4/m6/greedy=false/wrht-unstriped/c1/outline":    0x02baca8a7def176d,
	"pricing/03/n292/w4/m6/greedy=false/wrht-unstriped/c3":            0xaaded656fff7f4ab,
	"pricing/03/n292/w4/m6/greedy=false/wrht-unstriped/c3/outline":    0x02baca8a7def176d,
	"pricing/03/n292/w4/m6/greedy=false/wrht-unstriped/c64":           0xaaded656fff7f4ab,
	"pricing/03/n292/w4/m6/greedy=false/wrht-unstriped/c64/outline":   0x02baca8a7def176d,
	"pricing/03/n292/w4/m6/greedy=false/wrht/c1":                      0x1e6275c522c0c8d0,
	"pricing/03/n292/w4/m6/greedy=false/wrht/c1/outline":              0x3b78121ff95636ff,
	"pricing/03/n292/w4/m6/greedy=false/wrht/c3":                      0x1e6275c522c0c8d0,
	"pricing/03/n292/w4/m6/greedy=false/wrht/c3/outline":              0x3b78121ff95636ff,
	"pricing/03/n292/w4/m6/greedy=false/wrht/c64":                     0x1e6275c522c0c8d0,
	"pricing/03/n292/w4/m6/greedy=false/wrht/c64/outline":             0x3b78121ff95636ff,
	"pricing/04/n87/w16/m0/greedy=true/plan":                          0x778cf674e13b61d7,
	"pricing/04/n87/w16/m0/greedy=true/wrht-pipelined/c1":             0x2f3ca50f6047dbf4,
	"pricing/04/n87/w16/m0/greedy=true/wrht-pipelined/c1/outline":     0x8efe7948a238d64b,
	"pricing/04/n87/w16/m0/greedy=true/wrht-pipelined/c3":             0xfea792b712591f30,
	"pricing/04/n87/w16/m0/greedy=true/wrht-pipelined/c3/outline":     0xf00e9dc38c88e54d,
	"pricing/04/n87/w16/m0/greedy=true/wrht-pipelined/c64":            0xb9b0a5aa77a67187,
	"pricing/04/n87/w16/m0/greedy=true/wrht-pipelined/c64/outline":    0xa2a8cd639308768b,
	"pricing/04/n87/w16/m0/greedy=true/wrht-unstriped/c1":             0x60b9d63b8fd62bc4,
	"pricing/04/n87/w16/m0/greedy=true/wrht-unstriped/c1/outline":     0x8efe7948a238d64b,
	"pricing/04/n87/w16/m0/greedy=true/wrht-unstriped/c3":             0x60b9d63b8fd62bc4,
	"pricing/04/n87/w16/m0/greedy=true/wrht-unstriped/c3/outline":     0x8efe7948a238d64b,
	"pricing/04/n87/w16/m0/greedy=true/wrht-unstriped/c64":            0x60b9d63b8fd62bc4,
	"pricing/04/n87/w16/m0/greedy=true/wrht-unstriped/c64/outline":    0x8efe7948a238d64b,
	"pricing/04/n87/w16/m0/greedy=true/wrht/c1":                       0x8080c842b57f5bb6,
	"pricing/04/n87/w16/m0/greedy=true/wrht/c1/outline":               0x4f2f7323ee0872f6,
	"pricing/04/n87/w16/m0/greedy=true/wrht/c3":                       0x8080c842b57f5bb6,
	"pricing/04/n87/w16/m0/greedy=true/wrht/c3/outline":               0x4f2f7323ee0872f6,
	"pricing/04/n87/w16/m0/greedy=true/wrht/c64":                      0x8080c842b57f5bb6,
	"pricing/04/n87/w16/m0/greedy=true/wrht/c64/outline":              0x4f2f7323ee0872f6,
	"pricing/05/n152/w64/m3/greedy=false/plan":                        0x7450f1faff342bc2,
	"pricing/05/n152/w64/m3/greedy=false/wrht-pipelined/c1":           0x0b0b2f379f27d3c8,
	"pricing/05/n152/w64/m3/greedy=false/wrht-pipelined/c1/outline":   0x7c90c6eb6623a755,
	"pricing/05/n152/w64/m3/greedy=false/wrht-pipelined/c3":           0x1bfb747eb97ebfe9,
	"pricing/05/n152/w64/m3/greedy=false/wrht-pipelined/c3/outline":   0xf7fa6eb305f32a9f,
	"pricing/05/n152/w64/m3/greedy=false/wrht-pipelined/c64":          0x074a44a5ee58f9f1,
	"pricing/05/n152/w64/m3/greedy=false/wrht-pipelined/c64/outline":  0x040b2eb4798d0e1b,
	"pricing/05/n152/w64/m3/greedy=false/wrht-unstriped/c1":           0x0e5bfba15f99b958,
	"pricing/05/n152/w64/m3/greedy=false/wrht-unstriped/c1/outline":   0x7c90c6eb6623a755,
	"pricing/05/n152/w64/m3/greedy=false/wrht-unstriped/c3":           0x0e5bfba15f99b958,
	"pricing/05/n152/w64/m3/greedy=false/wrht-unstriped/c3/outline":   0x7c90c6eb6623a755,
	"pricing/05/n152/w64/m3/greedy=false/wrht-unstriped/c64":          0x0e5bfba15f99b958,
	"pricing/05/n152/w64/m3/greedy=false/wrht-unstriped/c64/outline":  0x7c90c6eb6623a755,
	"pricing/05/n152/w64/m3/greedy=false/wrht/c1":                     0x4f4a9e596870bece,
	"pricing/05/n152/w64/m3/greedy=false/wrht/c1/outline":             0x51d5f04f9907f8ef,
	"pricing/05/n152/w64/m3/greedy=false/wrht/c3":                     0x4f4a9e596870bece,
	"pricing/05/n152/w64/m3/greedy=false/wrht/c3/outline":             0x51d5f04f9907f8ef,
	"pricing/05/n152/w64/m3/greedy=false/wrht/c64":                    0x4f4a9e596870bece,
	"pricing/05/n152/w64/m3/greedy=false/wrht/c64/outline":            0x51d5f04f9907f8ef,
	"pricing/06/n102/w4/m7/greedy=true/plan":                          0xf27c2b1997179b47,
	"pricing/06/n102/w4/m7/greedy=true/wrht-pipelined/c1":             0x95f5e13e79e17970,
	"pricing/06/n102/w4/m7/greedy=true/wrht-pipelined/c1/outline":     0xad97d0dcb39fa57c,
	"pricing/06/n102/w4/m7/greedy=true/wrht-pipelined/c3":             0xd3d3910e7c1bf0d4,
	"pricing/06/n102/w4/m7/greedy=true/wrht-pipelined/c3/outline":     0xbdb107e9b726b423,
	"pricing/06/n102/w4/m7/greedy=true/wrht-pipelined/c64":            0x45f52993a8367743,
	"pricing/06/n102/w4/m7/greedy=true/wrht-pipelined/c64/outline":    0xf18192e3d8c134ac,
	"pricing/06/n102/w4/m7/greedy=true/wrht-unstriped/c1":             0xa8bd49abcee80b40,
	"pricing/06/n102/w4/m7/greedy=true/wrht-unstriped/c1/outline":     0xad97d0dcb39fa57c,
	"pricing/06/n102/w4/m7/greedy=true/wrht-unstriped/c3":             0xa8bd49abcee80b40,
	"pricing/06/n102/w4/m7/greedy=true/wrht-unstriped/c3/outline":     0xad97d0dcb39fa57c,
	"pricing/06/n102/w4/m7/greedy=true/wrht-unstriped/c64":            0xa8bd49abcee80b40,
	"pricing/06/n102/w4/m7/greedy=true/wrht-unstriped/c64/outline":    0xad97d0dcb39fa57c,
	"pricing/06/n102/w4/m7/greedy=true/wrht/c1":                       0xb5b09e386c80e9d1,
	"pricing/06/n102/w4/m7/greedy=true/wrht/c1/outline":               0x48d65782a3ea6e1d,
	"pricing/06/n102/w4/m7/greedy=true/wrht/c3":                       0xb5b09e386c80e9d1,
	"pricing/06/n102/w4/m7/greedy=true/wrht/c3/outline":               0x48d65782a3ea6e1d,
	"pricing/06/n102/w4/m7/greedy=true/wrht/c64":                      0xb5b09e386c80e9d1,
	"pricing/06/n102/w4/m7/greedy=true/wrht/c64/outline":              0x48d65782a3ea6e1d,
	"pricing/07/n270/w8/m9/greedy=false/plan":                         0xce4cf76db8a5bf2b,
	"pricing/07/n270/w8/m9/greedy=false/wrht-pipelined/c1":            0xea81a868fc932921,
	"pricing/07/n270/w8/m9/greedy=false/wrht-pipelined/c1/outline":    0x79c0a8adf7d5cf91,
	"pricing/07/n270/w8/m9/greedy=false/wrht-pipelined/c3":            0xeef97b3c1a479c1a,
	"pricing/07/n270/w8/m9/greedy=false/wrht-pipelined/c3/outline":    0x9b12428043f17376,
	"pricing/07/n270/w8/m9/greedy=false/wrht-pipelined/c64":           0x6c3f278464497d77,
	"pricing/07/n270/w8/m9/greedy=false/wrht-pipelined/c64/outline":   0xf758c7ed7cd2046a,
	"pricing/07/n270/w8/m9/greedy=false/wrht-unstriped/c1":            0x5b8d024b2cd437f1,
	"pricing/07/n270/w8/m9/greedy=false/wrht-unstriped/c1/outline":    0x79c0a8adf7d5cf91,
	"pricing/07/n270/w8/m9/greedy=false/wrht-unstriped/c3":            0x5b8d024b2cd437f1,
	"pricing/07/n270/w8/m9/greedy=false/wrht-unstriped/c3/outline":    0x79c0a8adf7d5cf91,
	"pricing/07/n270/w8/m9/greedy=false/wrht-unstriped/c64":           0x5b8d024b2cd437f1,
	"pricing/07/n270/w8/m9/greedy=false/wrht-unstriped/c64/outline":   0x79c0a8adf7d5cf91,
	"pricing/07/n270/w8/m9/greedy=false/wrht/c1":                      0x08368b093e236280,
	"pricing/07/n270/w8/m9/greedy=false/wrht/c1/outline":              0xc8d0e137c404c1fb,
	"pricing/07/n270/w8/m9/greedy=false/wrht/c3":                      0x08368b093e236280,
	"pricing/07/n270/w8/m9/greedy=false/wrht/c3/outline":              0xc8d0e137c404c1fb,
	"pricing/07/n270/w8/m9/greedy=false/wrht/c64":                     0x08368b093e236280,
	"pricing/07/n270/w8/m9/greedy=false/wrht/c64/outline":             0xc8d0e137c404c1fb,
	"pricing/multirack/00/r4/n26/w4/m2/greedy=true":                   0x46a4f5f11ff89c1d,
	"pricing/multirack/01/r5/n22/w64/m50/greedy=false":                0xca4c3d00b1171b10,
	"pricing/multirack/02/r4/n31/w64/m61/greedy=false":                0x937d01e08b1485ea,
	"pricing/multirack/03/r5/n10/w16/m5/greedy=false":                 0x0768bf78ae3d975a,
	"pricing/multirack/04/r3/n25/w2/m0/greedy=false":                  0x4974ff3db4d826ff,
	"pricing/multirack/05/r3/n39/w8/m11/greedy=true":                  0x2c6e09b0b571513b,
	"pricing/multirack/06/r3/n20/w64/m0/greedy=false":                 0x4daa5c8d3b952294,
	"pricing/multirack/07/r3/n33/w16/m0/greedy=true":                  0x92bf3e538ef3dc72,
	"pricing/multirack/08/r3/n21/w8/m16/greedy=false":                 0xc81041ddcdb7e8e4,
	"pricing/multirack/09/r3/n10/w64/m0/greedy=false":                 0x909014c618aac225,
	"pricing/multirack/10/r5/n35/w8/m0/greedy=true":                   0x8756f3f17208a28f,
	"pricing/multirack/11/r2/n31/w64/m34/greedy=true":                 0x13a9e6e5285c4dbe,
	"pricing/multirack/12/r3/n26/w4/m0/greedy=false":                  0x64b9c0ed0c31fcf9,
	"pricing/multirack/13/r2/n9/w16/m7/greedy=false":                  0x1c5cc0455501a430,
	"pricing/multirack/14/r2/n29/w64/m6/greedy=true":                  0xd26289dc1f08b3f2,
	"pricing/multirack/15/r4/n47/w64/m32/greedy=true":                 0xcdb73ebc44487448,
}
