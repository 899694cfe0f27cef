// Package wrht is the public API of this repository: a reproduction of
// "Efficient All-reduce for Distributed DNN Training in Optical Interconnect
// Systems" (Dai et al., PPoPP 2023). It plans and prices all-reduce
// operations for data-parallel DNN training on a WDM optical ring
// interconnect (the paper's Wrht scheme) and on electrical baselines
// (ring all-reduce, recursive doubling, and friends), using wavelength- and
// flow-level simulators underneath.
//
// Quick start — price one all-reduce on a dedicated ring:
//
//	cfg := wrht.DefaultConfig(1024)
//	res, err := wrht.CommunicationTime(cfg, wrht.AlgWrht, wrht.MustModel("VGG16").Bytes)
//	fmt.Println(res.Seconds)
//
// Multi-tenant fabric — co-schedule concurrent jobs sharing one ring's
// wavelength budget under static, first-fit, or priority-preemption
// partitioning (see fabric.go and DESIGN.md §3):
//
//	jobs := []wrht.JobSpec{
//		{Name: "serve", Model: "AlexNet", Priority: 2, MaxWavelengths: 16},
//		{Name: "train", Model: "VGG16", ArrivalSec: 1e-3},
//	}
//	fr, err := wrht.SimulateFabric(cfg, jobs, wrht.FabricPolicy{Kind: wrht.FabricPriority})
//	fmt.Println(fr.MakespanSec, fr.Fairness, fr.Utilization)
//
// Fault injection — replay any fabric or fleet simulation under a seeded,
// deterministic failure model (wavelength darkening, transient job crashes
// with checkpoint rollback, whole-fabric outages routed through a fleet
// recovery policy; see faultplan.go and DESIGN.md §10). The zero plan is
// guaranteed to leave every result bit-identical to a fault-free run:
//
//	plan := wrht.FaultPlan{
//		Seed: 1, HorizonSec: 0.1,
//		WavelengthMTBFSec: 20e-3, WavelengthMTTRSec: 2e-3,
//	}
//	fr, err = wrht.SimulateFabric(cfg, jobs, wrht.FabricPolicy{Kind: wrht.FabricElastic}, plan)
//	fmt.Println(fr.Retries, fr.LostWorkSec, fr.Availability)
//
// In a fleet, FleetOptions.Faults arms the same plan on the shared
// timeline and FleetOptions.Recovery picks what happens to jobs caught in
// fabric outages (wrht.RecoveryRetrySameFabric, wrht.RecoveryFailFast, or
// wrht.RecoveryMigrateOnFailure).
//
// Multi-axis experiments — declare a grid and let the concurrent engine
// price it with a shared plan cache (see sweep.go and DESIGN.md §6):
//
//	res, err := wrht.RunSweep(wrht.SweepSpec{
//		Nodes:  []int{128, 256, 512, 1024},
//		Models: []string{"AlexNet", "VGG16"},
//	})
//
// Pricing runs on a zero-allocation fast path — symmetry-aware classed
// schedules, pooled simulator state, and memoization at every layer (plan →
// schedule → simulation, plus fabric runtime curves; DESIGN.md §7). A
// SweepSession keeps those caches warm across
// calls, so repeated sweeps and fabric co-simulations never recompute a
// configuration:
//
//	sess := wrht.NewSweepSession()
//	r1, _ := sess.RunSweep(spec)        // cold
//	r2, _ := sess.RunSweep(spec)        // served from the session caches
//	fmt.Println(sess.Stats())
//
// Sessions are safe for concurrent use (results stay bit-identical to
// serial calls), and every pricing surface has a Context variant that
// cancels in-flight simulations at event boundaries
// (sess.RunSweepContext, sess.SimulateFabricContext, …).
//
// Serving — cmd/serve runs an overload-safe HTTP/JSON pricing service
// over a sharded pool of warm sessions, with bounded admission (429 +
// Retry-After), per-request deadlines, duplicate-query coalescing, tiered
// degradation under sustained pressure, and graceful drain on SIGTERM;
// cmd/loadgen measures it (DESIGN.md §11):
//
//	go run ./cmd/serve -addr :8080
//	curl -s localhost:8080/v1/commtime \
//	    -d '{"Nodes":128,"Algorithm":"wrht","Bytes":1048576}'
//	go run ./cmd/loadgen -conc 8 -duration 5s
//
// Linting — the repository's invariants (seeded runs are bit-identical,
// //wrht:noalloc functions never allocate, ...Context variants thread
// their ctx, recorder methods guard before dereferencing) are enforced
// statically by the wrhtlint suite (internal/analysis, DESIGN.md §12).
// CI and TestRepoSelfClean keep the tree diagnostic-clean:
//
//	go run ./cmd/wrhtlint ./...          # whole module, exit 1 on findings
//	go run ./cmd/wrhtlint ./internal/sim # one subtree
//	go run ./cmd/wrhtlint -list          # rule catalogue
//
// A finding is fixed, or suppressed on its own line with a mandatory
// reason: //wrht:allow <rule> -- <why this one is safe>.
//
// Other surfaces: MultiRackTime (hierarchical rings), TrainingIteration
// (DDP overlap), ScheduleOutline (per-step inspection), EnergyReport.
// Runnable programs live in examples/ (quickstart, multi_tenant,
// ddp_training, …) and cmd/ (figure2, sweep, experiments, fabricsim,
// wrhtsim, wrhtviz, serve, loadgen); DESIGN.md holds the system map and
// evaluation defaults.
package wrht

import (
	"fmt"

	"wrht/internal/collective"
	"wrht/internal/core"
	"wrht/internal/dnn"
	"wrht/internal/electrical"
	"wrht/internal/exp"
	"wrht/internal/model"
	"wrht/internal/optical"
	"wrht/internal/runner"
	"wrht/internal/trace"
)

// Algorithm names an all-reduce algorithm/substrate combination.
type Algorithm string

const (
	// AlgERing is ring all-reduce on the electrical network (paper: E-Ring).
	AlgERing Algorithm = "e-ring"
	// AlgRD is recursive doubling on the electrical network (paper: RD).
	AlgRD Algorithm = "rd"
	// AlgHD is halving-doubling (Rabenseifner) on the electrical network.
	AlgHD Algorithm = "hd"
	// AlgBinomial is a binomial reduce+broadcast tree on the electrical network.
	AlgBinomial Algorithm = "binomial"
	// AlgORing is ring all-reduce on the optical ring with one wavelength
	// per transfer (paper: O-Ring).
	AlgORing Algorithm = "o-ring"
	// AlgORingStriped is the ablation variant of O-Ring striping each
	// transfer across all wavelengths.
	AlgORingStriped Algorithm = "o-ring-striped"
	// AlgWrht is the paper's scheme with the optimizer-chosen group size.
	AlgWrht Algorithm = "wrht"
	// AlgWrhtUnstriped is Wrht restricted to one wavelength per transfer
	// (the paper's literal wavelength accounting).
	AlgWrhtUnstriped Algorithm = "wrht-unstriped"
	// AlgWrhtPipelined is the chunked-pipeline extension of the unstriped
	// scheme: chunks flow through the tree stages concurrently on distinct
	// wavelengths (Config.PipelineChunks; default 64).
	AlgWrhtPipelined Algorithm = "wrht-pipelined"
)

// Algorithms returns every supported algorithm in report order.
func Algorithms() []Algorithm {
	return []Algorithm{
		AlgERing, AlgRD, AlgHD, AlgBinomial,
		AlgORing, AlgORingStriped, AlgWrht, AlgWrhtUnstriped, AlgWrhtPipelined,
	}
}

// PaperAlgorithms returns the four algorithms of the paper's Figure 2, in
// the paper's legend order.
func PaperAlgorithms() []Algorithm {
	return []Algorithm{AlgERing, AlgRD, AlgORing, AlgWrht}
}

// Config describes the cluster under test.
type Config struct {
	// Nodes is the worker count (the paper sweeps 128–1024).
	Nodes int
	// Optical parameterizes the WDM ring (TeraRack-like defaults).
	Optical optical.Params
	// Electrical parameterizes the SimGrid-like electrical network.
	Electrical electrical.Params
	// BytesPerElem is the gradient element width (4 = FP32).
	BytesPerElem int
	// WrhtGroupSize fixes Wrht's m; 0 lets the optimizer choose.
	WrhtGroupSize int
	// WrhtGreedyA2A switches Wrht to the greedy all-to-all trigger.
	WrhtGreedyA2A bool
	// PipelineChunks sets the chunk count for AlgWrhtPipelined (0 = 64).
	PipelineChunks int
}

// DefaultConfig returns the evaluation defaults for n workers (DESIGN.md §4).
func DefaultConfig(n int) Config {
	return Config{
		Nodes:        n,
		Optical:      optical.DefaultParams(),
		Electrical:   electrical.DefaultParams(),
		BytesPerElem: 4,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Nodes < 2 {
		return fmt.Errorf("wrht: need at least 2 nodes, got %d", c.Nodes)
	}
	if err := c.Optical.Validate(); err != nil {
		return err
	}
	if err := c.Electrical.Validate(); err != nil {
		return err
	}
	if c.BytesPerElem < 1 {
		return fmt.Errorf("wrht: BytesPerElem %d", c.BytesPerElem)
	}
	return nil
}

// Result is the outcome of pricing one algorithm.
type Result struct {
	Algorithm Algorithm
	// Substrate identifies the simulated network.
	Substrate string
	// Seconds is the simulated end-to-end communication time.
	Seconds float64
	// PredictedSeconds is the closed-form analytic time (internal/model).
	// It agrees with Seconds only where the model's assumptions hold: on
	// the paper's grid (n 128…4096, w ∈ {16, 32, 64}, the four catalog
	// models) the gap was 0.00% in every point, and in a 300-point seeded
	// random sample Wrht stayed within 1% at every w ≥ 32. Elsewhere it is
	// approximate: E-Ring and O-Ring were off by up to 5e-5 and 3e-4
	// (relative), Wrht under-predicted by up to 36.9% at w ≤ 16, and
	// wrht-pipelined (a round-splitting approximation) was off by up to
	// 3.7×. See the open ROADMAP item "Make the optimizer's cost model
	// agree with the pricer".
	PredictedSeconds float64
	// Steps is the number of synchronous communication steps.
	Steps int
	// MaxWavelengths is the peak number of lit wavelengths (optical only).
	MaxWavelengths int
}

// ModelSpec is a catalog entry of the paper's evaluation networks.
type ModelSpec struct {
	Name   string
	Params int64
	// Bytes is the FP32 gradient size.
	Bytes int64
	// Layers is the number of parameterized layers.
	Layers int
}

// Models returns the paper's four evaluation networks (AlexNet, VGG16,
// ResNet50, GoogLeNet) with layer-accurate parameter counts. Each call
// returns a fresh slice.
func Models() []ModelSpec {
	paper := dnn.PaperEntries()
	out := make([]ModelSpec, len(paper))
	for i, e := range paper {
		out[i] = modelSpec(e)
	}
	return out
}

// MustModel returns the named catalog model (the paper's four or the
// BERT-Large and GPT-2-XL extensions) or panics; use for known names.
func MustModel(name string) ModelSpec {
	e, err := dnn.Lookup(name)
	if err != nil {
		panic(err)
	}
	return modelSpec(e)
}

func modelSpec(e dnn.Entry) ModelSpec {
	return ModelSpec{Name: e.Name, Params: e.Params, Bytes: e.GradientBytes(4), Layers: e.Layers}
}

// wrhtOptions lowers the configuration to planner options for alg (striping
// is an algorithm property: only AlgWrht rides residual WDM capacity).
func wrhtOptions(cfg Config, alg Algorithm) core.Options {
	opts := core.DefaultOptions()
	opts.Cost = model.CostParamsOf(cfg.Optical)
	opts.Striping = alg == AlgWrht
	opts.M = cfg.WrhtGroupSize
	if cfg.WrhtGreedyA2A {
		opts.Policy = core.A2AGreedy
	}
	return opts
}

// pipelineChunks resolves the chunk count for AlgWrhtPipelined.
func pipelineChunks(cfg Config) int {
	if cfg.PipelineChunks == 0 {
		return 64
	}
	return cfg.PipelineChunks
}

// buildClassSchedule constructs the symmetry-aware classed schedule (and
// optional Wrht plan) for alg, together with the schedule's cache identity.
// It is the one schedule every production surface prices, simulates,
// outlines, and verifies: CommunicationTime, EventLevelTime, ScheduleOutline,
// and VerifyAlgorithm all build through it. Ring schedules and Wrht plans
// emit classes directly without materializing per-node transfers; the
// remaining algorithms build the boxed schedule and fingerprint it. With a
// session the schedule is cache-owned; without one the caller owns it.
//
// The cache identity names the schedule constructor: E-Ring, O-Ring and
// striped O-Ring all lower to the one ring schedule, RD, HD and Binomial to
// theirs, while the Wrht variants are identified by their plan signature.
func buildClassSchedule(cfg Config, alg Algorithm, elems int, sess *session) (*collective.ClassSchedule, *core.Plan, exp.ScheduleKey, error) {
	key := exp.ScheduleKey{N: cfg.Nodes, Elems: elems}
	if err := checkElems(elems); err != nil {
		return nil, nil, key, err
	}
	var build func() (*collective.ClassSchedule, error)
	var plan *core.Plan
	switch alg {
	case AlgERing, AlgORing, AlgORingStriped:
		key.Algorithm = "ring"
		build = func() (*collective.ClassSchedule, error) {
			return collective.RingAllReduceClassed(cfg.Nodes, elems)
		}
	case AlgRD:
		key.Algorithm = "rd"
		build = func() (*collective.ClassSchedule, error) {
			return classesOf(collective.RecursiveDoubling(cfg.Nodes, elems))
		}
	case AlgHD:
		key.Algorithm = "hd"
		build = func() (*collective.ClassSchedule, error) {
			return classesOf(collective.HalvingDoubling(cfg.Nodes, elems))
		}
	case AlgBinomial:
		key.Algorithm = "binomial"
		build = func() (*collective.ClassSchedule, error) {
			return classesOf(collective.BinomialTree(cfg.Nodes, elems))
		}
	case AlgWrht, AlgWrhtUnstriped, AlgWrhtPipelined:
		var err error
		plan, err = sess.buildPlan(cfg, alg)
		if err != nil {
			return nil, nil, key, err
		}
		key.Sig = plan.Sig()
		if alg == AlgWrhtPipelined {
			key.Chunks = pipelineChunks(cfg)
			build = func() (*collective.ClassSchedule, error) {
				return classesOf(plan.PipelinedSchedule(elems, pipelineChunks(cfg)))
			}
		} else {
			build = func() (*collective.ClassSchedule, error) {
				return plan.ClassSchedule(elems)
			}
		}
	default:
		return nil, nil, key, fmt.Errorf("wrht: unknown algorithm %q", alg)
	}
	if rec := sess.recorder(); rec != nil {
		// Wrap the build so certificate outcomes are recorded exactly once
		// per distinct schedule (cache hits re-serve the same build).
		inner := build
		build = func() (*collective.ClassSchedule, error) {
			cs, err := inner()
			if err == nil {
				cert, mat, dem := cs.CertStats()
				rec.Add("collective.schedules.built", 1)
				rec.Add("collective.steps.certified", int64(cert))
				rec.Add("collective.steps.materialized", int64(mat))
				rec.Add("collective.certificate.demotions", int64(dem))
			}
			return cs, err
		}
	}
	cls, err := sess.schedule(key, build)
	if err != nil {
		return nil, nil, key, err
	}
	return cls, plan, key, nil
}

// bufferElems rounds bytes up to whole elements of bpe bytes each, without
// the overflow bytes+bpe-1 would hit near math.MaxInt64.
func bufferElems(bytes int64, bpe int) int {
	n := bytes / int64(bpe)
	if bytes%int64(bpe) != 0 {
		n++
	}
	return int(n)
}

// checkElems rejects a buffer too large for the schedule forms, which index
// regions as int32.
func checkElems(elems int) error {
	if elems > collective.MaxElems {
		return fmt.Errorf("wrht: buffer of %d elements exceeds the %d-element schedule limit", elems, collective.MaxElems)
	}
	return nil
}

// classesOf fingerprints a boxed schedule construction result into classed
// form.
func classesOf(s *collective.Schedule, err error) (*collective.ClassSchedule, error) {
	if err != nil {
		return nil, err
	}
	return s.Classes(), nil
}

// isElectrical reports whether the algorithm runs on the electrical substrate.
func isElectrical(alg Algorithm) bool {
	switch alg {
	case AlgERing, AlgRD, AlgHD, AlgBinomial:
		return true
	default:
		return false
	}
}

// CommunicationTime simulates one all-reduce of `bytes` bytes under alg.
func CommunicationTime(cfg Config, alg Algorithm, bytes int64) (Result, error) {
	res, cls, err := communicationTime(cfg, alg, bytes, nil)
	if cls != nil {
		cls.Release() // session-free: the transient schedule is ours to recycle
	}
	return res, err
}

// communicationTime is CommunicationTime on the classed fast path — the
// schedule is built (or fingerprinted) in symmetry-aware classed form and
// priced per equivalence class — with the session supplying the
// plan/schedule/simulation caches (nil = uncached). It also returns the
// priced classed schedule so callers like EnergyEstimate can account
// aggregate costs without building the schedule a second time; the schedule
// is cache-owned when a session is present and caller-owned (releasable)
// otherwise.
func communicationTime(cfg Config, alg Algorithm, bytes int64, sess *session) (Result, *collective.ClassSchedule, error) {
	b, err := lowerBuffer(cfg, alg, bytes, sess)
	if err != nil {
		return Result{}, nil, err
	}
	cls := b.cls
	key := exp.SimKey{Sched: b.key, Electrical: isElectrical(alg)}
	if key.Electrical {
		key.ElecOpts = runner.ElectricalOptions{Params: cfg.Electrical, BytesPerElem: cfg.BytesPerElem}
	} else {
		key.OptOpts = runner.DefaultOpticalOptions()
		key.OptOpts.Params = cfg.Optical
		key.OptOpts.BytesPerElem = cfg.BytesPerElem
		key.OptOpts.DefaultWidth = defaultWidth(cfg, alg)
	}
	res, err := sess.simulate(key, cls)
	if err != nil {
		return Result{}, nil, err
	}
	return Result{
		Algorithm:        alg,
		Substrate:        res.Substrate,
		Seconds:          res.TotalSec,
		PredictedSeconds: predictSeconds(cfg, alg, b.plan, int64(b.elems)*int64(cfg.BytesPerElem)),
		Steps:            cls.NumSteps(),
		MaxWavelengths:   res.MaxWavelengths,
	}, cls, nil
}

// lowered is one buffer lowered for pricing: its element count (bytes
// rounded up to whole elements) and the classed schedule, Wrht plan (nil
// for the other algorithms) and schedule cache identity buildClassSchedule
// returned for it.
type lowered struct {
	elems int
	cls   *collective.ClassSchedule
	plan  *core.Plan
	key   exp.ScheduleKey
}

// lowerBuffer is the prologue every buffer-sized entry point shares
// (CommunicationTime, ScheduleOutline, EventLevelTime,
// InspectScheduleClasses): validate cfg, reject a non-positive size, round
// bytes up to whole elements and build the classed schedule. With a session
// the schedule is cache-owned; without one the caller releases it.
func lowerBuffer(cfg Config, alg Algorithm, bytes int64, sess *session) (lowered, error) {
	if err := cfg.Validate(); err != nil {
		return lowered{}, err
	}
	if bytes <= 0 {
		return lowered{}, fmt.Errorf("wrht: non-positive buffer size %d", bytes)
	}
	b := lowered{elems: bufferElems(bytes, cfg.BytesPerElem)}
	var err error
	b.cls, b.plan, b.key, err = buildClassSchedule(cfg, alg, b.elems, sess)
	return b, err
}

// defaultWidth is the stripe width of a transfer that sets none: striped
// O-Ring spreads every transfer across the whole wavelength budget, every
// other algorithm rides one wavelength per transfer.
func defaultWidth(cfg Config, alg Algorithm) int {
	if alg == AlgORingStriped {
		return cfg.Optical.Wavelengths
	}
	return 1
}

// predictSeconds is alg's closed-form communication time for a buffer of
// bytes (internal/model); plan is the Wrht plan for the Wrht variants and
// ignored otherwise. Result.PredictedSeconds and TrainingIteration's
// per-bucket timer both price through it; Result.PredictedSeconds records
// where it is exact and where it is approximate.
func predictSeconds(cfg Config, alg Algorithm, plan *core.Plan, bytes int64) float64 {
	switch alg {
	case AlgERing:
		return model.ERing(cfg.Nodes, bytes, cfg.Electrical)
	case AlgRD:
		return model.RD(cfg.Nodes, bytes, cfg.Electrical)
	case AlgHD:
		return model.HD(cfg.Nodes, bytes, cfg.Electrical)
	case AlgBinomial:
		return model.Binomial(cfg.Nodes, bytes, cfg.Electrical)
	case AlgORing:
		return model.ORing(cfg.Nodes, bytes, cfg.Optical)
	case AlgORingStriped:
		return model.ORingStriped(cfg.Nodes, bytes, cfg.Optical)
	case AlgWrht, AlgWrhtUnstriped:
		return model.Wrht(plan, bytes, cfg.Optical)
	case AlgWrhtPipelined:
		return model.WrhtPipelined(plan, bytes, cfg.Optical, pipelineChunks(cfg))
	}
	return 0
}

// Compare prices several algorithms on the same buffer, sharing one session
// so algorithms that lower to the same schedule (E-Ring and O-Ring both ride
// the ring schedule) build it once.
func Compare(cfg Config, algs []Algorithm, bytes int64) ([]Result, error) {
	return NewSweepSession().Compare(cfg, algs, bytes)
}

// VerifyAlgorithm executes the algorithm's schedule on real buffers with
// deterministic inputs and confirms every node ends with the exact
// elementwise sum — the correctness oracle behind every timing claim. It
// expands the same classed schedule the pricing path prices, so what is
// verified is what is timed. Use a small elems (e.g. 64) at large node
// counts; cost is O(N² · elems) for tree/all-to-all schedules.
func VerifyAlgorithm(cfg Config, alg Algorithm, elems int) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	cls, _, _, err := buildClassSchedule(cfg, alg, elems, nil)
	if err != nil {
		return err
	}
	defer cls.Release()
	return collective.VerifyAllReduce(cls.Expand())
}

// PlanSummary describes the Wrht plan the configuration produces.
type PlanSummary struct {
	GroupSize     int
	Steps         int
	TreeLevels    int
	A2AReps       int
	TreeStripe    int
	A2AStripe     int
	StepDemands   []int
	StepsUpperBnd int
	Description   string
}

// Plan returns the Wrht plan summary for the configuration.
func Plan(cfg Config) (PlanSummary, error) {
	if err := cfg.Validate(); err != nil {
		return PlanSummary{}, err
	}
	p, err := (*session)(nil).buildPlan(cfg, AlgWrht)
	if err != nil {
		return PlanSummary{}, err
	}
	if err := p.CheckInvariants(); err != nil {
		return PlanSummary{}, err
	}
	return PlanSummary{
		GroupSize:     p.M,
		Steps:         p.NumSteps(),
		TreeLevels:    len(p.ReduceLevels),
		A2AReps:       len(p.A2AReps),
		TreeStripe:    p.TreeStripe,
		A2AStripe:     p.A2AStripe,
		StepDemands:   p.WavelengthDemands(),
		StepsUpperBnd: p.StepsUpperBound(),
		Description:   p.String(),
	}, nil
}

// IterationReport is a data-parallel training-iteration simulation outcome.
type IterationReport struct {
	Model             string
	Algorithm         Algorithm
	IterationSec      float64
	ComputeSec        float64
	CommSec           float64
	ExposedCommSec    float64
	CommShare         float64
	ScalingEfficiency float64
	Buckets           int
}

// TrainingIteration simulates one bucketed-overlap DDP iteration of the named
// catalog model with gradients all-reduced by alg (analytic comm model).
func TrainingIteration(cfg Config, alg Algorithm, modelName string, bucketCapBytes int64) (IterationReport, error) {
	if err := cfg.Validate(); err != nil {
		return IterationReport{}, err
	}
	m, err := dnn.ByName(modelName)
	if err != nil {
		return IterationReport{}, err
	}
	timer, err := commTimer(cfg, alg)
	if err != nil {
		return IterationReport{}, err
	}
	res, err := trace.SimulateIteration(m, trace.DefaultCompute(m), bucketCapBytes, cfg.BytesPerElem, timer)
	if err != nil {
		return IterationReport{}, err
	}
	return IterationReport{
		Model:             m.Name,
		Algorithm:         alg,
		IterationSec:      res.IterationSec,
		ComputeSec:        res.ComputeSec,
		CommSec:           res.CommSec,
		ExposedCommSec:    res.ExposedCommSec,
		CommShare:         res.CommShare,
		ScalingEfficiency: res.ScalingEfficiency,
		Buckets:           res.Buckets,
	}, nil
}

// commTimer builds an analytic per-bucket timer for the algorithm (fast
// enough to call once per bucket per iteration): predictSeconds on a plan
// built once. Every Algorithm has a closed form; the pipelined variant's is
// the documented round-splitting approximation in core.PredictPipelinedTime.
func commTimer(cfg Config, alg Algorithm) (trace.CommTimer, error) {
	var plan *core.Plan
	switch alg {
	case AlgERing, AlgRD, AlgHD, AlgBinomial, AlgORing, AlgORingStriped:
	case AlgWrht, AlgWrhtUnstriped, AlgWrhtPipelined:
		var err error
		if plan, err = (*session)(nil).buildPlan(cfg, alg); err != nil {
			return nil, err
		}
		if chunks := pipelineChunks(cfg); alg == AlgWrhtPipelined && chunks < 1 {
			// Mirror CommunicationTime, which rejects the same value in
			// PipelinedSchedule, instead of silently pricing unpipelined.
			return nil, fmt.Errorf("wrht: pipeline chunks %d", chunks)
		}
	default:
		return nil, fmt.Errorf("wrht: no analytic timer for algorithm %q", alg)
	}
	return func(b int64) float64 { return predictSeconds(cfg, alg, plan, b) }, nil
}
