// Package fleet co-simulates a datacenter of heterogeneous optical fabrics
// on one shared event timeline. Each fabric is an internal/fabric scheduler
// with its own wavelength budget, node count, and reconfiguration delay;
// jobs arrive from a (typically generated — see trace.go) trace and a
// placement policy routes each arrival to one fabric, paying an inter-fabric
// migration cost when a job lands away from its affinity fabric. This is
// the TopoOpt/RAMP regime on top of the paper's single-ring pricing: the
// incremental elastic solver and shape-keyed runtime curves keep
// million-event traces affordable.
package fleet

import (
	"fmt"
	"math"
	"sort"

	"wrht/internal/fabric"
	"wrht/internal/faults"
	"wrht/internal/obs"
	"wrht/internal/sim"
	"wrht/internal/stats"
)

// FabricSpec describes one fabric of the fleet: a ring of Nodes workers
// sharing Wavelengths optical wavelengths, with its own elastic
// reconfiguration delay and inter-fabric migration cost. It is also the
// public wrht.FleetFabricSpec, whose other substrate parameters (rates,
// overheads, BytesPerElem, ...) come from the Config passed to
// wrht.SimulateFleet.
type FabricSpec struct {
	// Name identifies the fabric in summaries and recorder processes
	// (default "fabric<i>").
	Name string
	// Nodes is the ring size of the fabric (>= 2; the runtime function
	// prices against it).
	Nodes int
	// Wavelengths is the fabric's wavelength budget (>= 1).
	Wavelengths int
	// ReconfigDelaySec is the optical switch settling time for elastic
	// stripe changes on this fabric. Must be >= 0 and finite.
	ReconfigDelaySec float64
	// MigrationCostSec is the delay a job pays before starting here when
	// placed away from its affinity fabric (checkpoint transfer plus
	// connection re-establishment). Must be >= 0 and finite.
	MigrationCostSec float64
}

// Validate mirrors JobSpec.Validate's style: every rejected field names
// itself and its value.
func (s FabricSpec) Validate() error {
	if s.Nodes < 2 {
		return fmt.Errorf("fleet: fabric %q node count %d (need >= 2)", s.Name, s.Nodes)
	}
	if s.Wavelengths < 1 {
		return fmt.Errorf("fleet: fabric %q wavelength budget %d (need >= 1)", s.Name, s.Wavelengths)
	}
	if s.ReconfigDelaySec < 0 || math.IsNaN(s.ReconfigDelaySec) || math.IsInf(s.ReconfigDelaySec, 0) {
		return fmt.Errorf("fleet: fabric %q reconfiguration delay %v", s.Name, s.ReconfigDelaySec)
	}
	if s.MigrationCostSec < 0 || math.IsNaN(s.MigrationCostSec) || math.IsInf(s.MigrationCostSec, 0) {
		return fmt.Errorf("fleet: fabric %q migration cost %v", s.Name, s.MigrationCostSec)
	}
	return nil
}

// PlacementKind selects the fleet's job-to-fabric routing policy.
type PlacementKind int

const (
	// LeastLoaded routes each arrival to the admissible fabric with the
	// lowest committed-load fraction (running widths plus queued minimums
	// over budget), ignoring migration cost.
	LeastLoaded PlacementKind = iota
	// BestFit routes to the admissible fabric whose free wavelength count
	// most tightly fits the job's desired width (classic best-fit bin
	// packing), falling back to the minimum grant and then to least load
	// when nothing currently fits.
	BestFit
	// PriorityAware scores each fabric by the projected cost to THIS job:
	// the migration delay it would pay to land there plus its solo runtime
	// scaled by the fabric's committed load at or above the job's priority
	// (lower-priority tenants shrink out of an elastic job's way, so they
	// do not count). It is the only policy that weighs migration cost
	// against contention.
	PriorityAware
)

func (k PlacementKind) String() string {
	switch k {
	case LeastLoaded:
		return "least-loaded"
	case BestFit:
		return "best-fit"
	case PriorityAware:
		return "priority-aware"
	default:
		return fmt.Sprintf("PlacementKind(%d)", int(k))
	}
}

func (k PlacementKind) validate() error {
	switch k {
	case LeastLoaded, BestFit, PriorityAware:
		return nil
	default:
		return fmt.Errorf("fleet: unknown placement kind %v", k)
	}
}

// Job is one trace entry: a tenant to be placed on some fabric of the
// fleet. It is also the public wrht.FleetJob.
type Job struct {
	// Name labels the job in per-job stats (default "j<i>"; unused and
	// left empty under Lite).
	Name string
	// ArrivalSec is when the job reaches the fleet front door. Placement
	// happens here; landing off-affinity adds the target fabric's
	// migration cost before the job enters that fabric's queue.
	ArrivalSec float64
	Priority   int
	// MinWavelengths (default 1, raised to the shape's structural floor)
	// and MaxWavelengths (default: the target fabric's whole budget) bound
	// the stripe grant; Iterations is the number of back-to-back
	// all-reduces (default 1).
	MinWavelengths int
	MaxWavelengths int
	Iterations     int
	// Shape indexes the job's model/workload shape (0-based, below the
	// shape count); jobs with the same shape share runtime curves.
	Shape int
	// Affinity is the job's home fabric index (where its data already
	// lives); -1 means no affinity (any first placement is free, and
	// off-affinity placements pay the target's MigrationCostSec).
	Affinity int
	// CheckpointEverySec is the job's checkpoint interval in productive
	// service seconds (0: no checkpointing). Only meaningful with fault
	// injection; checkpoints are fabric-local, so a job recovered onto a
	// different fabric restarts from scratch.
	CheckpointEverySec float64
}

func (j *Job) validate(i, nFabrics int, floors []int) error {
	if j.ArrivalSec < 0 || math.IsNaN(j.ArrivalSec) || math.IsInf(j.ArrivalSec, 0) {
		return fmt.Errorf("fleet: job %d (%q) arrival %v", i, j.Name, j.ArrivalSec)
	}
	if j.MinWavelengths < 0 || (j.MaxWavelengths != 0 && j.MaxWavelengths < j.MinWavelengths) {
		return fmt.Errorf("fleet: job %d (%q) wavelength range [%d,%d]",
			i, j.Name, j.MinWavelengths, j.MaxWavelengths)
	}
	if j.Iterations < 0 {
		return fmt.Errorf("fleet: job %d (%q) iterations %d", i, j.Name, j.Iterations)
	}
	if j.Shape < 0 || j.Shape >= len(floors) {
		return fmt.Errorf("fleet: job %d (%q) shape %d with %d shapes", i, j.Name, j.Shape, len(floors))
	}
	if floor := floors[j.Shape]; j.MaxWavelengths != 0 && j.MaxWavelengths < floor {
		return fmt.Errorf("fleet: job %d (%q) MaxWavelengths %d below shape %d's structural floor of %d wavelengths",
			i, j.Name, j.MaxWavelengths, j.Shape, floor)
	}
	if j.Affinity < -1 || j.Affinity >= nFabrics {
		return fmt.Errorf("fleet: job %d (%q) affinity %d with %d fabrics",
			i, j.Name, j.Affinity, nFabrics)
	}
	if c := j.CheckpointEverySec; c < 0 || math.IsNaN(c) || math.IsInf(c, 0) {
		return fmt.Errorf("fleet: job %d (%q) checkpoint interval %v", i, j.Name, c)
	}
	return nil
}

// RuntimeFunc prices ONE all-reduce iteration of shape `shape` on fabric
// `fab` at stripe width w. wrht.SimulateFleet wires this to the paper's
// single-ring simulation through the session runtime-curve cache.
type RuntimeFunc func(fab, shape, w int) (float64, error)

// Options configures a fleet co-simulation.
type Options struct {
	Placement PlacementKind
	// Policy is the per-fabric scheduling discipline (zero value is
	// StaticPartition, matching fabric.Policy; ElasticReallocate is the
	// intended fleet regime — each fabric's ReconfigDelaySec comes from
	// its spec).
	Policy fabric.PolicyKind
	// Lite selects aggregate-only statistics (required for 10^5+ jobs).
	Lite bool
	// Rec attaches a flight recorder: one process per fabric plus
	// fleet-level counters. Proc prefixes the per-fabric process names.
	Rec  *obs.Recorder
	Proc string
	// Faults is the failure plan injected on the shared timeline; its Retry
	// bounds backoff and per-job retry budgets at both the fabric and fleet
	// layers (zero values take faults.Retry defaults). Recovery is always
	// on and idle until a fault fires, so an empty plan yields exactly the
	// fault-free results.
	Faults faults.Plan
	// Recovery picks what happens to jobs caught in a fabric outage
	// (default RetrySameFabric).
	Recovery RecoveryPolicy
	// Cancel, when set, is polled every few thousand executed events on
	// the shared timeline; a non-nil return abandons the co-simulation
	// with that error. This is the seam serving deadlines use to stop a
	// killed fleet query from burning a worker to completion.
	Cancel func() error
}

// FabricSummary is one fabric's share of a fleet run.
type FabricSummary struct {
	Name   string
	Budget int
	// Placed counts jobs routed here; Migrated those that paid a
	// migration to land here.
	Placed   int
	Migrated int
	// Result is the fabric's own co-simulation outcome (zero-valued when
	// no job was placed here). Queue and slowdown figures are measured
	// from the job's fabric arrival, i.e. net of migration delay.
	Result fabric.Result
}

// PlacedJob maps one job to its placement outcome (full-stats mode only).
type PlacedJob struct {
	Name     string
	Fabric   int
	Migrated bool
	// MigrationSec is the delay paid before entering the fabric queue.
	MigrationSec float64
	Stats        fabric.JobStats
}

// Result is the fleet-wide outcome.
type Result struct {
	Placement PlacementKind
	Fabrics   int
	Jobs      int
	// Completed/Rejected tally job outcomes fleet-wide; Unplaceable counts
	// jobs no fabric could ever admit (minimum above every budget) —
	// rejected at the fleet front door, included in Rejected.
	Completed   int
	Rejected    int
	Unplaceable int
	// Migrations counts off-affinity placements; MigrationSec totals the
	// delay they paid.
	Migrations   int
	MigrationSec float64
	MakespanSec  float64
	MeanQueueSec float64
	MaxQueueSec  float64
	MeanSlowdown float64
	// Fairness is Jain's index over completed jobs' slowdowns, fleet-wide.
	Fairness float64
	// Utilization is lit wavelength-seconds over total budget x fleet
	// makespan.
	Utilization float64
	Reconfigs   int
	Preemptions int
	// EngineEvents is the shared event-loop's executed event count — the
	// "10^6-event trace" scale measure BenchmarkFabricTrace reports.
	EngineEvents int64
	// Solver sums the per-fabric scheduling-work counters.
	Solver    fabric.SolverStats
	PerFabric []FabricSummary
	// PerJob maps jobs to placements (nil under Lite).
	PerJob []PlacedJob
	// Fault-recovery aggregates (all zero on fault-free runs). Outages
	// counts whole-fabric failures; Killed jobs dropped by FailFast;
	// FailedJobs exhausted retry budgets (fleet- and fabric-level);
	// JobFaults/Evictions/Retries/LostWorkSec sum the per-fabric counters
	// plus work discarded by cross-fabric restarts.
	Outages     int
	Killed      int
	JobFaults   int
	Evictions   int
	Retries     int
	FailedJobs  int
	LostWorkSec float64
	// Availability is the capacity-weighted fraction of fleet
	// wavelength-second capacity (total budget × fleet makespan) not lost
	// to dark wavelengths or outages; 1 on fault-free runs.
	Availability float64
	// P99Slowdown is the 99th-percentile completed-job slowdown
	// (nearest-rank; 0 under Lite, where per-job stats are dropped).
	P99Slowdown float64
}

// Simulate places every job of the trace onto the fleet and co-simulates
// all fabrics on one shared event timeline. floors has one entry per
// workload shape: the smallest stripe grant that shape can run with (0 or
// 1 when it has none), which raises every job's MinWavelengths. Simulate
// writes none of specs, floors and jobs. Deterministic: same inputs
// produce the identical Result.
func Simulate(specs []FabricSpec, floors []int, jobs []Job, rt RuntimeFunc, opt Options) (Result, error) {
	if len(specs) == 0 {
		return Result{}, fmt.Errorf("fleet: empty fleet (no fabric specs)")
	}
	if len(jobs) == 0 {
		return Result{}, fmt.Errorf("fleet: no jobs")
	}
	if rt == nil {
		return Result{}, fmt.Errorf("fleet: no runtime function")
	}
	if err := opt.Placement.validate(); err != nil {
		return Result{}, err
	}
	specs = append([]FabricSpec(nil), specs...)
	for i := range specs {
		if specs[i].Name == "" {
			specs[i].Name = fmt.Sprintf("fabric%d", i)
		}
		if err := specs[i].Validate(); err != nil {
			return Result{}, err
		}
	}
	for i := range jobs {
		if err := jobs[i].validate(i, len(specs), floors); err != nil {
			return Result{}, err
		}
	}
	var evs []faults.Event
	if opt.Faults.Empty() {
		// An empty plan fires no fault, so its retry bounds are never
		// read; they are not validated either.
		opt.Faults.Retry = faults.Retry{}
	} else {
		if err := opt.Faults.Validate(len(specs)); err != nil {
			return Result{}, err
		}
		if err := opt.Recovery.validate(); err != nil {
			return Result{}, err
		}
		var err error
		if evs, err = opt.Faults.Events(len(specs)); err != nil {
			return Result{}, err
		}
		if opt.Policy == fabric.StaticPartition && faults.HasWavelengthEvents(evs) {
			return Result{}, fmt.Errorf("fleet: wavelength faults are not supported under StaticPartition")
		}
	}

	f := &fleet{specs: specs, floors: floors, jobs: jobs, rt: rt, opt: opt, evs: evs}
	return f.run()
}

// fleet is one co-simulation in flight.
type fleet struct {
	specs  []FabricSpec
	floors []int // per-shape structural floor (see Simulate)
	jobs   []Job
	rt     RuntimeFunc
	opt    Options

	eng    sim.Engine
	hFeed  sim.HandlerID // the arrival feeder (feed)
	scheds []*fabric.Scheduler
	// loads are the fabrics' wavelength accounting, kept current by their
	// schedulers (SchedOpts.Load) in one dense array that choose scans.
	loads []fabric.Load
	// rtFns memoizes the runtime closure of each (fabric, shape), at
	// fab*len(floors)+shape, so a million-job trace does not allocate a
	// closure per job.
	rtFns []func(w int) (float64, error)

	placed      []int
	migrated    []int
	order       []int // job indices sorted by (ArrivalSec, index)
	next        int
	unplaceable int
	migrations  int
	migrationS  float64
	placements  []PlacedJob // full-stats mode only
	placeIdx    []int       // job index -> placements index (full mode; -1 unplaced)
	err         error

	// Fault-recovery state. pendSame holds outage-evicted jobs waiting for
	// their own fabric's repair (RetrySameFabric); pendAny jobs waiting for
	// ANY admissible fabric to come up (MigrateOnFailure with the whole
	// admissible set down, and front-door arrivals in the same situation).
	evs      []faults.Event
	retry    faults.Retry
	down     []bool
	pendSame [][]fabric.Resubmit
	pendAny  []pendRes
	outagesN int
	killed   int
	failedN  int
	lostAdj  float64 // work discarded by cross-fabric restarts
}

// pendRes is one job parked at the fleet layer waiting for a repair: the
// resubmission state plus the fabric it was evicted from (-1: never placed).
type pendRes struct {
	from int
	rs   fabric.Resubmit
}

func (f *fleet) run() (Result, error) {
	opt := f.opt
	f.scheds = make([]*fabric.Scheduler, len(f.specs))
	f.loads = make([]fabric.Load, len(f.specs))
	f.rtFns = make([]func(w int) (float64, error), len(f.specs)*len(f.floors))
	f.placed = make([]int, len(f.specs))
	f.migrated = make([]int, len(f.specs))
	f.retry = opt.Faults.Retry.WithDefaults()
	f.down = make([]bool, len(f.specs))
	f.pendSame = make([][]fabric.Resubmit, len(f.specs))
	if !opt.Lite {
		f.placeIdx = make([]int, len(f.jobs))
		for i := range f.placeIdx {
			f.placeIdx[i] = -1
		}
	}
	for i := range f.specs {
		spec := &f.specs[i]
		pol := fabric.Policy{Kind: opt.Policy, ReconfigDelaySec: spec.ReconfigDelaySec}
		proc := spec.Name
		if opt.Proc != "" {
			proc = opt.Proc + " · " + spec.Name
		}
		sch, err := fabric.NewScheduler(&f.eng, spec.Wavelengths, pol, fabric.SchedOpts{
			Rec: opt.Rec, Proc: proc, Lite: opt.Lite,
			TrackLoad: opt.Placement == PriorityAware,
			Load:      &f.loads[i],
			Retry:     opt.Faults.Retry,
			OnEvict:   func(rs fabric.Resubmit) { f.recover(i, rs) },
		})
		if err != nil {
			return Result{}, err
		}
		f.scheds[i] = sch
	}

	f.order = make([]int, len(f.jobs))
	for i := range f.order {
		f.order[i] = i
	}
	sort.SliceStable(f.order, func(a, b int) bool {
		return f.jobs[f.order[a]].ArrivalSec < f.jobs[f.order[b]].ArrivalSec
	})
	// One feeder event per distinct arrival instant keeps the engine queue
	// at O(live jobs), not O(trace length).
	f.hFeed = f.eng.Register(func(int32) { f.feed() })
	f.eng.Schedule(f.jobs[f.order[0]].ArrivalSec, f.hFeed, 0)
	// Fault events ride the same timeline (hInject's arg indexes f.evs); at
	// equal instants the feeder's earlier sequence number places arrivals
	// before faults, deterministically.
	hInject := f.eng.Register(func(i int32) { f.inject(f.evs[i]) })
	for i, ev := range f.evs {
		f.eng.Schedule(ev.TimeSec, hInject, int32(i))
	}
	if _, err := f.eng.RunChecked(1024, opt.Cancel); err != nil {
		return Result{}, err
	}
	if f.err != nil {
		return Result{}, f.err
	}
	return f.finish()
}

// feed places every job arriving at the current instant and re-arms itself
// for the next arrival.
func (f *fleet) feed() {
	now := f.eng.Now()
	for f.next < len(f.order) && f.jobs[f.order[f.next]].ArrivalSec == now {
		if f.err == nil {
			f.place(f.order[f.next])
		}
		f.next++
	}
	if f.next < len(f.order) && f.err == nil {
		f.eng.Schedule(f.jobs[f.order[f.next]].ArrivalSec, f.hFeed, 0)
	}
}

// runtimeFor returns the memoized fabric.Job runtime closure for (fab,
// shape).
func (f *fleet) runtimeFor(fab, shape int) func(w int) (float64, error) {
	k := fab*len(f.floors) + shape
	if fn := f.rtFns[k]; fn != nil {
		return fn
	}
	rt := f.rt
	fn := func(w int) (float64, error) { return rt(fab, shape, w) }
	f.rtFns[k] = fn
	return fn
}

// minWidth is job j's smallest admissible grant: its own minimum raised
// to its shape's structural floor.
func (f *fleet) minWidth(j *Job) int {
	return max(j.MinWavelengths, f.floors[j.Shape])
}

// place routes job i to a fabric and submits it.
func (f *fleet) place(i int) {
	j := &f.jobs[i]
	minW := f.minWidth(j)
	fab := f.choose(j, minW)
	if fab < 0 {
		if f.err == nil && f.anyDownFits(minW) {
			f.deferArrival(i)
			return
		}
		f.unplaceable++
		return
	}
	now := f.eng.Now()
	delay := 0.0
	migratedHere := j.Affinity >= 0 && fab != j.Affinity
	if migratedHere {
		delay = f.migrateTo(fab)
	}
	f.placed[fab]++
	fj := f.fabricJob(i, now+delay)
	fj.Runtime = f.runtimeFor(fab, j.Shape)
	if err := f.scheds[fab].Submit(&fj); err != nil {
		f.err = err
		return
	}
	if !f.opt.Lite {
		f.placeIdx[i] = len(f.placements)
		f.placements = append(f.placements, PlacedJob{
			Name: fj.Name, Fabric: fab, Migrated: migratedHere, MigrationSec: delay,
		})
	}
}

// migrateTo counts a migration onto fabric fab and returns its delay.
func (f *fleet) migrateTo(fab int) float64 {
	f.migrations++
	f.migrationS += f.specs[fab].MigrationCostSec
	f.migrated[fab]++
	return f.specs[fab].MigrationCostSec
}

// fabricJob lowers trace job i to a fabric job arriving at `arrival`. The
// runtime is left to the caller, since it depends on the target fabric.
func (f *fleet) fabricJob(i int, arrival float64) fabric.Job {
	j := &f.jobs[i]
	name := j.Name
	if name == "" && !f.opt.Lite {
		name = fmt.Sprintf("j%d", i)
	}
	return fabric.Job{
		Name:               name,
		ArrivalSec:         arrival,
		Priority:           j.Priority,
		MinWavelengths:     f.minWidth(j),
		MaxWavelengths:     j.MaxWavelengths,
		Iterations:         j.Iterations,
		Shape:              j.Shape + 1, // fabric shape 0 = private curve
		CheckpointEverySec: j.CheckpointEverySec,
		Tag:                i,
	}
}

// choose scores the admissible fabrics under the placement policy and
// returns the winner (-1 when no fabric can ever admit the job). All
// tie-breaks are deterministic: better score, then the affinity fabric,
// then the lowest index.
func (f *fleet) choose(j *Job, minW int) int {
	best, bestScore := -1, math.Inf(1)
	desire := j.MaxWavelengths
	for i := range f.specs {
		spec := &f.specs[i]
		if minW > spec.Wavelengths || f.down[i] {
			continue
		}
		var score float64
		switch f.opt.Placement {
		case LeastLoaded:
			score = float64(f.loads[i].Committed()) / float64(spec.Wavelengths)
		case BestFit:
			want := desire
			if want == 0 || want > spec.Wavelengths {
				want = spec.Wavelengths
			}
			free := f.loads[i].Free
			switch {
			case free >= want:
				// Tightest fit for the full appetite.
				score = float64(free - want)
			case free >= minW:
				// Can start now at reduced width: worse than any full fit.
				score = 1e6 + float64(free-minW)
			default:
				// Must queue: fall back to least load.
				score = 1e12 + float64(f.loads[i].Committed())/float64(spec.Wavelengths)
			}
		case PriorityAware:
			alone, err := f.aloneSec(i, j, spec)
			if err != nil {
				f.err = err
				return -1
			}
			contention := float64(f.scheds[i].LoadAtOrAbove(j.Priority)) / float64(spec.Wavelengths)
			score = contention * alone
			if j.Affinity >= 0 && i != j.Affinity {
				score += spec.MigrationCostSec
			}
		}
		if score < bestScore ||
			(score == bestScore && j.Affinity >= 0 && i == j.Affinity && best != j.Affinity) {
			best, bestScore = i, score
		}
	}
	return best
}

// aloneSec prices the job's solo runtime at its widest grant on fabric i
// (through the shared shape curves, so this is a cache hit after the first
// placement of a shape on a fabric).
func (f *fleet) aloneSec(i int, j *Job, spec *FabricSpec) (float64, error) {
	w := j.MaxWavelengths
	if w == 0 || w > spec.Wavelengths {
		w = spec.Wavelengths
	}
	one, err := f.rt(i, j.Shape, w)
	if err != nil {
		return 0, fmt.Errorf("fleet: pricing shape %d on fabric %q at width %d: %w",
			j.Shape, spec.Name, w, err)
	}
	iters := j.Iterations
	if iters == 0 {
		iters = 1
	}
	return one * float64(iters), nil
}

// finish finalizes every fabric and folds the fleet aggregates.
func (f *fleet) finish() (Result, error) {
	res := Result{
		Placement:    f.opt.Placement,
		Fabrics:      len(f.specs),
		Jobs:         len(f.jobs),
		Unplaceable:  f.unplaceable,
		Rejected:     f.unplaceable,
		Migrations:   f.migrations,
		MigrationSec: f.migrationS,
		EngineEvents: f.eng.Steps(),
		PerFabric:    make([]FabricSummary, len(f.specs)),
	}
	// Jobs still parked at the fleet layer (a scripted outage with no
	// matching repair) are failed before folding the aggregates.
	for fi := range f.pendSame {
		for _, rs := range f.pendSame[fi] {
			f.abandon(rs)
		}
		f.pendSame[fi] = nil
	}
	for _, p := range f.pendAny {
		f.abandon(p.rs)
	}
	f.pendAny = nil
	totalBudget := 0
	busy, darkLost := 0.0, 0.0
	var slowSum, slowSumSq, queueSum float64
	for i, spec := range f.specs {
		sum := FabricSummary{
			Name: spec.Name, Budget: spec.Wavelengths,
			Placed: f.placed[i], Migrated: f.migrated[i],
		}
		totalBudget += spec.Wavelengths
		if f.placed[i] > 0 {
			fr, err := f.scheds[i].Finalize()
			if err != nil {
				return Result{}, fmt.Errorf("fleet: fabric %q: %w", spec.Name, err)
			}
			sum.Result = fr
			res.Completed += fr.CompletedJobs
			res.Rejected += fr.RejectedJobs
			res.Reconfigs += fr.Reconfigs
			res.Preemptions += fr.Preemptions
			res.JobFaults += fr.JobFaults
			res.Evictions += fr.Evictions
			res.Retries += fr.Retries
			res.FailedJobs += fr.FailedJobs
			res.LostWorkSec += fr.LostWorkSec
			res.Solver = res.Solver.Sum(fr.Solver)
			if fr.MakespanSec > res.MakespanSec {
				res.MakespanSec = fr.MakespanSec
			}
			if fr.MaxQueueSec > res.MaxQueueSec {
				res.MaxQueueSec = fr.MaxQueueSec
			}
			queueSum += fr.MeanQueueSec * float64(fr.CompletedJobs)
			slowSum += fr.SlowdownSum
			slowSumSq += fr.SlowdownSumSq
			busy += fr.Utilization * float64(spec.Wavelengths) * fr.MakespanSec
			darkLost += (1 - fr.Availability) * float64(spec.Wavelengths) * fr.MakespanSec
		}
		res.PerFabric[i] = sum
	}
	res.Outages = f.outagesN
	res.Killed = f.killed
	res.FailedJobs += f.failedN
	res.LostWorkSec += f.lostAdj
	if res.Completed == 0 && res.Killed == 0 && res.FailedJobs == 0 {
		return Result{}, fmt.Errorf("fleet: every job was rejected")
	}
	if n := float64(res.Completed); n > 0 {
		res.MeanQueueSec = queueSum / n
		res.MeanSlowdown = slowSum / n
		if slowSumSq > 0 {
			res.Fairness = slowSum * slowSum / (n * slowSumSq)
		}
	}
	if res.MakespanSec > 0 && totalBudget > 0 {
		res.Utilization = busy / (float64(totalBudget) * res.MakespanSec)
	}
	res.Availability = 1
	if darkLost > 0 && res.MakespanSec > 0 && totalBudget > 0 {
		a := 1 - darkLost/(float64(totalBudget)*res.MakespanSec)
		if a < 0 {
			a = 0
		}
		res.Availability = a
	}
	if !f.opt.Lite {
		res.PerJob = f.placements
		// byName indexes each fabric's per-job stats once; the first job of
		// a name wins.
		byName := make([]map[string]int, len(f.specs))
		var slows []float64
		for pi := range res.PerJob {
			p := &res.PerJob[pi]
			jobs := res.PerFabric[p.Fabric].Result.Jobs
			if byName[p.Fabric] == nil {
				byName[p.Fabric] = make(map[string]int, len(jobs))
				for k := len(jobs) - 1; k >= 0; k-- {
					byName[p.Fabric][jobs[k].Name] = k
				}
			}
			if k, ok := byName[p.Fabric][p.Name]; ok {
				p.Stats = jobs[k]
			}
			if s := p.Stats; !s.Rejected && !s.Failed && s.Slowdown > 0 {
				slows = append(slows, s.Slowdown)
			}
		}
		res.P99Slowdown = stats.Percentile(slows, 99)
	}
	if f.opt.Rec.Enabled() {
		f.opt.Rec.Add("fleet.sims", 1)
		f.opt.Rec.Add("fleet.jobs", int64(len(f.jobs)))
		f.opt.Rec.Add("fleet.migrations", int64(f.migrations))
		f.opt.Rec.Add("fleet.engine.events", f.eng.Steps())
		f.opt.Rec.Gauge("fleet.engine.max_pending", float64(f.eng.MaxPending()))
		if res.Outages > 0 {
			f.opt.Rec.Add("fleet.outages", int64(res.Outages))
		}
		if res.Killed > 0 {
			f.opt.Rec.Add("fleet.killed", int64(res.Killed))
		}
		if res.FailedJobs > 0 {
			f.opt.Rec.Add("fleet.failed_jobs", int64(res.FailedJobs))
		}
	}
	return res, nil
}
