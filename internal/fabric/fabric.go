// Package fabric schedules concurrent all-reduce jobs onto one shared WDM
// optical ring fabric with a global wavelength budget. The paper prices a
// single all-reduce on a dedicated ring; a production optical interconnect
// serves many training jobs at once (TopoOpt, RAMP), contending for the same
// wavelength pool. This package models that regime: jobs arrive over time,
// pass admission control, receive disjoint sets of concrete wavelength
// indices under a partitioning policy, run for as long as their all-reduce
// takes at the granted stripe width, and release the wavelengths for queued
// tenants.
//
// Four policies are provided: a static split of the budget into tenant
// shares (the remainder of an inexact division is spread round-robin, so no
// wavelength is permanently dark), first-fit sharing from a common pool
// (small jobs may overtake a blocked head-of-line job), priority scheduling
// with preemption (a higher-priority arrival reclaims wavelengths from the
// lowest-priority running tenants; preempted work resumes pro-rata), and
// elastic re-allocation (every arrival and departure re-solves the stripe
// assignment for the live tenant set: running jobs widen up to their
// maximum when capacity frees, shrink — never fully preempt — to admit
// higher-priority arrivals, and each mid-flight width change pays a
// configurable optical reconfiguration penalty).
//
// The elastic solve is incremental: live tenants are indexed by priority
// tier with cached fill state, so an arrival or departure touches only the
// tiers whose water level can change while lower tiers' assignments stay
// untouched (and byte-identical to a from-scratch solve — see elastic.go).
// Together with the shape-keyed runtime-curve cache and the aggregate-only
// Lite stats mode this scales fabric co-simulation to million-event traces;
// internal/fleet runs many fabrics on one shared engine on top of the
// external-engine Scheduler API.
//
// The co-simulation is a discrete-event program on internal/sim, so runs are
// deterministic: same jobs, same policy, same trace. Per-job runtimes are
// supplied by the caller as a function of the granted wavelength count —
// the public API wires this to the full single-ring simulation path
// (wavelength assignment via internal/wdm and all), so fabric numbers are
// consistent with the paper harness by construction.
package fabric

import (
	"fmt"
	"math"

	"wrht/internal/faults"
	"wrht/internal/sim"
)

// Job is one tenant: an all-reduce workload arriving at a shared fabric.
type Job struct {
	// Name identifies the job in stats and traces; must be unique.
	Name string
	// ArrivalSec is when the job enters the fabric.
	ArrivalSec float64
	// Priority orders jobs under PriorityPreempt (higher wins). Ignored by
	// the other policies.
	Priority int
	// MinWavelengths is the smallest grant the job accepts (default 1). A
	// job whose minimum cannot ever be satisfied under the policy is
	// rejected at arrival (admission control).
	MinWavelengths int
	// MaxWavelengths is the grant the job asks for (default: whole budget).
	MaxWavelengths int
	// Iterations is the number of back-to-back all-reduces the job runs
	// (default 1).
	Iterations int
	// Shape keys the scheduler's shared runtime-curve cache: jobs with the
	// same non-zero Shape are priced by the same Runtime curve, so one
	// (shape, width) pair hits the runtime function at most once per
	// scheduler no matter how many tenants share the shape. Shape 0 (the
	// default) keeps a private per-job memo. Jobs sharing a Shape must
	// supply equivalent Runtime functions; Iterations may differ (the cache
	// stores one-iteration seconds).
	Shape int
	// CheckpointEverySec is how often (in productive service seconds) the
	// job checkpoints its progress. A transient fault (faults.JobFault)
	// rolls the job back to its last checkpoint and replays the tail; 0
	// (the default) means no checkpointing — a fault restarts the job from
	// scratch. Irrelevant without fault injection.
	CheckpointEverySec float64
	// Tag is an opaque caller tag carried through stats and outage
	// resubmissions (internal/fleet stores its trace index here). The
	// scheduler never reads it.
	Tag int
	// Runtime prices ONE all-reduce at stripe budget w (MinWavelengths <=
	// w <= MaxWavelengths). It must be positive and finite; wider grants
	// should not run slower. Preempted jobs resume pro-rata: remaining
	// work scales linearly with the fraction of the segment completed.
	Runtime func(w int) (float64, error)
}

// PolicyKind selects the wavelength-partitioning discipline.
type PolicyKind int

const (
	// StaticPartition splits the budget into Partitions equal shares; a
	// job occupies exactly one share and queues FIFO when all are busy.
	StaticPartition PolicyKind = iota
	// FirstFitShare grants each job min(MaxWavelengths, free) wavelengths
	// from a common pool, scanning the FIFO queue so a small job may start
	// while a wide head-of-line job waits.
	FirstFitShare
	// PriorityPreempt serves the queue in (priority, arrival, admission
	// index) order and lets a higher-priority job reclaim wavelengths from
	// running lower-priority tenants; preempted jobs requeue with their
	// remaining work and resume later.
	PriorityPreempt
	// ElasticReallocate re-solves the whole stripe assignment on every
	// arrival and departure: the live tenant set (running plus queued) is
	// re-partitioned by tiered water-filling — minimums first in (priority,
	// arrival, admission index) order with head-of-line blocking at the
	// first queued minimum that no longer fits, then the surplus one
	// wavelength at a time within each priority tier. Running jobs widen when capacity
	// frees and shrink (down to their minimum, never a full preemption) to
	// admit higher-priority arrivals; each mid-flight width change splits
	// the job's remaining work at the reconfiguration instant, re-prices
	// the tail at the new width, and pays Policy.ReconfigDelaySec of
	// optical switch settling. A widening that would not strictly improve
	// the job's projected completion (the penalty outweighs the wider
	// stripe on a nearly-done segment) is skipped, and a job due to finish
	// within the settling delay keeps its current width.
	ElasticReallocate
)

func (k PolicyKind) String() string {
	switch k {
	case StaticPartition:
		return "static"
	case FirstFitShare:
		return "first-fit"
	case PriorityPreempt:
		return "priority"
	case ElasticReallocate:
		return "elastic"
	default:
		return fmt.Sprintf("PolicyKind(%d)", int(k))
	}
}

// Policy is a policy kind plus its parameters.
type Policy struct {
	Kind PolicyKind
	// Partitions is the number of tenant shares under StaticPartition
	// (default 4, clamped to the budget when unset). Must not exceed the
	// wavelength budget. Each share is budget/Partitions wavelengths wide
	// and the remainder of an inexact division is distributed round-robin,
	// so the first budget mod Partitions shares are one wavelength wider
	// and every wavelength belongs to exactly one share.
	Partitions int
	// ReconfigDelaySec is the optical switch settling time a running job
	// pays for each mid-flight stripe change under ElasticReallocate (the
	// job holds its new wavelengths but makes no progress while the
	// switch retunes). Ignored by the other policies. Must be >= 0 and
	// finite; 0 models an idealized instantly-reconfigurable fabric.
	ReconfigDelaySec float64
}

// Validate checks the policy against a wavelength budget.
func (p Policy) Validate(budget int) error {
	switch p.Kind {
	case StaticPartition:
		parts := p.partitions(budget)
		if parts < 1 || parts > budget {
			return fmt.Errorf("fabric: %d partitions for budget %d", parts, budget)
		}
	case FirstFitShare, PriorityPreempt:
	case ElasticReallocate:
		if p.ReconfigDelaySec < 0 || math.IsNaN(p.ReconfigDelaySec) || math.IsInf(p.ReconfigDelaySec, 0) {
			return fmt.Errorf("fabric: reconfiguration delay %v", p.ReconfigDelaySec)
		}
	default:
		return fmt.Errorf("fabric: unknown policy kind %v", p.Kind)
	}
	return nil
}

// partitions returns the effective share count for StaticPartition:
// Partitions when set, else 4 clamped to the budget.
func (p Policy) partitions(budget int) int {
	if p.Partitions == 0 {
		if budget < 4 {
			return budget
		}
		return 4
	}
	return p.Partitions
}

// shareWidths returns the per-share wavelength counts under StaticPartition:
// budget/parts each, with the remainder of the division spread round-robin
// over the leading shares (widest shares first).
func (p Policy) shareWidths(budget int) []int {
	parts := p.partitions(budget)
	base, rem := budget/parts, budget%parts
	widths := make([]int, parts)
	for i := range widths {
		widths[i] = base
		if i < rem {
			widths[i]++
		}
	}
	return widths
}

// EventKind tags one entry of the fabric trace.
type EventKind int

const (
	EvArrive EventKind = iota
	EvReject
	EvStart
	EvPreempt
	EvResume
	EvFinish
	// EvReconfig records a mid-flight stripe change under ElasticReallocate:
	// the job now holds Wavelengths wavelengths (wider or narrower than
	// before) and stalls for the policy's reconfiguration delay before its
	// re-priced tail resumes.
	EvReconfig
	// EvWavelengthDown / EvWavelengthUp record injected fabric-level
	// wavelength faults (Job is empty, Wavelengths is the affected count):
	// the live budget shrinks until the matching restore.
	EvWavelengthDown
	EvWavelengthUp
	// EvJobFault records a transient crash of the running job: work since
	// its last checkpoint is lost and the re-priced tail replays at the
	// same stripe width.
	EvJobFault
	// EvEvict records a job forced off the fabric (dark wavelengths below
	// its floor, or a whole-fabric outage); it retries after a capped
	// exponential backoff or is replayed by the fleet's recovery policy.
	EvEvict
	// EvRetry records an evicted job re-entering the wait queue.
	EvRetry
)

func (k EventKind) String() string {
	switch k {
	case EvArrive:
		return "arrive"
	case EvReject:
		return "reject"
	case EvStart:
		return "start"
	case EvPreempt:
		return "preempt"
	case EvResume:
		return "resume"
	case EvFinish:
		return "finish"
	case EvReconfig:
		return "reconfig"
	case EvWavelengthDown:
		return "wavelength-down"
	case EvWavelengthUp:
		return "wavelength-up"
	case EvJobFault:
		return "job-fault"
	case EvEvict:
		return "evict"
	case EvRetry:
		return "retry"
	default:
		return fmt.Sprintf("EventKind(%d)", int(k))
	}
}

// Event is one entry of the fabric trace: what happened to which job when,
// and how many wavelengths it held afterwards.
type Event struct {
	TimeSec     float64
	Job         string
	Kind        EventKind
	Wavelengths int
}

// JobStats is the per-tenant outcome of a fabric simulation.
type JobStats struct {
	Name     string
	Rejected bool
	// ArrivalSec, StartSec and DoneSec are absolute simulation times;
	// QueueSec = StartSec - ArrivalSec is the initial queueing delay and
	// ServiceSec the total time actually spent running (across segments).
	ArrivalSec float64
	StartSec   float64
	DoneSec    float64
	QueueSec   float64
	ServiceSec float64
	// Wavelengths is the concrete wavelength index set of the final run
	// segment; Width is its size.
	Wavelengths []int
	Width       int
	Preemptions int
	// Reconfigs counts mid-flight stripe changes under ElasticReallocate
	// (each one stalled the job for the policy's reconfiguration delay,
	// which is included in ServiceSec — the job held wavelengths while the
	// switch settled).
	Reconfigs int
	// AloneSec is the job's runtime had it run alone at its widest grant
	// (MaxWavelengths, clamped to the budget) with no contention;
	// Slowdown = (DoneSec-ArrivalSec)/AloneSec >= 1 measures what sharing
	// cost this tenant.
	AloneSec float64
	Slowdown float64
	// Retries / Evictions count fault-recovery round trips: how often the
	// job was forced off the fabric (dark wavelengths, outages) and how
	// often it re-entered the queue after a backoff.
	Retries   int
	Evictions int
	// LostWorkSec is productive service discarded by transient faults and
	// outages: work past the job's last checkpoint that had to be replayed
	// (all of it when CheckpointEverySec is 0).
	LostWorkSec float64
	// Failed marks a job whose per-job retry budget ran out; like a
	// rejected job it has no completion or slowdown.
	Failed bool
}

// SolverStats counts the scheduling work a run performed. Under
// ElasticReallocate they measure how much of each re-solve the tier index
// skipped. The curve counters track the shape-keyed runtime cache
// (Job.Shape) and stay zero for shape-0 jobs.
type SolverStats struct {
	// Solves is the number of elastic re-solve passes (coalesced per
	// simulated instant).
	Solves int64
	// TiersTouched / TiersSkipped count priority tiers the solver filled
	// exactly vs. proved untouched (assignments carried over byte-identical
	// without visiting members).
	TiersTouched int64
	TiersSkipped int64
	// JobsRepriced counts member jobs whose target width was recomputed
	// (the water-fill visited them); jobs in skipped tiers are not
	// re-priced.
	JobsRepriced int64
	// CurveHits / CurveBuilds count shape-keyed runtime-curve lookups that
	// were served from cache vs. priced through the job's Runtime function.
	CurveHits   int64
	CurveBuilds int64
}

func (a SolverStats) add(b SolverStats) SolverStats {
	a.Solves += b.Solves
	a.TiersTouched += b.TiersTouched
	a.TiersSkipped += b.TiersSkipped
	a.JobsRepriced += b.JobsRepriced
	a.CurveHits += b.CurveHits
	a.CurveBuilds += b.CurveBuilds
	return a
}

// Sum returns the elementwise sum of two counter sets (fleet aggregation).
func (a SolverStats) Sum(b SolverStats) SolverStats { return a.add(b) }

// Result is the outcome of co-simulating all jobs on the shared fabric.
type Result struct {
	Policy Policy
	Budget int
	// Jobs and Events are nil when the run used SchedOpts.Lite (only the
	// aggregate fields below are kept).
	Jobs   []JobStats
	Events []Event
	// MakespanSec is the completion time of the last job.
	MakespanSec  float64
	MeanQueueSec float64
	MaxQueueSec  float64
	MeanSlowdown float64
	// Fairness is Jain's index over completed jobs' slowdowns (1 = every
	// tenant slowed equally).
	Fairness float64
	// Utilization is lit wavelength-seconds over budget x makespan.
	Utilization float64
	// PeakWavelengths is the most wavelengths simultaneously allocated.
	PeakWavelengths int
	RejectedJobs    int
	// CompletedJobs counts jobs that ran to completion (available in Lite
	// mode where Jobs is nil).
	CompletedJobs int
	// Preemptions/Reconfigs total the per-job counters (available in Lite
	// mode where Jobs is nil).
	Preemptions int
	Reconfigs   int
	// SlowdownSum / SlowdownSumSq are Σ slowdown and Σ slowdown² over
	// completed jobs — enough to recombine mean and Jain fairness across
	// fabrics (internal/fleet) without per-job stats.
	SlowdownSum   float64
	SlowdownSumSq float64
	// Solver counts the scheduling work the run performed.
	Solver SolverStats
	// Fault-recovery aggregates (all zero on fault-free runs). JobFaults
	// counts injected transient crashes, Evictions/Retries total the
	// per-job counters, FailedJobs counts exhausted retry budgets, and
	// LostWorkSec totals replayed service.
	JobFaults   int
	Evictions   int
	Retries     int
	FailedJobs  int
	LostWorkSec float64
	// Availability is the fraction of the fabric's wavelength-second
	// capacity (budget × makespan) that was not dark from injected faults
	// or outages; 1 on fault-free runs.
	Availability float64
}

// jobRec is the scheduler's mutable view of one job.
type jobRec struct {
	Job
	idx   int
	state int // 0 queued (pre-arrival), 1 waiting, 2 running, 3 done, 4 rejected
	waves []int
	// The running segment: it started at segStart and completes segLen
	// later. segPenalty is its leading reconfiguration stall
	// (ElasticReallocate): the job holds wavelengths but makes no progress
	// during it, so pro-rata work accounting nets it out.
	segStart   float64
	segLen     float64
	segPenalty float64
	remaining  float64
	epoch      int
	// curve is the scheduler's runtime row for the job's shared Shape
	// (nil for shape 0, which memoizes privately in memo).
	curve *runtimeRow

	// Incremental elastic solver state (elastic.go): the tier of the job's
	// priority (resolved at submit; the job is one of its members from
	// admission until it stops running), its per-solve fill target, and
	// the per-solve widen-veto cap (valid when the stamp matches the
	// current solve number).
	tier      *elTier
	elTarget  int
	vetoCap   int
	vetoStamp int64

	share int // occupied share index under StaticPartition, else -1
	st    JobStats
	memo  map[int]float64

	// Fault-recovery state: spent retry budget, and the checkpoint the job
	// would roll back to on a crash — the remaining-work fraction at its
	// last checkpoint plus the productive service accumulated since
	// (ckptRemaining starts at 1: "checkpoint zero" is the job's start).
	retries       int
	ckptRemaining float64
	ckptService   float64

	// runPos is the job's index in scheduler.liveRun while running (-1
	// otherwise), for O(1) removal at completion under Lite mode.
	runPos int
}

const (
	stWaiting  = 1
	stRunning  = 2
	stDone     = 3
	stRejected = 4
	// stParked: evicted by a fault, waiting out its retry backoff.
	stParked = 5
	// stEvicted: left this fabric in an outage; the fleet owns it now.
	stEvicted = 6
	// stFailed: retry budget exhausted, permanently failed.
	stFailed = 7
)

// cancelCheckEvery is how many executed events separate two cancellation
// polls of SchedOpts.Cancel — coarse enough to be free on the hot path,
// fine enough that a deadline kills a runaway co-simulation in well under a
// millisecond of wall time.
const cancelCheckEvery = 1024

// Simulate co-schedules the jobs on a fabric of `budget` wavelengths under
// the policy and returns per-job and aggregate statistics plus the full
// event trace. The simulation is deterministic.
//
// A non-empty failure plan is injected on the run's private engine; an
// empty plan leaves every result bit-identical to the fault-free path.
// Fabric outage events are rejected — whole-fabric recovery needs a fleet
// (internal/fleet) — and so are wavelength faults under StaticPartition
// (shares are position-fixed; there is no pool to shrink).
//
// opt.Rec attaches a flight recorder: the run becomes one recorder process
// (named opt.Proc — give each simulation a unique name so concurrent runs
// stay on disjoint tracks), every job an instant/span track
// (arrive/start/preempt/reconfig/finish markers plus run/settle segments),
// queue depth and lit wavelengths counter tracks, and each wavelength index
// an occupancy lane labeled with the holding job. The recorder is
// write-only — scheduling decisions never read it — and a nil recorder
// costs one branch per event. opt.Cancel abandons the run at an event
// boundary and returns the hook's error.
func Simulate(budget int, jobs []Job, pol Policy, plan faults.Plan, opt SchedOpts) (Result, error) {
	var evs []faults.Event
	if !plan.Empty() {
		if err := plan.Validate(1); err != nil {
			return Result{}, err
		}
		var err error
		evs, err = plan.Events(1)
		if err != nil {
			return Result{}, err
		}
		if faults.HasFabricEvents(evs) {
			return Result{}, fmt.Errorf("fabric: fabric outage events need a fleet (internal/fleet)")
		}
		if pol.Kind == StaticPartition && faults.HasWavelengthEvents(evs) {
			return Result{}, fmt.Errorf("fabric: wavelength faults are not supported under StaticPartition")
		}
		opt.Retry = plan.Retry
	}
	if budget < 1 {
		return Result{}, fmt.Errorf("fabric: wavelength budget %d", budget)
	}
	if len(jobs) == 0 {
		return Result{}, fmt.Errorf("fabric: no jobs")
	}
	var eng sim.Engine
	s, err := NewScheduler(&eng, budget, pol, opt)
	if err != nil {
		return Result{}, err
	}
	s.s.ownEng = true
	for i := range jobs {
		if err := s.Submit(&jobs[i]); err != nil {
			return Result{}, err
		}
	}
	s.s.faultEvs = evs
	for i, ev := range evs {
		eng.Schedule(ev.TimeSec, s.s.hFault, int32(i))
	}
	if _, err := eng.RunChecked(cancelCheckEvery, opt.Cancel); err != nil {
		return Result{}, err
	}
	return s.Finalize()
}
