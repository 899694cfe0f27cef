package fabric

import (
	"fmt"
	"math"
	"sort"

	"wrht/internal/faults"
	"wrht/internal/obs"
	"wrht/internal/sim"
	"wrht/internal/stats"
)

// SchedOpts configures a Scheduler beyond its budget and policy.
type SchedOpts struct {
	// Rec attaches a flight recorder (nil disables observability). With
	// Lite set, per-job tracks and lanes are skipped and only the run's
	// aggregate counters are recorded at Finalize.
	Rec *obs.Recorder
	// Proc names the recorder process for this fabric (one process per
	// scheduler; give concurrent fabrics unique names).
	Proc string
	// Lite switches the scheduler to aggregate-only statistics: no event
	// trace, no per-job JobStats, no duplicate-name check, and completed
	// job records are recycled — memory stays O(live jobs), not O(total
	// jobs), which is what lets trace-driven fleet runs scale to 10^6
	// events. Result.Jobs and Result.Events are nil; every aggregate field
	// is still exact.
	Lite bool
	// TrackLoad maintains per-priority committed-load counters so fleet
	// placement can query LoadAtOrAbove in O(distinct priorities).
	TrackLoad bool
	// Faults arms the failure-recovery machinery (checkpoint tracking,
	// park/retry with backoff, dark-wavelength accounting). Disarmed (the
	// default), none of its branches execute and results are bit-identical
	// to a scheduler without it.
	Faults bool
	// Retry bounds eviction recovery: capped exponential backoff between
	// retries and a per-job retry budget (zero values take
	// faults.Retry defaults). Only read when Faults is set.
	Retry faults.Retry
	// OnEvict, when set, receives jobs that arrive while the fabric is down
	// from an outage, instead of parking them locally — the fleet layer
	// re-routes them per its recovery policy. (Jobs resident at Outage()
	// time are returned by Outage itself.)
	OnEvict func(Resubmit)
	// Cancel, when set, is polled at event boundaries (every
	// sim.Engine.RunChecked interval) by the Simulate* entry points; a
	// non-nil return abandons the co-simulation with that error. This is
	// how serving deadlines propagate into a running fabric simulation.
	// Ignored by callers that drive the engine themselves (internal/fleet
	// has its own Options.Cancel).
	Cancel func() error
}

// Scheduler is one fabric's scheduler bound to an externally owned event
// engine, so several fabrics can co-simulate on a single timeline
// (internal/fleet). Submit jobs (before or during the run, with arrivals
// not in the engine's past), drive the engine, then Finalize.
//
// Simulate remains the one-fabric entry point; it is a thin wrapper over
// this API.
type Scheduler struct {
	s *scheduler
}

// NewScheduler validates the budget and policy and returns a scheduler
// bound to eng. The engine must outlive the scheduler; Finalize may only be
// called once eng has drained.
func NewScheduler(eng *sim.Engine, budget int, pol Policy, opt SchedOpts) (*Scheduler, error) {
	if budget < 1 {
		return nil, fmt.Errorf("fabric: wavelength budget %d", budget)
	}
	if err := pol.Validate(budget); err != nil {
		return nil, err
	}
	s := &scheduler{
		eng: eng, pol: pol, budget: budget,
		free: make([]bool, budget), nfree: budget,
		lite: opt.Lite,
	}
	for c := range s.free {
		s.free[c] = true
	}
	if opt.Rec.Enabled() {
		s.rec = opt.Rec
		s.proc = opt.Rec.Process(opt.Proc)
	}
	if opt.TrackLoad {
		s.prioLoad = map[int]int{}
	}
	if pol.Kind == StaticPartition {
		s.shareWidth = pol.shareWidths(budget)
		s.shareBusy = make([]bool, len(s.shareWidth))
	}
	if pol.Kind == ElasticReallocate && !pol.fullSolve {
		s.el = newElasticIndex()
	}
	if !opt.Lite {
		s.seen = map[string]bool{}
	}
	if opt.Faults {
		if err := opt.Retry.Validate(); err != nil {
			return nil, err
		}
		s.faultsOn = true
		s.retry = opt.Retry.WithDefaults()
		s.onEvict = opt.OnEvict
	}
	return &Scheduler{s: s}, nil
}

// Submit validates one job and schedules its arrival. The arrival must not
// lie in the engine's past. Under Lite mode names are not deduplicated (and
// may be empty); otherwise an empty name defaults to "job<n>" in submission
// order.
func (f *Scheduler) Submit(j Job) error {
	return f.s.submit(j)
}

// Finalize closes the run and returns its statistics. The engine must have
// drained (every submitted job completed or been rejected).
func (f *Scheduler) Finalize() (Result, error) {
	s := f.s
	if s.err != nil {
		return Result{}, s.err
	}
	if s.rec != nil {
		s.recordTotals()
	}
	return s.finalize()
}

// Budget returns the fabric's wavelength budget.
func (f *Scheduler) Budget() int { return f.s.budget }

// FreeWavelengths returns the currently unallocated wavelength count.
func (f *Scheduler) FreeWavelengths() int { return f.s.nfree }

// CommittedLoad is the wavelength demand already accepted: the sum of
// running stripe widths plus queued jobs' minimum grants.
func (f *Scheduler) CommittedLoad() int { return f.s.busyNow + f.s.queuedMin }

// LiveJobs counts tenants currently running or queued.
func (f *Scheduler) LiveJobs() int { return f.s.liveJobs }

// LoadAtOrAbove is the committed load (running widths + queued minimums)
// from jobs with priority >= p. Requires SchedOpts.TrackLoad.
func (f *Scheduler) LoadAtOrAbove(p int) int {
	n := 0
	for prio, load := range f.s.prioLoad {
		if prio >= p {
			n += load
		}
	}
	return n
}

// SolverStats returns the run's scheduling-work counters so far.
func (f *Scheduler) SolverStats() SolverStats { return f.s.solver }

type scheduler struct {
	eng    *sim.Engine
	pol    Policy
	budget int
	free   []bool // free[c] = wavelength c unallocated
	nfree  int
	queue  []*jobRec
	recs   []*jobRec
	events []Event
	seen   map[string]bool // duplicate-name check (nil under Lite)
	nextID int             // submission index (jobRec.idx, auto-name suffix)

	// el is the incremental elastic solver's tier index (nil for the other
	// policies and for the reference full solver).
	el *elasticIndex

	// curves caches one-iteration runtimes keyed by (Job.Shape, width) for
	// shape-sharing jobs; shape-0 jobs memoize privately in jobRec.memo.
	curves map[int64]float64

	// solver counts scheduling work (always maintained; mirrored to the
	// recorder at Finalize).
	solver SolverStats

	// evCounts tallies emitted events per kind (kept in Lite mode where
	// the event slice itself is dropped).
	evCounts [EvRetry + 1]int64

	// Failure-recovery state (SchedOpts.Faults; all zero/idle otherwise).
	// darkTarget is the wavelength count requested dark by injected faults;
	// darkCount <= darkTarget is how many are physically dark so far
	// (settling waits for busy wavelengths to free), with darkIdx the
	// darkened indices in LIFO restore order. parked holds jobs waiting out
	// a retry backoff; down marks a whole-fabric outage.
	faultsOn    bool
	retry       faults.Retry
	onEvict     func(Resubmit)
	down        bool
	darkTarget  int
	darkCount   int
	darkIdx     []int
	parked      []*jobRec
	darkSec     float64 // Σ dark wavelength-seconds (availability)
	outages     int
	jobFaults   int
	evictions   int
	retriesN    int
	failedJobs  int
	evictedAway int // jobs handed to the fleet by an outage
	lostWorkSec float64

	// lite: aggregate-only mode (see SchedOpts.Lite).
	lite      bool
	freeRecs  []*jobRec // recycled jobRecs under Lite
	liveJobs  int       // running + waiting
	queuedMin int       // Σ MinWavelengths over queued jobs
	prioLoad  map[int]int
	// Lite aggregates over completed jobs.
	liteDone      int
	liteRejected  int
	liteSumQueue  float64
	liteMaxQueue  float64
	liteSumSlow   float64
	liteSumSlowSq float64
	liteMakespan  float64
	litePreempts  int
	liteReconfigs int

	// shareWidth holds the per-share wavelength counts under
	// StaticPartition (the remainder of an inexact division makes the
	// leading shares one wavelength wider); shareBusy marks shares
	// currently occupied by a tenant.
	shareWidth []int
	shareBusy  []bool

	// liveRun tracks running jobs for O(1) membership updates (jobRec.runPos),
	// replacing the all-records scan that Lite mode cannot afford.
	liveRun []*jobRec

	// solvePending coalesces ElasticReallocate re-solves: every arrival
	// and departure in one simulated instant triggers a single assignment
	// solve (scheduled at the same timestamp, after the instant's other
	// events), so physically simultaneous events cause one reconfiguration
	// decision instead of a cascade of transient ones.
	solvePending bool

	// ownEng marks a scheduler created by Simulate (it
	// owns the engine, so engine-wide counters are recorded at Finalize;
	// fleet runs record them once at the fleet layer instead).
	ownEng bool

	// utilization accounting
	lastT   float64
	busySec float64
	busyNow int
	peak    int

	// Flight recorder (nil when disabled): one process per simulation, a
	// span/instant track per job, queue-depth and lit-wavelength counter
	// tracks, and one occupancy lane per wavelength index.
	rec       *obs.Recorder
	proc      obs.ProcID
	jobTracks []obs.TrackID
	queueTk   obs.TrackID
	litTk     obs.TrackID
	obsTracks bool // per-job tracks/lanes enabled (recorder on, not Lite)
	ctkReady  bool // queue/lit counter tracks created
	faultTk   obs.TrackID
	darkTk    obs.TrackID
	ftkReady  bool // fault instant/dark counter tracks created

	err error
}

// submit normalizes and validates one job and schedules its arrival,
// mirroring the historical Simulate validation exactly (same error text,
// same defaulting).
func (s *scheduler) submit(j Job) error {
	idx := s.nextID
	if j.Name == "" && !s.lite {
		j.Name = fmt.Sprintf("job%d", idx)
	}
	if s.seen != nil {
		if s.seen[j.Name] {
			return fmt.Errorf("fabric: duplicate job name %q", j.Name)
		}
		s.seen[j.Name] = true
	}
	if j.ArrivalSec < 0 || math.IsNaN(j.ArrivalSec) || math.IsInf(j.ArrivalSec, 0) {
		return fmt.Errorf("fabric: job %q arrival %v", j.Name, j.ArrivalSec)
	}
	if j.MinWavelengths == 0 {
		j.MinWavelengths = 1
	}
	if j.MinWavelengths < 1 ||
		(j.MaxWavelengths != 0 && j.MaxWavelengths < j.MinWavelengths) {
		return fmt.Errorf("fabric: job %q wavelength range [%d,%d]",
			j.Name, j.MinWavelengths, j.MaxWavelengths)
	}
	// A minimum beyond the budget is not a spec error: admission control
	// rejects that job at arrival while the rest of the mix still runs.
	if j.MaxWavelengths == 0 || j.MaxWavelengths > s.budget {
		j.MaxWavelengths = s.budget
	}
	if j.Iterations == 0 {
		j.Iterations = 1
	}
	if j.Iterations < 1 {
		return fmt.Errorf("fabric: job %q iterations %d", j.Name, j.Iterations)
	}
	if j.Runtime == nil {
		return fmt.Errorf("fabric: job %q has no runtime function", j.Name)
	}
	s.nextID++
	r := s.newRec(j, idx)
	if !s.lite {
		s.recs = append(s.recs, r)
		if s.rec != nil {
			s.obsTracks = true
			s.jobTracks = append(s.jobTracks, s.rec.Track(s.proc, r.Name))
		}
	}
	s.eng.At(r.ArrivalSec, func() { s.arrive(r) })
	return nil
}

// newRec builds (or, under Lite, recycles) a job record.
func (s *scheduler) newRec(j Job, idx int) *jobRec {
	if n := len(s.freeRecs); n > 0 {
		r := s.freeRecs[n-1]
		s.freeRecs = s.freeRecs[:n-1]
		epoch := r.epoch // stays monotonic so stale events never resurrect
		waves := r.waves[:0]
		*r = jobRec{
			Job: j, idx: idx, remaining: 1, share: -1,
			st:    JobStats{Name: j.Name, ArrivalSec: j.ArrivalSec},
			epoch: epoch, waves: waves, runPos: -1, ckptRemaining: 1,
		}
		return r
	}
	return &jobRec{
		Job: j, idx: idx, remaining: 1, share: -1,
		st:     JobStats{Name: j.Name, ArrivalSec: j.ArrivalSec},
		runPos: -1, ckptRemaining: 1,
	}
}

// price returns the job's full-workload runtime (all iterations) at width
// w, through the shape-keyed curve cache for shape-sharing jobs or the
// job's private memo otherwise.
func (s *scheduler) price(r *jobRec, w int) (float64, error) {
	if r.Shape != 0 {
		key := int64(r.Shape)<<32 | int64(w)
		if v, ok := s.curves[key]; ok {
			s.solver.CurveHits++
			return v * float64(r.Iterations), nil
		}
		one, err := s.priceOne(r, w)
		if err != nil {
			return 0, err
		}
		if s.curves == nil {
			s.curves = map[int64]float64{}
		}
		s.curves[key] = one
		s.solver.CurveBuilds++
		return one * float64(r.Iterations), nil
	}
	if v, ok := r.memo[w]; ok {
		return v, nil
	}
	one, err := s.priceOne(r, w)
	if err != nil {
		return 0, err
	}
	v := one * float64(r.Iterations)
	if r.memo == nil {
		r.memo = map[int]float64{}
	}
	r.memo[w] = v
	return v, nil
}

// priceOne calls the job's runtime function for one all-reduce at width w
// and validates the result.
func (s *scheduler) priceOne(r *jobRec, w int) (float64, error) {
	one, err := r.Runtime(w)
	if err != nil {
		return 0, fmt.Errorf("fabric: job %q at width %d: %w", r.Name, w, err)
	}
	if one <= 0 || math.IsNaN(one) || math.IsInf(one, 0) {
		return 0, fmt.Errorf("fabric: job %q runtime %v at width %d", r.Name, one, w)
	}
	return one, nil
}

// recordTotals rolls the finished simulation up into recorder counters and
// gauges: engine stats (event count, heap high-water mark — only when this
// scheduler owns the engine), per-kind trace event counts, solver-work
// counters, and the lit wavelength-second integral.
func (s *scheduler) recordTotals() {
	s.rec.Add("fabric.sims", 1)
	if s.ownEng {
		s.rec.Add("fabric.engine.events", s.eng.Steps())
		s.rec.Gauge("fabric.engine.max_pending", float64(s.eng.MaxPending()))
	}
	s.rec.Gauge("fabric.peak_wavelengths", float64(s.peak))
	for k, c := range s.evCounts {
		if c > 0 {
			s.rec.Add(eventCounterName(EventKind(k)), c)
		}
	}
	if s.solver.Solves > 0 {
		s.rec.Add("fabric.solver.solves", s.solver.Solves)
		s.rec.Add("fabric.solver.tiers_touched", s.solver.TiersTouched)
		s.rec.Add("fabric.solver.tiers_skipped", s.solver.TiersSkipped)
		s.rec.Add("fabric.solver.jobs_repriced", s.solver.JobsRepriced)
	}
	if s.solver.CurveHits+s.solver.CurveBuilds > 0 {
		s.rec.Add("fabric.solver.curve_hits", s.solver.CurveHits)
		s.rec.Add("fabric.solver.curve_builds", s.solver.CurveBuilds)
	}
	s.rec.AddSeconds("fabric.lambda_busy_seconds", s.busySec)
	// Fault counters are only recorded when nonzero so fault-free metrics
	// snapshots stay byte-identical to runs without the machinery.
	if c := s.evCounts[EvWavelengthDown]; c > 0 {
		s.rec.Add("fabric.faults.wavelength_down", c)
	}
	if s.outages > 0 {
		s.rec.Add("fabric.faults.outages", int64(s.outages))
	}
	if s.jobFaults > 0 {
		s.rec.Add("fabric.faults.job_faults", int64(s.jobFaults))
	}
	if s.evictions > 0 {
		s.rec.Add("fabric.faults.evictions", int64(s.evictions))
	}
	if s.retriesN > 0 {
		s.rec.Add("fabric.faults.retries", int64(s.retriesN))
	}
	if s.failedJobs > 0 {
		s.rec.Add("fabric.faults.failed_jobs", int64(s.failedJobs))
	}
	if s.lostWorkSec > 0 {
		s.rec.AddSeconds("fabric.faults.lost_work_seconds", s.lostWorkSec)
	}
	if s.darkSec > 0 {
		s.rec.AddSeconds("fabric.faults.dark_lambda_seconds", s.darkSec)
	}
}

// eventCounterName maps an event kind to its fixed recorder counter name
// (fixed strings so the enabled path never concatenates).
func eventCounterName(k EventKind) string {
	switch k {
	case EvArrive:
		return "fabric.events.arrive"
	case EvReject:
		return "fabric.events.reject"
	case EvStart:
		return "fabric.events.start"
	case EvPreempt:
		return "fabric.events.preempt"
	case EvResume:
		return "fabric.events.resume"
	case EvFinish:
		return "fabric.events.finish"
	case EvReconfig:
		return "fabric.events.reconfig"
	case EvWavelengthDown:
		return "fabric.events.wavelength_down"
	case EvWavelengthUp:
		return "fabric.events.wavelength_up"
	case EvJobFault:
		return "fabric.events.job_fault"
	case EvEvict:
		return "fabric.events.evict"
	case EvRetry:
		return "fabric.events.retry"
	default:
		return "fabric.events.other"
	}
}

// fail aborts the simulation at the first runtime-function error; remaining
// events become no-ops.
func (s *scheduler) fail(err error) {
	if s.err == nil {
		s.err = err
	}
}

func (s *scheduler) emit(r *jobRec, kind EventKind, width int) {
	s.evCounts[kind]++
	if s.lite {
		return
	}
	s.events = append(s.events, Event{
		TimeSec: s.eng.Now(), Job: r.Name, Kind: kind, Wavelengths: width,
	})
	if s.rec != nil {
		if !s.ctkReady {
			s.ctkReady = true
			s.queueTk = s.rec.CounterTrack(s.proc, "queue depth")
			s.litTk = s.rec.CounterTrack(s.proc, "lit wavelengths")
		}
		now := s.eng.Now()
		s.rec.Instant(s.jobTracks[r.idx], kind.String(), now, int64(width))
		s.rec.Sample(s.queueTk, now, float64(len(s.queue)))
		s.rec.Sample(s.litTk, now, float64(s.busyNow))
	}
}

// lanesOn opens r's wavelength occupancy lanes at the current instant.
func (s *scheduler) lanesOn(r *jobRec) {
	if !s.obsTracks {
		return
	}
	now := s.eng.Now()
	for _, c := range r.waves {
		s.rec.LaneOn(s.proc, c, now, r.Name)
	}
}

// lanesOffAndCloseSeg closes r's occupancy lanes and records the finished
// run segment as a span (with a leading "settle" span for the
// reconfiguration stall, when one applied).
func (s *scheduler) lanesOffAndCloseSeg(r *jobRec) {
	if !s.obsTracks {
		return
	}
	now := s.eng.Now()
	for _, c := range r.waves {
		s.rec.LaneOff(s.proc, c, now)
	}
	if now <= r.segStart {
		return
	}
	tk := s.jobTracks[r.idx]
	width := obs.SpanArgs{Width: int64(len(r.waves))}
	runStart := r.segStart
	if r.segPenalty > 0 {
		settle := math.Min(r.segPenalty, now-r.segStart)
		s.rec.Span(tk, "settle", r.segStart, settle, width)
		runStart += settle
	}
	if now > runStart {
		s.rec.Span(tk, "run", runStart, now-runStart, width)
	}
}

// account integrates lit wavelength-seconds (and, when faults are armed,
// dark wavelength-seconds) up to the current time.
func (s *scheduler) account() {
	now := s.eng.Now()
	s.busySec += float64(s.busyNow) * (now - s.lastT)
	if s.faultsOn {
		s.darkSec += float64(s.darkNow()) * (now - s.lastT)
	}
	s.lastT = now
}

// maxGrant is the widest allocation any job can receive right now — the
// structural maximum minus any wavelengths dark from injected faults.
func (s *scheduler) maxGrant() int {
	if s.pol.Kind == StaticPartition {
		return s.shareWidth[0] // leading shares are widest
	}
	return s.budget - s.darkTarget
}

// structuralMax is the widest grant the fabric could ever satisfy with no
// wavelengths dark — the admission bound that separates a permanently
// impossible minimum (reject) from a temporarily unfittable one (park).
func (s *scheduler) structuralMax() int {
	if s.pol.Kind == StaticPartition {
		return s.shareWidth[0]
	}
	return s.budget
}

func (s *scheduler) arrive(r *jobRec) {
	if s.err != nil {
		return
	}
	if s.down {
		s.arriveDown(r)
		return
	}
	s.emit(r, EvArrive, 0)
	if r.MinWavelengths > s.maxGrant() {
		if s.faultsOn && r.MinWavelengths <= s.structuralMax() {
			// Only dark wavelengths block this job: park it for a backoff
			// retry instead of rejecting.
			s.liveJobs++
			s.park(r)
			return
		}
		// Admission control: this job can never be satisfied here.
		r.state = stRejected
		r.st.Rejected = true
		s.emit(r, EvReject, 0)
		if s.lite {
			s.liteRejected++
			s.recycle(r)
		}
		return
	}
	r.state = stWaiting
	s.liveJobs++
	s.queuedMin += r.MinWavelengths
	if s.prioLoad != nil {
		s.prioLoad[r.Priority] += r.MinWavelengths
	}
	if s.el != nil {
		s.el.enqueue(s, r) // keeps the wait queue sorted by jobLess
	} else {
		s.queue = append(s.queue, r)
	}
	s.dispatch()
}

// dequeued updates the committed-load accounting when r leaves the wait
// queue (to start, or at elastic admission).
func (s *scheduler) dequeued(r *jobRec) {
	s.queuedMin -= r.MinWavelengths
	if s.prioLoad != nil {
		s.prioLoad[r.Priority] -= r.MinWavelengths
	}
}

// allocate grants r the `width` lowest-indexed free wavelengths (first
// fit), reusing r's waves slice.
func (s *scheduler) allocate(r *jobRec, width int) {
	waves := r.waves[:0]
	for c := 0; c < s.budget && len(waves) < width; c++ {
		if s.free[c] {
			s.free[c] = false
			waves = append(waves, c)
		}
	}
	if len(waves) != width {
		panic(fmt.Sprintf("fabric: allocated %d of %d requested wavelengths", len(waves), width))
	}
	s.nfree -= width
	r.waves = waves
}

func (s *scheduler) release(waves []int) {
	for _, c := range waves {
		if s.free[c] {
			panic(fmt.Sprintf("fabric: double free of wavelength %d", c))
		}
		s.free[c] = true
	}
	s.nfree += len(waves)
}

// start grants `width` wavelengths to r and schedules its (remaining) run.
func (s *scheduler) start(r *jobRec, width int) {
	seg, err := s.price(r, width)
	if err != nil {
		s.fail(err)
		return
	}
	s.account()
	s.dequeued(r)
	if s.prioLoad != nil {
		s.prioLoad[r.Priority] += width
	}
	s.allocate(r, width)
	r.state = stRunning
	r.runPos = len(s.liveRun)
	s.liveRun = append(s.liveRun, r)
	r.segStart = s.eng.Now()
	r.segLen = seg * r.remaining
	r.segPenalty = 0
	r.st.Width = width
	if !s.lite {
		r.st.Wavelengths = append(r.st.Wavelengths[:0], r.waves...)
	}
	kind := EvStart
	if r.st.Preemptions > 0 {
		kind = EvResume
	} else {
		r.st.StartSec = s.eng.Now()
		r.st.QueueSec = r.st.StartSec - r.ArrivalSec
	}
	s.busyNow += width
	if s.busyNow > s.peak {
		s.peak = s.busyNow
	}
	s.emit(r, kind, width)
	s.lanesOn(r)
	r.epoch++
	epoch := r.epoch
	s.eng.After(r.segLen, func() { s.complete(r, epoch) })
}

// dropRunning removes r from the live-running index.
func (s *scheduler) dropRunning(r *jobRec) {
	last := len(s.liveRun) - 1
	other := s.liveRun[last]
	s.liveRun[r.runPos] = other
	other.runPos = r.runPos
	s.liveRun = s.liveRun[:last]
	r.runPos = -1
}

func (s *scheduler) complete(r *jobRec, epoch int) {
	if s.err != nil || r.epoch != epoch || r.state != stRunning {
		return // stale completion of a preempted segment
	}
	s.account()
	r.state = stDone
	r.remaining = 0
	r.st.ServiceSec += r.segLen
	r.st.DoneSec = s.eng.Now()
	s.lanesOffAndCloseSeg(r)
	s.busyNow -= len(r.waves)
	if s.prioLoad != nil {
		s.prioLoad[r.Priority] -= len(r.waves)
	}
	s.release(r.waves)
	r.waves = r.waves[:0]
	s.dropRunning(r)
	if r.share >= 0 {
		s.shareBusy[r.share] = false
		r.share = -1
	}
	if s.el != nil {
		s.el.removeMember(r)
	}
	s.liveJobs--
	s.emit(r, EvFinish, 0)
	if s.lite {
		s.liteFinish(r)
	}
	s.dispatch()
}

// liteFinish folds a completed job into the Lite aggregates and recycles
// its record.
func (s *scheduler) liteFinish(r *jobRec) {
	alone, err := s.price(r, r.MaxWavelengths)
	if err != nil {
		s.fail(err)
		return
	}
	slow := (r.st.DoneSec - r.st.ArrivalSec) / alone
	s.liteDone++
	s.liteSumQueue += r.st.QueueSec
	if r.st.QueueSec > s.liteMaxQueue {
		s.liteMaxQueue = r.st.QueueSec
	}
	s.liteSumSlow += slow
	s.liteSumSlowSq += slow * slow
	if r.st.DoneSec > s.liteMakespan {
		s.liteMakespan = r.st.DoneSec
	}
	s.litePreempts += r.st.Preemptions
	s.liteReconfigs += r.st.Reconfigs
	s.recycle(r)
}

// recycle returns a finished record to the freelist (Lite mode only). The
// epoch is preserved — it keeps growing across reuses, so stale completion
// events scheduled against a previous tenant can never fire on the new one.
func (s *scheduler) recycle(r *jobRec) {
	s.freeRecs = append(s.freeRecs, r)
}

// pause stops r's running segment at the current instant: completed work is
// credited pro-rata (remainingAt), the pending completion event is
// invalidated, and the job's wavelengths return to the pool. The caller
// decides what happens next — requeue (preemption) or an immediate restart
// at a new width (elastic reconfiguration).
func (s *scheduler) pause(r *jobRec) {
	s.account()
	now := s.eng.Now()
	if s.faultsOn {
		// Progress is kept (this is a graceful cut, not a crash), but the
		// checkpoint cursor must advance past the segment's productive run
		// so a later crash rolls back to the right point.
		run := now - r.segStart - r.segPenalty
		if run < 0 {
			run = 0
		}
		active := r.segLen - r.segPenalty
		if run > active {
			run = active
		}
		r.advanceCkpt(run, active)
	}
	r.remaining = r.remainingAt(now)
	r.st.ServiceSec += now - r.segStart
	r.epoch++ // invalidate the pending completion event
	s.lanesOffAndCloseSeg(r)
	s.busyNow -= len(r.waves)
	if s.prioLoad != nil {
		s.prioLoad[r.Priority] -= len(r.waves)
	}
	s.release(r.waves)
	r.waves = r.waves[:0]
	s.dropRunning(r)
}

// preempt pauses a running job, returning its wavelengths to the pool and
// requeueing its remaining work.
func (s *scheduler) preempt(r *jobRec) {
	s.pause(r)
	r.st.Preemptions++
	r.state = stWaiting
	s.queuedMin += r.MinWavelengths
	if s.prioLoad != nil {
		s.prioLoad[r.Priority] += r.MinWavelengths
	}
	s.queue = append(s.queue, r)
	s.emit(r, EvPreempt, 0)
}

// reconfigure restarts a paused job at a new stripe width without it ever
// leaving the fabric: the remaining work is re-priced at the new width and
// the segment is stretched by the policy's reconfiguration delay (optical
// switch settling — the job holds its new wavelengths but makes no progress
// until the stall elapses).
func (s *scheduler) reconfigure(r *jobRec, width int) {
	tail, err := s.price(r, width)
	if err != nil {
		s.fail(err)
		return
	}
	s.allocate(r, width)
	r.runPos = len(s.liveRun)
	s.liveRun = append(s.liveRun, r)
	r.segStart = s.eng.Now()
	r.segPenalty = s.pol.ReconfigDelaySec
	r.segLen = r.segPenalty + tail*r.remaining
	r.st.Width = width
	if !s.lite {
		r.st.Wavelengths = append(r.st.Wavelengths[:0], r.waves...)
	}
	r.st.Reconfigs++
	if s.prioLoad != nil {
		s.prioLoad[r.Priority] += width
	}
	s.busyNow += width
	if s.busyNow > s.peak {
		s.peak = s.busyNow
	}
	s.emit(r, EvReconfig, width)
	s.lanesOn(r)
	r.epoch++
	epoch := r.epoch
	s.eng.After(r.segLen, func() { s.complete(r, epoch) })
}

// dispatch runs the policy's scheduling pass over the wait queue. During a
// whole-fabric outage nothing starts; Restore re-dispatches.
func (s *scheduler) dispatch() {
	if s.err != nil || s.down {
		return
	}
	switch s.pol.Kind {
	case StaticPartition:
		s.dispatchStatic()
	case FirstFitShare:
		s.dispatchFirstFit()
	case PriorityPreempt:
		s.dispatchPriority()
	case ElasticReallocate:
		if !s.solvePending {
			s.solvePending = true
			s.eng.After(0, func() {
				s.solvePending = false
				if s.err == nil {
					s.dispatchElastic()
				}
			})
		}
	}
}

// dispatchStatic starts FIFO-queued jobs while a fitting tenant share is
// free. The head job takes the narrowest free share that covers its full
// appetite (so a width-capped job does not burn a wide remainder share
// another tenant could use), falling back to the widest free share that
// still fits its minimum; a job narrower than its share runs at its own
// MaxWavelengths cap (the rest of the share stays dark — static isolation:
// at most Partitions concurrent tenants). The queue is strictly FIFO: a
// head job waiting for one of the wider remainder shares blocks later
// arrivals.
func (s *scheduler) dispatchStatic() {
	for len(s.queue) > 0 {
		r := s.queue[0]
		desire := r.MaxWavelengths
		if w := s.shareWidth[0]; desire > w {
			desire = w
		}
		share := -1
		for i, busy := range s.shareBusy {
			if !busy && s.shareWidth[i] >= desire &&
				(share < 0 || s.shareWidth[i] < s.shareWidth[share]) {
				share = i
			}
		}
		if share < 0 {
			for i, busy := range s.shareBusy {
				if !busy && s.shareWidth[i] >= r.MinWavelengths &&
					(share < 0 || s.shareWidth[i] > s.shareWidth[share]) {
					share = i
				}
			}
		}
		if share < 0 {
			return // no fitting share free; head-of-line waits
		}
		s.queue = s.queue[1:]
		width := s.shareWidth[share]
		if r.MaxWavelengths < width {
			width = r.MaxWavelengths
		}
		s.shareBusy[share] = true
		r.share = share
		s.start(r, width)
		if s.err != nil {
			return
		}
	}
}

// dispatchFirstFit scans the queue in arrival order and starts every job
// whose minimum fits the remaining pool, granting up to its maximum.
func (s *scheduler) dispatchFirstFit() {
	if s.faultsOn {
		s.parkUnfittable()
	}
	var keep []*jobRec
	for _, r := range s.queue {
		if s.err == nil && r.MinWavelengths <= s.nfree {
			width := r.MaxWavelengths
			if width > s.nfree {
				width = s.nfree
			}
			s.start(r, width)
			continue
		}
		keep = append(keep, r)
	}
	s.queue = keep
}

// dispatchPriority serves the queue in jobLess order, preempting strictly
// lower-priority running jobs when the pool is short.
func (s *scheduler) dispatchPriority() {
	if s.faultsOn {
		s.parkUnfittable()
	}
	for s.err == nil && len(s.queue) > 0 {
		sort.SliceStable(s.queue, func(a, b int) bool {
			return jobLess(s.queue[a], s.queue[b])
		})
		head := s.queue[0]
		if head.MinWavelengths > s.nfree {
			// Reclaimable width from strictly lower-priority tenants.
			victims := s.victimsFor(head)
			reclaim := 0
			for _, v := range victims {
				reclaim += len(v.waves)
			}
			if s.nfree+reclaim < head.MinWavelengths {
				return // even preempting everything eligible is not enough
			}
			for _, v := range victims {
				if s.nfree >= head.MinWavelengths {
					break
				}
				s.preempt(v)
			}
		}
		s.queue = s.queue[1:]
		width := head.MaxWavelengths
		if width > s.nfree {
			width = s.nfree
		}
		s.start(head, width)
	}
}

// victimsFor lists running jobs preemptible by r: strictly lower priority,
// cheapest first (lowest priority, then latest arrival). A job whose
// segment is already due to complete at the current instant is not a
// victim — its pending completion event (same timestamp, later sequence)
// will free the wavelengths anyway, and preempting it would spuriously
// discard a finished run.
func (s *scheduler) victimsFor(r *jobRec) []*jobRec {
	now := s.eng.Now()
	var out []*jobRec
	for _, v := range s.liveRun {
		if v.Priority < r.Priority && now < v.segStart+v.segLen {
			out = append(out, v)
		}
	}
	sort.SliceStable(out, func(a, b int) bool {
		return jobLess(out[b], out[a])
	})
	return out
}

func (s *scheduler) finalize() (Result, error) {
	res := Result{
		Policy: s.pol, Budget: s.budget,
		Events:          s.events,
		PeakWavelengths: s.peak,
		Solver:          s.solver,
		JobFaults:       s.jobFaults,
		Evictions:       s.evictions,
		Retries:         s.retriesN,
		FailedJobs:      s.failedJobs,
		LostWorkSec:     s.lostWorkSec,
		Availability:    1,
	}
	if s.lite {
		if s.liveJobs > 0 {
			return Result{}, fmt.Errorf("fabric: %d jobs never completed (deadlock?)", s.liveJobs)
		}
		if s.liteDone == 0 && s.failedJobs == 0 && s.evictedAway == 0 {
			return Result{}, fmt.Errorf("fabric: every job was rejected")
		}
		res.RejectedJobs = s.liteRejected
		res.CompletedJobs = s.liteDone
		res.Preemptions = s.litePreempts
		res.Reconfigs = s.liteReconfigs
		res.MakespanSec = s.liteMakespan
		if s.liteDone > 0 {
			res.MeanQueueSec = s.liteSumQueue / float64(s.liteDone)
			res.MeanSlowdown = s.liteSumSlow / float64(s.liteDone)
		}
		res.MaxQueueSec = s.liteMaxQueue
		res.SlowdownSum = s.liteSumSlow
		res.SlowdownSumSq = s.liteSumSlowSq
		if s.liteSumSlowSq > 0 {
			res.Fairness = s.liteSumSlow * s.liteSumSlow /
				(float64(s.liteDone) * s.liteSumSlowSq)
		}
		if res.MakespanSec > 0 {
			res.Utilization = s.busySec / (float64(s.budget) * res.MakespanSec)
		}
		s.setAvailability(&res)
		return res, nil
	}
	var queues, slowdowns []float64
	for _, r := range s.recs {
		if r.state == stRejected {
			res.RejectedJobs++
			res.Jobs = append(res.Jobs, r.st)
			continue
		}
		if r.state == stEvicted {
			continue // left in an outage; the fleet replays it elsewhere
		}
		if r.state == stFailed {
			res.Jobs = append(res.Jobs, r.st)
			continue
		}
		if r.state != stDone {
			return Result{}, fmt.Errorf("fabric: job %q never completed (deadlock?)", r.Name)
		}
		alone, err := s.price(r, r.MaxWavelengths)
		if err != nil {
			return Result{}, err
		}
		r.st.AloneSec = alone
		r.st.Slowdown = (r.st.DoneSec - r.st.ArrivalSec) / alone
		if r.st.DoneSec > res.MakespanSec {
			res.MakespanSec = r.st.DoneSec
		}
		res.Preemptions += r.st.Preemptions
		res.Reconfigs += r.st.Reconfigs
		queues = append(queues, r.st.QueueSec)
		slowdowns = append(slowdowns, r.st.Slowdown)
		res.Jobs = append(res.Jobs, r.st)
	}
	if len(slowdowns) == 0 {
		if s.failedJobs == 0 && s.evictedAway == 0 {
			return Result{}, fmt.Errorf("fabric: every job was rejected")
		}
		if res.MakespanSec > 0 {
			res.Utilization = s.busySec / (float64(s.budget) * res.MakespanSec)
		}
		s.setAvailability(&res)
		return res, nil
	}
	res.CompletedJobs = len(slowdowns)
	for _, x := range slowdowns {
		res.SlowdownSum += x
		res.SlowdownSumSq += x * x
	}
	res.MeanQueueSec = stats.Mean(queues)
	res.MaxQueueSec = stats.Max(queues)
	res.MeanSlowdown = stats.Mean(slowdowns)
	res.Fairness = stats.JainIndex(slowdowns)
	if res.MakespanSec > 0 {
		res.Utilization = s.busySec / (float64(s.budget) * res.MakespanSec)
	}
	s.setAvailability(&res)
	return res, nil
}

// setAvailability fills res.Availability: the fraction of the fabric's
// wavelength-second capacity over the makespan that was not dark from
// injected faults or outages. Exactly 1 on fault-free runs (darkSec is only
// integrated with faults armed); clamped because dark intervals may extend
// past the last completion.
func (s *scheduler) setAvailability(res *Result) {
	if s.darkSec <= 0 || res.MakespanSec <= 0 {
		return
	}
	a := 1 - s.darkSec/(float64(s.budget)*res.MakespanSec)
	if a < 0 {
		a = 0
	}
	res.Availability = a
}

// remainingAt projects the fraction of r's total work still outstanding if
// its running segment were cut at time now: completed work is credited
// pro-rata, net of the segment's leading reconfiguration stall (during
// which no progress was made). pause applies this credit and widenPays
// previews it, so both must price the cut identically.
func (r *jobRec) remainingAt(now float64) float64 {
	active := r.segLen - r.segPenalty
	if active <= 0 {
		return 0
	}
	run := now - r.segStart - r.segPenalty
	if run < 0 {
		run = 0 // still inside the settling stall: no progress yet
	}
	frac := run / active
	if frac > 1 {
		frac = 1
	}
	return r.remaining * (1 - frac)
}
