package fabric

import (
	"fmt"
	"math"
	"math/bits"
	"sort"

	"wrht/internal/faults"
	"wrht/internal/obs"
	"wrht/internal/sim"
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
	// Load, when set, is where the scheduler keeps its wavelength
	// accounting (reset at NewScheduler), so a fleet can score placements
	// from one dense array of its fabrics' loads instead of asking each
	// scheduler. Nil keeps it private.
	Load *Load
	// Retry bounds fault recovery: capped exponential backoff between
	// retries and a per-job retry budget (zero values take faults.Retry
	// defaults). Recovery itself is always on and does nothing until a
	// fault is injected, so Retry is only read after one.
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
		free: make([]uint64, (budget+63)/64),
		lite: opt.Lite,
	}
	s.load = opt.Load
	if s.load == nil {
		s.load = &s.ownLoad
	}
	*s.load = Load{Free: budget}
	for c := 0; c < budget; c++ {
		s.free[c>>6] |= 1 << (c & 63)
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
	if pol.Kind == ElasticReallocate && elasticReference == nil {
		s.el = &elasticIndex{}
	}
	if !opt.Lite {
		s.seen = map[string]bool{}
	}
	if err := opt.Retry.Validate(); err != nil {
		return nil, err
	}
	s.retry = opt.Retry.WithDefaults()
	s.onEvict = opt.OnEvict
	s.register()
	return &Scheduler{s: s}, nil
}

// Submit validates one job and schedules its arrival. The arrival must not
// lie in the engine's past. Under Lite mode names are not deduplicated (and
// may be empty); otherwise an empty name defaults to "job<n>" in submission
// order. The scheduler copies *j into its own record and never writes
// through j, so the caller may reuse it once Submit returns.
func (f *Scheduler) Submit(j *Job) error {
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

// Load is a fabric's wavelength accounting as placement reads it: the
// unallocated count, the running stripe widths and the queued jobs'
// minimum grants. The scheduler keeps it current as it runs
// (SchedOpts.Load).
type Load struct {
	Free      int // unallocated wavelengths
	Busy      int // Σ running stripe widths
	QueuedMin int // Σ MinWavelengths over queued jobs
}

// Committed is the wavelength demand already accepted: running widths
// plus queued minimums.
func (l *Load) Committed() int { return l.Busy + l.QueuedMin }

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

type scheduler struct {
	eng    *sim.Engine
	pol    Policy
	budget int
	free   []uint64 // bit c%64 of free[c/64] set = wavelength c unallocated
	// load holds the unallocated, running and queued wavelength counts:
	// SchedOpts.Load, or ownLoad.
	load    *Load
	ownLoad Load
	queue   waitQueue // FIFO; unused under the elastic tier index
	recs    []*jobRec
	events  []Event
	seen    map[string]bool // duplicate-name check (nil under Lite)
	nextID  int             // submission index (jobRec.idx, auto-name suffix)

	// el is the elastic solver's tier index (nil for the other policies
	// and when the elasticReference hook is set).
	el *elasticIndex

	// curves holds the runtime row of each shared Job.Shape. A record
	// resolves its row once, in newRec; shape-0 jobs memoize privately in
	// jobRec.memo.
	curves map[int]*runtimeRow

	// solver counts scheduling work (always maintained; mirrored to the
	// recorder at Finalize).
	solver SolverStats

	// evCounts tallies emitted events per kind (kept in Lite mode where
	// the event slice itself is dropped).
	evCounts [EvRetry + 1]int64

	// Failure-recovery state (all zero/idle until a fault is injected).
	// darkTarget is the wavelength count requested dark by injected faults;
	// darkCount <= darkTarget is how many are physically dark so far
	// (settling waits for busy wavelengths to free), with darkIdx the
	// darkened indices in LIFO restore order. parked holds jobs waiting out
	// a retry backoff; down marks a whole-fabric outage.
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
	lite     bool
	freeRecs []*jobRec // recycled jobRecs under Lite
	liveJobs int       // running + waiting
	// unfitScan is set when some queued job's minimum may exceed the live
	// budget: the budget fell, or a job above it was queued. parkUnfittable
	// scans the queue only then.
	unfitScan bool
	prioLoad  map[int]int
	// agg tallies rejected and completed jobs as they finish under Lite;
	// full mode tallies its records in order at finalize.
	agg tally

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
	// afterSolve, when set, runs after every elastic solve; in-package
	// tests check the wait queue's invariants there.
	afterSolve func()

	// Engine handlers, registered once per scheduler (register).
	hArrive, hComplete, hSolve, hRetry, hResumed, hFault sim.HandlerID

	// tokens holds each pending arrival, completion or retry's payload;
	// freeTok recycles fired slots so the table stays O(pending events).
	tokens  []evToken
	freeTok []int32
	// faultEvs are the failure events Simulate injects (hFault's arg
	// indexes them).
	faultEvs []faults.Event

	// ownEng marks a scheduler created by Simulate (it
	// owns the engine, so engine-wide counters are recorded at Finalize;
	// fleet runs record them once at the fleet layer instead).
	ownEng bool

	// utilization accounting
	lastT   float64
	busySec float64
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
// same defaulting). The normalized fields are written to the new record,
// never through j.
func (s *scheduler) submit(j *Job) error {
	name := j.Name
	if name == "" && !s.lite {
		name = fmt.Sprintf("job%d", s.nextID)
	}
	if s.seen != nil {
		if s.seen[name] {
			return fmt.Errorf("fabric: duplicate job name %q", name)
		}
		s.seen[name] = true
	}
	if j.ArrivalSec < 0 || math.IsNaN(j.ArrivalSec) || math.IsInf(j.ArrivalSec, 0) {
		return fmt.Errorf("fabric: job %q arrival %v", name, j.ArrivalSec)
	}
	minW, maxW, iters := j.MinWavelengths, j.MaxWavelengths, j.Iterations
	if minW == 0 {
		minW = 1
	}
	if minW < 1 || (maxW != 0 && maxW < minW) {
		return fmt.Errorf("fabric: job %q wavelength range [%d,%d]", name, minW, maxW)
	}
	// A minimum beyond the budget is not a spec error: admission control
	// rejects that job at arrival while the rest of the mix still runs.
	if maxW == 0 || maxW > s.budget {
		maxW = s.budget
	}
	if iters == 0 {
		iters = 1
	}
	if iters < 1 {
		return fmt.Errorf("fabric: job %q iterations %d", name, iters)
	}
	if j.Runtime == nil {
		return fmt.Errorf("fabric: job %q has no runtime function", name)
	}
	r := s.newRec(j)
	r.Name, r.st.Name = name, name
	r.MinWavelengths, r.MaxWavelengths, r.Iterations = minW, maxW, iters
	s.enroll(r, s.hArrive)
	return nil
}

// enroll files a new record (and its recorder track) and schedules its
// arrival through handler h.
func (s *scheduler) enroll(r *jobRec, h sim.HandlerID) {
	if !s.lite {
		s.recs = append(s.recs, r)
		if s.rec != nil {
			s.obsTracks = true
			s.jobTracks = append(s.jobTracks, s.rec.Track(s.proc, r.Name))
		}
	}
	s.eng.Schedule(r.ArrivalSec, h, s.token(r, 0))
}

// evToken is one pending job event's payload: the record and, for
// completions and retries, the epoch the event was scheduled under (a
// mismatch at firing time marks it stale).
type evToken struct {
	r     *jobRec
	epoch int
}

// register installs the scheduler's engine handlers, once per scheduler.
// Job events pass a token index (see token) as their arg; a fault event's
// arg indexes faultEvs.
func (s *scheduler) register() {
	s.hArrive = s.eng.Register(func(t int32) {
		r, _ := s.redeem(t)
		s.arrive(r)
	})
	s.hComplete = s.eng.Register(func(t int32) { s.complete(s.redeem(t)) })
	s.hSolve = s.eng.Register(func(int32) {
		s.solvePending = false
		if s.err == nil {
			s.dispatchElastic()
		}
		if s.afterSolve != nil {
			s.afterSolve()
		}
	})
	s.hRetry = s.eng.Register(func(t int32) { s.retryArrive(s.redeem(t)) })
	s.hResumed = s.eng.Register(func(t int32) {
		r, _ := s.redeem(t)
		s.arriveResumed(r)
	})
	s.hFault = s.eng.Register(func(i int32) { s.inject(s.faultEvs[i]) })
}

// token parks (r, epoch) in the free-listed token table for one scheduled
// event and returns its index.
func (s *scheduler) token(r *jobRec, epoch int) int32 {
	if n := len(s.freeTok); n > 0 {
		t := s.freeTok[n-1]
		s.freeTok = s.freeTok[:n-1]
		s.tokens[t] = evToken{r: r, epoch: epoch}
		return t
	}
	s.tokens = append(s.tokens, evToken{r: r, epoch: epoch})
	return int32(len(s.tokens) - 1)
}

// redeem returns token t's (record, epoch) and frees the slot.
func (s *scheduler) redeem(t int32) (*jobRec, int) {
	tk := s.tokens[t]
	s.tokens[t] = evToken{}
	s.freeTok = append(s.freeTok, t)
	return tk.r, tk.epoch
}

// after schedules r's completion (hComplete) or retry (hRetry) delay
// seconds from now, tagged with r's current epoch.
func (s *scheduler) after(delay float64, h sim.HandlerID, r *jobRec) {
	s.eng.Schedule(s.eng.Now()+delay, h, s.token(r, r.epoch))
}

// newRec builds (or, under Lite, recycles) the record for the next
// submission index, copying *j into it, and resolves the record's shared
// curve row and elastic tier once.
func (s *scheduler) newRec(j *Job) *jobRec {
	var r *jobRec
	if n := len(s.freeRecs); n > 0 {
		r = s.freeRecs[n-1]
		s.freeRecs = s.freeRecs[:n-1]
	} else {
		r = new(jobRec)
	}
	// A recycled record's epoch stays monotonic so stale events never
	// resurrect. The record is cleared and filled field by field: a
	// composite literal would be built aside and copied over it whole.
	epoch, waves := r.epoch, r.waves[:0]
	*r = jobRec{}
	r.Job = *j
	r.idx, r.remaining, r.share = s.nextID, 1, -1
	r.st.Name, r.st.ArrivalSec = j.Name, j.ArrivalSec
	r.epoch, r.waves, r.runPos, r.ckptRemaining = epoch, waves, -1, 1
	if j.Shape != 0 {
		r.curve = s.curveRow(j.Shape)
	}
	if s.el != nil {
		r.tier = s.el.tierFor(j.Priority)
	}
	s.nextID++
	return r
}

// runtimeRow holds one-iteration runtimes indexed by stripe width; 0 marks
// a width not priced yet (priceOne rejects non-positive runtimes). Every
// width a job is priced at is at most the budget.
type runtimeRow []float64

// curveRow returns (creating on demand) the runtime row of a shared shape.
// A record holds a pointer to it, which keeps jobRec in its size class.
func (s *scheduler) curveRow(shape int) *runtimeRow {
	row := s.curves[shape]
	if row == nil {
		if s.curves == nil {
			s.curves = map[int]*runtimeRow{}
		}
		r := make(runtimeRow, s.budget+1)
		row = &r
		s.curves[shape] = row
	}
	return row
}

// price returns the job's full-workload runtime (all iterations) at width
// w, through the shape's runtime row for shape-sharing jobs or the job's
// private memo otherwise.
func (s *scheduler) price(r *jobRec, w int) (float64, error) {
	if r.curve != nil {
		row := *r.curve
		if v := row[w]; v != 0 {
			s.solver.CurveHits++
			return v * float64(r.Iterations), nil
		}
		one, err := s.priceOne(r, w)
		if err != nil {
			return 0, err
		}
		row[w] = one
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
		s.rec.Sample(s.queueTk, now, float64(s.queueDepth()))
		s.rec.Sample(s.litTk, now, float64(s.load.Busy))
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

// account integrates lit and dark wavelength-seconds up to the current
// time.
func (s *scheduler) account() {
	now := s.eng.Now()
	s.busySec += float64(s.load.Busy) * (now - s.lastT)
	s.darkSec += float64(s.darkNow()) * (now - s.lastT)
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
	s.admit(r)
}

// admit runs admission control on an arriving job: a minimum beyond any
// grant the fabric could ever make is rejected, one blocked only by dark
// wavelengths is parked for a backoff retry, and the rest join the wait
// queue.
func (s *scheduler) admit(r *jobRec) {
	if r.MinWavelengths > s.maxGrant() {
		if r.MinWavelengths <= s.structuralMax() {
			s.liveJobs++
			s.park(r)
			return
		}
		r.state = stRejected
		r.st.Rejected = true
		s.emit(r, EvReject, 0)
		if s.lite {
			s.agg.add(&r.st)
			s.recycle(r)
		}
		return
	}
	s.liveJobs++
	s.enqueue(r)
	s.dispatch()
}

// enqueue puts r in the wait queue and counts its minimum as committed
// load.
func (s *scheduler) enqueue(r *jobRec) {
	r.state = stWaiting
	s.load.QueuedMin += r.MinWavelengths
	if s.prioLoad != nil {
		s.prioLoad[r.Priority] += r.MinWavelengths
	}
	if r.MinWavelengths > s.effBudget() {
		s.unfitScan = true
	}
	if s.el != nil {
		s.el.enqueue(r) // keeps each tier's queue in deal order
	} else {
		s.queue.insert(s.queue.depth(), r)
	}
}

// queueDepth is the number of queued jobs: the scheduler's FIFO queue, or
// every tier's queue under the elastic tier index.
func (s *scheduler) queueDepth() int {
	if s.el != nil {
		return s.el.depth()
	}
	return s.queue.depth()
}

// waitQueue is a wait queue — the scheduler's FIFO queue, or one elastic
// tier's queue: the queued jobs are buf[head:], in queue order. Taking jobs off the front advances head, so admitting a
// prefix never shifts the rest; insert reclaims the stranded front slots
// when the backing array is full instead of growing it, so a queue of
// steady depth never allocates. Every slot outside the live window is nil,
// so recycled records are not retained.
type waitQueue struct {
	buf  []*jobRec
	head int
}

// live returns the queued jobs in queue order.
func (q *waitQueue) live() []*jobRec { return q.buf[q.head:] }

// depth is the number of queued jobs.
func (q *waitQueue) depth() int { return len(q.buf) - q.head }

// insert puts r at position i of the live window (i == depth appends).
func (q *waitQueue) insert(i int, r *jobRec) {
	if len(q.buf) == cap(q.buf) && q.head > 0 {
		n := copy(q.buf, q.buf[q.head:])
		clear(q.buf[n:])
		q.buf, q.head = q.buf[:n], 0
	}
	i += q.head
	q.buf = append(q.buf, nil)
	copy(q.buf[i+1:], q.buf[i:])
	q.buf[i] = r
}

// popFront takes the first n queued jobs off the front.
func (q *waitQueue) popFront(n int) {
	for end := q.head + n; q.head < end; q.head++ {
		q.buf[q.head] = nil
	}
	q.rewindIfEmpty()
}

// remove deletes the job at position i of the live window, keeping order.
func (q *waitQueue) remove(i int) {
	i += q.head
	n := copy(q.buf[i:], q.buf[i+1:])
	q.buf[i+n] = nil
	q.buf = q.buf[:i+n]
	q.rewindIfEmpty()
}

// truncate keeps the first n queued jobs and drops the rest.
func (q *waitQueue) truncate(n int) {
	clear(q.buf[q.head+n:])
	q.buf = q.buf[:q.head+n]
	q.rewindIfEmpty()
}

// rewindIfEmpty moves an empty window back to the base of the array.
func (q *waitQueue) rewindIfEmpty() {
	if q.head == len(q.buf) {
		q.buf, q.head = q.buf[:0], 0
	}
}

// dequeued updates the committed-load accounting when r leaves the wait
// queue (to start, or at elastic admission).
func (s *scheduler) dequeued(r *jobRec) {
	s.load.QueuedMin -= r.MinWavelengths
	if s.prioLoad != nil {
		s.prioLoad[r.Priority] -= r.MinWavelengths
	}
}

// allocate grants r the `width` lowest-indexed free wavelengths (first
// fit), reusing r's waves slice. The free pool is a bitmap, so it takes
// the lowest set bits a word at a time.
func (s *scheduler) allocate(r *jobRec, width int) {
	waves := r.waves[:0]
	for w := 0; w < len(s.free) && len(waves) < width; w++ {
		x := s.free[w]
		for x != 0 && len(waves) < width {
			waves = append(waves, w<<6|bits.TrailingZeros64(x))
			x &= x - 1
		}
		s.free[w] = x
	}
	if len(waves) != width {
		panic(fmt.Sprintf("fabric: allocated %d of %d requested wavelengths", len(waves), width))
	}
	s.load.Free -= width
	r.waves = waves
}

// release returns wavelengths to the free pool.
func (s *scheduler) release(waves []int) {
	for _, c := range waves {
		w, b := c>>6, uint64(1)<<(c&63)
		if s.free[w]&b != 0 {
			panic(fmt.Sprintf("fabric: double free of wavelength %d", c))
		}
		s.free[w] |= b
	}
	s.load.Free += len(waves)
}

// start grants `width` wavelengths to a queued r and schedules its
// (remaining) run.
func (s *scheduler) start(r *jobRec, width int) {
	full, err := s.price(r, width)
	if err != nil {
		s.fail(err)
		return
	}
	s.account()
	s.dequeued(r)
	kind := EvStart
	if r.st.Preemptions > 0 {
		kind = EvResume
	} else {
		r.st.StartSec = s.eng.Now()
		r.st.QueueSec = r.st.StartSec - r.ArrivalSec
	}
	s.runSegment(r, width, 0, full, kind)
}

// runSegment grants r `width` wavelengths and runs its remaining work,
// priced at `full` seconds for the whole job, after a `penalty`-second
// settling stall; the segment's completion is scheduled under a fresh
// epoch.
func (s *scheduler) runSegment(r *jobRec, width int, penalty, full float64, kind EventKind) {
	s.allocate(r, width)
	r.state = stRunning
	r.runPos = len(s.liveRun)
	s.liveRun = append(s.liveRun, r)
	r.segStart = s.eng.Now()
	r.segPenalty = penalty
	r.segLen = penalty + full*r.remaining
	r.st.Width = width
	if !s.lite {
		r.st.Wavelengths = append(r.st.Wavelengths[:0], r.waves...)
	}
	if s.prioLoad != nil {
		s.prioLoad[r.Priority] += width
	}
	s.load.Busy += width
	if s.load.Busy > s.peak {
		s.peak = s.load.Busy
	}
	s.emit(r, kind, width)
	s.lanesOn(r)
	r.epoch++
	s.after(r.segLen, s.hComplete, r)
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
	s.giveBack(r)
	s.leave(r)
	s.liveJobs--
	s.emit(r, EvFinish, 0)
	if s.lite {
		s.liteFinish(r)
	}
	s.dispatch()
}

// liteFinish folds a completed job into the Lite tally and recycles its
// record.
func (s *scheduler) liteFinish(r *jobRec) {
	if err := s.settle(r); err != nil {
		s.fail(err)
		return
	}
	s.agg.add(&r.st)
	s.recycle(r)
}

// settle prices a completed job alone at its maximum width and records its
// slowdown against that.
func (s *scheduler) settle(r *jobRec) error {
	alone, err := s.price(r, r.MaxWavelengths)
	if err != nil {
		return err
	}
	r.st.AloneSec = alone
	r.st.Slowdown = (r.st.DoneSec - r.st.ArrivalSec) / alone
	return nil
}

// tally aggregates jobs into a Result's summary fields. Every sum runs in
// the order jobs are added.
type tally struct {
	done, rejected      int
	preempts, reconfigs int
	sumQueue, maxQueue  float64
	sumSlow, sumSlowSq  float64
	makespan            float64
}

// add folds in one rejected or completed job.
func (t *tally) add(st *JobStats) {
	if st.Rejected {
		t.rejected++
		return
	}
	t.done++
	t.sumQueue += st.QueueSec
	if st.QueueSec > t.maxQueue {
		t.maxQueue = st.QueueSec
	}
	t.sumSlow += st.Slowdown
	t.sumSlowSq += st.Slowdown * st.Slowdown
	if st.DoneSec > t.makespan {
		t.makespan = st.DoneSec
	}
	t.preempts += st.Preemptions
	t.reconfigs += st.Reconfigs
}

// fill writes the tally's counts, makespan, queueing and slowdown summaries
// (Jain's index for Fairness) into res.
func (t *tally) fill(res *Result) {
	res.RejectedJobs = t.rejected
	res.CompletedJobs = t.done
	res.Preemptions = t.preempts
	res.Reconfigs = t.reconfigs
	res.MakespanSec = t.makespan
	if t.done > 0 {
		res.MeanQueueSec = t.sumQueue / float64(t.done)
		res.MeanSlowdown = t.sumSlow / float64(t.done)
	}
	res.MaxQueueSec = t.maxQueue
	res.SlowdownSum = t.sumSlow
	res.SlowdownSumSq = t.sumSlowSq
	if t.sumSlowSq > 0 {
		res.Fairness = t.sumSlow * t.sumSlow / (float64(t.done) * t.sumSlowSq)
	}
}

// recycle returns a retired record to the freelist under Lite mode (full
// mode keeps every record for Finalize). The epoch is preserved — it keeps
// growing across reuses, so stale completion events scheduled against a
// previous tenant can never fire on the new one.
func (s *scheduler) recycle(r *jobRec) {
	if s.lite {
		s.freeRecs = append(s.freeRecs, r)
	}
}

// pause stops r's running segment at the current instant: completed work is
// credited pro-rata (remainingAt), the pending completion event is
// invalidated, and the job's wavelengths return to the pool. The caller
// decides what happens next — requeue (preemption) or an immediate restart
// at a new width (elastic reconfiguration).
func (s *scheduler) pause(r *jobRec) {
	s.account()
	now := s.eng.Now()
	// Progress is kept (this is a graceful cut, not a crash): the service
	// since the last checkpoint carries forward, so a later crash rolls
	// back to the right point.
	r.ckptService = r.checkpoint(now)
	r.remaining = r.remainingAt(now)
	r.st.ServiceSec += now - r.segStart
	r.epoch++ // invalidate the pending completion event
	s.giveBack(r)
}

// giveBack ends r's running segment on the wavelength side: its lanes and
// segment span close, its stripe returns to the pool, and it leaves the
// live-running index.
func (s *scheduler) giveBack(r *jobRec) {
	s.lanesOffAndCloseSeg(r)
	s.load.Busy -= len(r.waves)
	if s.prioLoad != nil {
		s.prioLoad[r.Priority] -= len(r.waves)
	}
	s.release(r.waves)
	r.waves = r.waves[:0]
	s.dropRunning(r)
}

// leave detaches a job that stops running for good from its static share
// and the elastic tier index.
func (s *scheduler) leave(r *jobRec) {
	if r.share >= 0 {
		s.shareBusy[r.share] = false
		r.share = -1
	}
	if s.el != nil {
		s.el.removeMember(r)
	}
}

// preempt pauses a running job, returning its wavelengths to the pool and
// requeueing its remaining work.
func (s *scheduler) preempt(r *jobRec) {
	s.pause(r)
	r.st.Preemptions++
	s.enqueue(r)
	s.emit(r, EvPreempt, 0)
}

// reconfigure restarts a paused job at a new stripe width without it ever
// leaving the fabric: the remaining work is re-priced at the new width and
// the segment is stretched by the policy's reconfiguration delay (optical
// switch settling — the job holds its new wavelengths but makes no progress
// until the stall elapses).
func (s *scheduler) reconfigure(r *jobRec, width int) {
	full, err := s.price(r, width)
	if err != nil {
		s.fail(err)
		return
	}
	r.st.Reconfigs++
	s.runSegment(r, width, s.pol.ReconfigDelaySec, full, EvReconfig)
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
			s.eng.Schedule(s.eng.Now(), s.hSolve, 0)
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
	for s.queue.depth() > 0 {
		r := s.queue.live()[0]
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
		s.queue.popFront(1)
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
	s.parkUnfittable()
	// The jobs that stay queued are compacted in place after the scan, so
	// starts emitted meanwhile sample the queue depth before the dispatch.
	q := s.queue.live()
	kept := 0
	for _, r := range q {
		if s.err == nil && r.MinWavelengths <= s.load.Free {
			width := r.MaxWavelengths
			if width > s.load.Free {
				width = s.load.Free
			}
			s.start(r, width)
			continue
		}
		q[kept] = r
		kept++
	}
	s.queue.truncate(kept)
}

// dispatchPriority serves the queue in jobLess order, preempting strictly
// lower-priority running jobs when the pool is short.
func (s *scheduler) dispatchPriority() {
	s.parkUnfittable()
	for s.err == nil && s.queue.depth() > 0 {
		q := s.queue.live()
		sort.SliceStable(q, func(a, b int) bool {
			return jobLess(q[a], q[b])
		})
		head := q[0]
		if head.MinWavelengths > s.load.Free {
			// Reclaimable width from strictly lower-priority tenants.
			victims := s.victimsFor(head)
			reclaim := 0
			for _, v := range victims {
				reclaim += len(v.waves)
			}
			if s.load.Free+reclaim < head.MinWavelengths {
				return // even preempting everything eligible is not enough
			}
			for _, v := range victims {
				if s.load.Free >= head.MinWavelengths {
					break
				}
				s.preempt(v)
			}
		}
		s.queue.popFront(1) // preemptions queue at the back; head stays first
		width := head.MaxWavelengths
		if width > s.load.Free {
			width = s.load.Free
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
	agg := s.agg // a copy, so finalize stays repeatable
	if s.lite {
		if s.liveJobs > 0 {
			return Result{}, fmt.Errorf("fabric: %d jobs never completed (deadlock?)", s.liveJobs)
		}
	} else {
		for _, r := range s.recs {
			switch r.state {
			case stEvicted:
				continue // left in an outage; the fleet replays it elsewhere
			case stDone:
				if err := s.settle(r); err != nil {
					return Result{}, err
				}
				agg.add(&r.st)
			case stRejected:
				agg.add(&r.st)
			case stFailed:
			default:
				return Result{}, fmt.Errorf("fabric: job %q never completed (deadlock?)", r.Name)
			}
			res.Jobs = append(res.Jobs, r.st)
		}
	}
	if agg.done == 0 && s.failedJobs == 0 && s.evictedAway == 0 {
		return Result{}, fmt.Errorf("fabric: every job was rejected")
	}
	agg.fill(&res)
	s.setRates(&res)
	return res, nil
}

// setRates fills the capacity shares of the fabric's wavelength-seconds
// over the makespan: res.Utilization, the share lit, and
// res.Availability, the share not dark from injected faults or outages.
// Availability is exactly 1 on fault-free runs (nothing is ever dark, so
// darkSec stays 0) and clamped because dark intervals may extend past the
// last completion.
func (s *scheduler) setRates(res *Result) {
	if res.MakespanSec <= 0 {
		return
	}
	res.Utilization = s.busySec / (float64(s.budget) * res.MakespanSec)
	if s.darkSec <= 0 {
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
