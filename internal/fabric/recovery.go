package fabric

// Failure injection and recovery: dark wavelengths (budget shrink with
// settle/evict/park), transient job crashes (checkpoint rollback and tail
// replay), and whole-fabric outages (evict-and-resubmit, driven by
// internal/fleet). Recovery is always on; until a fault is injected every
// path here is idle (nothing dark, nothing parked, no checkpoint read), so
// fault-free runs pay nothing and produce exactly the fault-free results.

import (
	"fmt"
	"math"
	"math/bits"
	"sort"

	"wrht/internal/faults"
)

// Resubmit carries one outage-evicted job out of the scheduler so the
// fleet can replay it — on this fabric after repair, or elsewhere: the
// normalized job spec, its rolled-back progress and checkpoint state, the
// stats accumulated so far, and the spent retry budget.
type Resubmit struct {
	Job           Job
	Remaining     float64
	CkptRemaining float64
	CkptService   float64
	Retries       int
	Stats         JobStats
}

// WavelengthsDown darkens k wavelengths: the live budget shrinks, free
// wavelengths settle dark immediately, and tenants are shrunk to their
// floors (elastic) or evicted (pool policies) until the fabric fits.
// Not supported under StaticPartition.
func (f *Scheduler) WavelengthsDown(k int) { f.s.wavelengthsDown(k) }

// WavelengthsUp restores up to k previously darkened wavelengths.
func (f *Scheduler) WavelengthsUp(k int) { f.s.wavelengthsUp(k) }

// InjectJobFault crashes a running job — by name when name is non-empty,
// otherwise picked by pick among the currently running set. Work since the
// job's last checkpoint is lost and the tail replays in place.
func (f *Scheduler) InjectJobFault(pick uint64, name string) {
	f.s.injectJobFault(pick, name)
}

// Outage takes the whole fabric down: every resident job (running, queued,
// or parked) is evicted and returned in admission order for the caller's
// recovery policy; arrivals while down are bounced through SchedOpts.OnEvict.
func (f *Scheduler) Outage() []Resubmit { return f.s.outage() }

// Restore brings the fabric back after an Outage.
func (f *Scheduler) Restore() { f.s.restoreFabric() }

// SubmitResumed re-enters an evicted job (same fabric after repair, or a
// migration target), seeded with its carried progress, checkpoint state,
// stats, and retry budget. rs.Job.ArrivalSec is the re-entry time — the
// caller sets it to now plus backoff (and migration cost) and it must not
// lie in the engine's past; rs.Stats.ArrivalSec keeps the original arrival
// so end-to-end slowdown spans the whole recovery.
func (f *Scheduler) SubmitResumed(rs *Resubmit) error { return f.s.submitResumed(rs) }

// effBudget is the live wavelength budget: the configured budget minus
// wavelengths dark (or pending dark) from injected faults.
func (s *scheduler) effBudget() int { return s.budget - s.darkTarget }

// darkNow is the capacity currently lost to faults, for availability
// accounting: the whole budget during an outage, else the dark target.
func (s *scheduler) darkNow() int {
	if s.down {
		return s.budget
	}
	return s.darkTarget
}

// inject applies one of Simulate's fault events at its instant.
func (s *scheduler) inject(ev faults.Event) {
	switch ev.Kind {
	case faults.WavelengthDown:
		s.wavelengthsDown(ev.Count)
	case faults.WavelengthUp:
		s.wavelengthsUp(ev.Count)
	case faults.JobFault:
		s.injectJobFault(ev.Pick, ev.Job)
	}
}

func (s *scheduler) wavelengthsDown(k int) {
	if s.err != nil {
		return
	}
	if s.pol.Kind == StaticPartition {
		s.fail(fmt.Errorf("fabric: wavelength faults are not supported under StaticPartition"))
		return
	}
	if k > s.budget-s.darkTarget {
		k = s.budget - s.darkTarget
	}
	if k <= 0 {
		return
	}
	s.account()
	s.darkTarget += k
	s.unfitScan = true
	s.emitFault(EvWavelengthDown, k)
	s.settleDark()
	// Elastic can shrink tenants to their floors, so it evicts (reverse
	// scheduling order) only while even the floors no longer fit. Grant-once
	// pools cannot shrink a stripe and evict until the dark target is
	// physically settled.
	elastic := s.pol.Kind == ElasticReallocate
	for s.err == nil && (elastic && s.sumRunningFloors() > s.effBudget() ||
		!elastic && s.darkCount < s.darkTarget) {
		v := s.cheapestRunning()
		if v == nil {
			break
		}
		s.evictRunning(v)
		s.settleDark()
	}
	s.dispatch()
}

func (s *scheduler) wavelengthsUp(k int) {
	if s.err != nil {
		return
	}
	if k > s.darkTarget {
		k = s.darkTarget
	}
	if k <= 0 {
		return
	}
	s.account()
	s.darkTarget -= k
	now := s.eng.Now()
	for s.darkCount > s.darkTarget {
		n := len(s.darkIdx) - 1
		c := s.darkIdx[n]
		s.darkIdx = s.darkIdx[:n]
		s.darkCount--
		s.free[c>>6] |= 1 << (c & 63)
		s.load.Free++
		if s.obsTracks {
			s.rec.LaneOff(s.proc, c, now)
		}
	}
	s.emitFault(EvWavelengthUp, k)
	s.dispatch()
}

// settleDark physically darkens free wavelengths — highest index first,
// keeping the low indices the allocator prefers — until the dark count
// meets the target. When every wavelength is busy the remainder settles as
// later releases free capacity (dispatch paths re-call this).
func (s *scheduler) settleDark() {
	for s.darkCount < s.darkTarget {
		w := len(s.free) - 1
		for w >= 0 && s.free[w] == 0 {
			w--
		}
		if w < 0 {
			return
		}
		b := bits.Len64(s.free[w]) - 1
		s.free[w] &^= 1 << b
		c := w<<6 | b
		s.load.Free--
		s.darkIdx = append(s.darkIdx, c)
		s.darkCount++
		if s.obsTracks {
			s.rec.LaneOn(s.proc, c, s.eng.Now(), "DARK")
		}
	}
}

// sumRunningFloors is Σ MinWavelengths over running tenants — the least
// capacity an elastic re-solve must reserve for them.
func (s *scheduler) sumRunningFloors() int {
	n := 0
	for _, r := range s.liveRun {
		n += r.MinWavelengths
	}
	return n
}

// cheapestRunning picks the running job the eviction order sacrifices
// first: lowest priority, then latest arrival, then highest admission
// index — the exact reverse of jobLess, so it is deterministic.
func (s *scheduler) cheapestRunning() *jobRec {
	var v *jobRec
	for _, m := range s.liveRun {
		if v == nil || jobLess(v, m) {
			v = m
		}
	}
	return v
}

// evictRunning force-evicts a running job. The cut is graceful (progress is
// credited pro-rata, unlike a crash) and the job re-enters through the
// backoff retry path.
func (s *scheduler) evictRunning(r *jobRec) {
	s.pause(r)
	s.leave(r)
	s.park(r)
}

// parkUnfittable parks every queued job whose minimum exceeds the live
// (dark-shrunk) budget: it cannot start until wavelengths are restored, and
// under head-of-line admission it would block the whole queue meanwhile.
// A queued job only becomes unfittable when the budget falls or when it is
// queued above it, which set unfitScan; without it the scan would find
// nothing. Inert without dark wavelengths.
func (s *scheduler) parkUnfittable() {
	if s.darkTarget == 0 || !s.unfitScan {
		return
	}
	s.unfitScan = false
	if s.el == nil {
		s.parkFrom(&s.queue)
		return
	}
	// Tier by tier from the top: jobLess order, as one queue would park.
	for _, t := range s.el.tiers {
		if s.parkFrom(&t.queue); s.err != nil {
			return
		}
	}
}

// parkFrom parks q's jobs whose minimum exceeds the live budget, in queue
// order.
func (s *scheduler) parkFrom(q *waitQueue) {
	eff := s.effBudget()
	for i := 0; i < q.depth(); {
		r := q.live()[i]
		if r.MinWavelengths <= eff {
			i++
			continue
		}
		q.remove(i)
		s.dequeued(r)
		s.park(r)
		if s.err != nil {
			return
		}
	}
}

// park evicts a live job that is neither queued nor holding wavelengths
// into the backoff parking lot, or fails it when its retry budget is spent.
func (s *scheduler) park(r *jobRec) {
	r.st.Evictions++
	s.evictions++
	s.emit(r, EvEvict, 0)
	s.parkForRetry(r)
}

func (s *scheduler) parkForRetry(r *jobRec) {
	if r.retries >= s.retry.MaxRetries {
		s.failJob(r)
		return
	}
	r.state = stParked
	s.parked = append(s.parked, r)
	delay := s.retry.Delay(r.retries)
	r.retries++
	r.epoch++
	s.after(delay, s.hRetry, r)
}

// retryArrive re-enters a parked job after its backoff. An outage cancels
// parked retries via the epoch guard, so a live firing never races one.
func (s *scheduler) retryArrive(r *jobRec, epoch int) {
	if s.err != nil || r.epoch != epoch || r.state != stParked {
		return
	}
	for i, p := range s.parked {
		if p == r {
			s.parked = append(s.parked[:i], s.parked[i+1:]...)
			break
		}
	}
	r.st.Retries++
	s.retriesN++
	s.emit(r, EvRetry, 0)
	s.enqueue(r)
	s.dispatch()
}

// failJob permanently fails a job whose retry budget ran out. All service
// it accumulated is counted as lost work.
func (s *scheduler) failJob(r *jobRec) {
	r.state = stFailed
	r.st.Failed = true
	s.failedJobs++
	if waste := r.st.ServiceSec - r.st.LostWorkSec; waste > 0 {
		r.st.LostWorkSec += waste
		s.lostWorkSec += waste
	}
	s.liveJobs--
	s.recycle(r)
}

// checkpoint advances r's checkpoint cursor past its running segment cut
// at now and returns the service since the last checkpoint, which the
// caller carries forward (a graceful cut) or loses (a crash). The segment
// made `run` productive seconds of a planned `active`, both net of the
// settling stall. With checkpointing every C service seconds, the k-th
// checkpoint of this stretch lands at productive offset kC - ckptService
// into the segment; progress is linear in time within a segment, so the
// last one fixes ckptRemaining. With no checkpoint landed (or C = 0) the
// whole stretch is returned.
func (r *jobRec) checkpoint(now float64) float64 {
	run := now - r.segStart - r.segPenalty
	if run < 0 {
		run = 0
	}
	active := r.segLen - r.segPenalty
	if run > active {
		run = active
	}
	c := r.CheckpointEverySec
	total := r.ckptService + run
	if c > 0 && active > 0 {
		if k := math.Floor(total / c); k >= 1 {
			off := k*c - r.ckptService
			r.ckptRemaining = r.remaining * (1 - off/active)
			total -= k * c
		}
	}
	return total
}

// crash cuts r's running segment like a failure: the elapsed wall time is
// charged as service, progress rolls back to the last checkpoint, and the
// pending completion is invalidated. The caller decides what happens to the
// wavelengths (replay in place for a transient fault, release on outage).
func (s *scheduler) crash(r *jobRec) {
	now := s.eng.Now()
	r.st.ServiceSec += now - r.segStart
	lost := r.checkpoint(now)
	r.ckptService = 0
	r.st.LostWorkSec += lost
	s.lostWorkSec += lost
	r.remaining = r.ckptRemaining
	r.epoch++ // invalidate the pending completion event
	if r.tier != nil {
		// Force a fill so the cached targets are rebuilt.
		r.tier.dirty = true
	}
}

func (s *scheduler) injectJobFault(pick uint64, name string) {
	if s.err != nil || s.down || len(s.liveRun) == 0 {
		return
	}
	var r *jobRec
	if name != "" {
		for _, m := range s.liveRun {
			if m.Name == name {
				r = m
				break
			}
		}
	} else {
		r = s.liveRun[pick%uint64(len(s.liveRun))]
	}
	now := s.eng.Now()
	if r == nil || now >= r.segStart+r.segLen {
		return // no such victim, or it completes at this very instant
	}
	s.jobFaults++
	s.crash(r)
	s.lanesOffAndCloseSeg(r)
	// The replayed tail restarts in place at the same stripe width — the
	// wavelengths never changed, so there is no reconfiguration stall.
	tail, err := s.price(r, len(r.waves))
	if err != nil {
		s.fail(err)
		return
	}
	r.segStart = now
	r.segPenalty = 0
	r.segLen = tail * r.remaining
	if t := r.tier; t != nil && now+r.segLen < t.minEnd {
		// A crash inside a reconfiguration stall replays without the
		// stall, so the tail can end before the cut segment would have;
		// minEnd must stay a lower bound, or a solve misses the pin.
		t.minEnd = now + r.segLen
	}
	s.emit(r, EvJobFault, len(r.waves))
	s.lanesOn(r)
	s.after(r.segLen, s.hComplete, r) // crash already bumped the epoch
}

func (s *scheduler) outage() []Resubmit {
	if s.err != nil || s.down {
		return nil
	}
	s.account()
	s.down = true
	s.outages++
	victims := make([]*jobRec, 0, len(s.liveRun)+s.queueDepth()+len(s.parked))
	victims = append(victims, s.liveRun...)
	victims = append(victims, s.queue.live()...)
	if s.el != nil {
		for _, t := range s.el.tiers {
			victims = append(victims, t.queue.live()...)
		}
	}
	victims = append(victims, s.parked...)
	sort.Slice(victims, func(i, j int) bool { return victims[i].idx < victims[j].idx })
	out := make([]Resubmit, 0, len(victims))
	for _, r := range victims {
		switch r.state {
		case stRunning:
			s.crash(r)
			s.giveBack(r)
			s.leave(r)
		case stWaiting:
			// Pro-rata progress held only in memory dies with the fabric;
			// the job replays from its last checkpoint.
			s.dequeued(r)
			if r.ckptService > 0 {
				r.st.LostWorkSec += r.ckptService
				s.lostWorkSec += r.ckptService
				r.ckptService = 0
			}
			r.remaining = r.ckptRemaining
		case stParked:
			r.epoch++ // cancel the pending backoff retry
		}
		out = append(out, s.evictOut(r))
	}
	s.queue.truncate(0)
	if s.el != nil {
		for _, t := range s.el.tiers {
			t.queue.truncate(0)
		}
	}
	s.parked = s.parked[:0]
	s.settleDark() // the pool is idle now; settle any dark backlog
	return out
}

// evictOut hands one outage victim to the fleet: its state is packaged for
// replay and the record leaves this scheduler's live set.
func (s *scheduler) evictOut(r *jobRec) Resubmit {
	r.st.Evictions++
	s.evictions++
	s.evictedAway++
	s.emit(r, EvEvict, 0)
	rs := Resubmit{
		Job:           r.Job,
		Remaining:     r.remaining,
		CkptRemaining: r.ckptRemaining,
		CkptService:   r.ckptService,
		Retries:       r.retries,
		Stats:         r.st,
	}
	s.liveJobs--
	r.state = stEvicted
	s.recycle(r)
	return rs
}

func (s *scheduler) restoreFabric() {
	if s.err != nil || !s.down {
		return
	}
	s.account()
	s.down = false
	s.dispatch()
}

// arriveDown handles an arrival while the fabric is in an outage: the job
// bounces to the fleet through OnEvict, or — with no fleet above — waits
// out the outage in the backoff parking lot.
func (s *scheduler) arriveDown(r *jobRec) {
	s.emit(r, EvArrive, 0)
	s.liveJobs++
	if s.onEvict != nil {
		s.onEvict(s.evictOut(r))
		return
	}
	s.park(r)
}

func (s *scheduler) submitResumed(rs *Resubmit) error {
	j := &rs.Job
	if math.IsNaN(j.ArrivalSec) || math.IsInf(j.ArrivalSec, 0) || j.ArrivalSec < s.eng.Now() {
		return fmt.Errorf("fabric: resumed job %q arrival %v is in the engine's past",
			j.Name, j.ArrivalSec)
	}
	if j.Runtime == nil {
		return fmt.Errorf("fabric: resumed job %q has no runtime function", j.Name)
	}
	r := s.newRec(j)
	if r.MinWavelengths < 1 {
		r.MinWavelengths = 1
	}
	if r.MaxWavelengths == 0 || r.MaxWavelengths > s.budget {
		r.MaxWavelengths = s.budget
	}
	if r.MaxWavelengths < r.MinWavelengths {
		// Keeps the record well-formed; admission rejects or parks a
		// minimum beyond this fabric anyway.
		r.MaxWavelengths = r.MinWavelengths
	}
	if r.Iterations < 1 {
		r.Iterations = 1
	}
	r.remaining = rs.Remaining
	r.ckptRemaining = rs.CkptRemaining
	r.ckptService = rs.CkptService
	r.retries = rs.Retries
	r.st = rs.Stats
	s.enroll(r, s.hResumed)
	return nil
}

// arriveResumed is arrive for a recovered job: it re-enters as a retry
// (EvRetry, not EvArrive) and a temporarily short budget parks it instead
// of rejecting.
func (s *scheduler) arriveResumed(r *jobRec) {
	if s.err != nil {
		return
	}
	if s.down {
		s.arriveDown(r)
		return
	}
	r.st.Retries++
	s.retriesN++
	s.emit(r, EvRetry, 0)
	s.admit(r)
}

// emitFault records a fabric-level fault event (no owning job).
func (s *scheduler) emitFault(kind EventKind, width int) {
	s.evCounts[kind]++
	if s.lite {
		return
	}
	s.events = append(s.events, Event{
		TimeSec: s.eng.Now(), Kind: kind, Wavelengths: width,
	})
	if s.rec != nil {
		if !s.ftkReady {
			s.ftkReady = true
			s.faultTk = s.rec.Track(s.proc, "faults")
			s.darkTk = s.rec.CounterTrack(s.proc, "dark wavelengths")
		}
		now := s.eng.Now()
		s.rec.Instant(s.faultTk, kind.String(), now, int64(width))
		s.rec.Sample(s.darkTk, now, float64(s.darkTarget))
	}
}
