package fabric

// Failure injection and recovery: dark wavelengths (budget shrink with
// settle/evict/park), transient job crashes (checkpoint rollback and tail
// replay), and whole-fabric outages (evict-and-resubmit, driven by
// internal/fleet). Everything here is gated behind SchedOpts.Faults — with
// the machinery disarmed no branch executes, which is what keeps fault-free
// runs bit-identical to a scheduler without it.

import (
	"fmt"
	"math"
	"sort"
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
// Requires SchedOpts.Faults; not supported under StaticPartition.
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

// Down reports whether the fabric is currently in an outage.
func (f *Scheduler) Down() bool { return f.s.down }

// SubmitResumed re-enters an evicted job (same fabric after repair, or a
// migration target), seeded with its carried progress, checkpoint state,
// stats, and retry budget. rs.Job.ArrivalSec is the re-entry time — the
// caller sets it to now plus backoff (and migration cost) and it must not
// lie in the engine's past; rs.Stats.ArrivalSec keeps the original arrival
// so end-to-end slowdown spans the whole recovery.
func (f *Scheduler) SubmitResumed(rs Resubmit) error { return f.s.submitResumed(rs) }

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
	s.emitFault(EvWavelengthDown, k)
	s.settleDark()
	if s.pol.Kind == ElasticReallocate {
		// Elastic can shrink tenants to their floors; evict (reverse
		// scheduling order) only while even the floors no longer fit.
		for s.err == nil && s.sumRunningFloors() > s.effBudget() {
			v := s.cheapestRunning()
			if v == nil {
				break
			}
			s.evictRunning(v)
			s.settleDark()
		}
	} else {
		// Grant-once pools cannot shrink a stripe; evict until the dark
		// target is physically settled.
		for s.err == nil && s.darkCount < s.darkTarget {
			v := s.cheapestRunning()
			if v == nil {
				break
			}
			s.evictRunning(v)
			s.settleDark()
		}
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
		s.free[c] = true
		s.nfree++
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
		c := -1
		for i := s.budget - 1; i >= 0; i-- {
			if s.free[i] {
				c = i
				break
			}
		}
		if c < 0 {
			return
		}
		s.free[c] = false
		s.nfree--
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
	if r.share >= 0 {
		s.shareBusy[r.share] = false
		r.share = -1
	}
	if s.el != nil {
		s.el.removeMember(r)
	}
	s.park(r)
}

// parkUnfittable parks every queued job whose minimum exceeds the live
// (dark-shrunk) budget: it cannot start until wavelengths are restored, and
// under head-of-line admission it would block the whole queue meanwhile.
// Inert without dark wavelengths.
func (s *scheduler) parkUnfittable() {
	if s.darkTarget == 0 {
		return
	}
	eff := s.effBudget()
	for i := 0; i < len(s.queue); {
		r := s.queue[i]
		if r.MinWavelengths <= eff {
			i++
			continue
		}
		s.queue = append(s.queue[:i], s.queue[i+1:]...)
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
	epoch := r.epoch
	s.eng.After(delay, func() { s.retryArrive(r, epoch) })
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
	r.state = stWaiting
	r.st.Retries++
	s.retriesN++
	s.emit(r, EvRetry, 0)
	s.queuedMin += r.MinWavelengths
	if s.prioLoad != nil {
		s.prioLoad[r.Priority] += r.MinWavelengths
	}
	if s.el != nil {
		s.el.enqueue(s, r)
	} else {
		s.queue = append(s.queue, r)
	}
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
	if s.lite {
		s.recycle(r)
	}
}

// advanceCkpt advances r's checkpoint cursor past a cut segment that made
// `run` productive seconds out of a planned `active` (both net of the
// settling stall). With checkpointing every C service seconds, the k-th
// checkpoint of this stretch lands at productive offset kC - ckptService
// into the segment; progress is linear in time within a segment, so the
// last one fixes ckptRemaining, and the leftover service carries forward.
func (r *jobRec) advanceCkpt(run, active float64) {
	c := r.CheckpointEverySec
	total := r.ckptService + run
	if c > 0 && active > 0 {
		if k := math.Floor(total / c); k >= 1 {
			off := k*c - r.ckptService
			r.ckptRemaining = r.remaining * (1 - off/active)
			r.ckptService = total - k*c
			return
		}
	}
	r.ckptService = total
}

// rollback is advanceCkpt for a crashed segment: service past the last
// checkpoint is not carried forward but lost. Returns the lost seconds —
// the whole stretch when no checkpoint landed (or C is 0).
func (r *jobRec) rollback(run, active float64) float64 {
	c := r.CheckpointEverySec
	total := r.ckptService + run
	if c > 0 && active > 0 {
		if k := math.Floor(total / c); k >= 1 {
			off := k*c - r.ckptService
			r.ckptRemaining = r.remaining * (1 - off/active)
			r.ckptService = 0
			return total - k*c
		}
	}
	r.ckptService = 0
	return total
}

// crash cuts r's running segment like a failure: the elapsed wall time is
// charged as service, progress rolls back to the last checkpoint, and the
// pending completion is invalidated. The caller decides what happens to the
// wavelengths (replay in place for a transient fault, release on outage).
func (s *scheduler) crash(r *jobRec) {
	now := s.eng.Now()
	elapsed := now - r.segStart
	r.st.ServiceSec += elapsed
	run := elapsed - r.segPenalty
	if run < 0 {
		run = 0
	}
	active := r.segLen - r.segPenalty
	if run > active {
		run = active
	}
	lost := r.rollback(run, active)
	r.st.LostWorkSec += lost
	s.lostWorkSec += lost
	r.remaining = r.ckptRemaining
	r.epoch++ // invalidate the pending completion event
	if r.tier != nil {
		// The replayed tail ends later than the cached tier state assumed;
		// the stale minEnd only errs conservative, but force a fill so the
		// cached targets are rebuilt.
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
	s.emit(r, EvJobFault, len(r.waves))
	s.lanesOn(r)
	epoch := r.epoch // crash already bumped it
	s.eng.After(r.segLen, func() { s.complete(r, epoch) })
}

func (s *scheduler) outage() []Resubmit {
	if s.err != nil || s.down {
		return nil
	}
	s.account()
	s.down = true
	s.outages++
	victims := make([]*jobRec, 0, len(s.liveRun)+len(s.queue)+len(s.parked))
	victims = append(victims, s.liveRun...)
	victims = append(victims, s.queue...)
	victims = append(victims, s.parked...)
	sort.Slice(victims, func(i, j int) bool { return victims[i].idx < victims[j].idx })
	out := make([]Resubmit, 0, len(victims))
	for _, r := range victims {
		switch r.state {
		case stRunning:
			s.crash(r)
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
	s.queue = s.queue[:0]
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
	if s.lite {
		s.recycle(r)
	}
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
	r.st.Evictions++
	s.evictions++
	s.emit(r, EvEvict, 0)
	if s.onEvict != nil {
		s.evictedAway++
		rs := Resubmit{
			Job:           r.Job,
			Remaining:     r.remaining,
			CkptRemaining: r.ckptRemaining,
			CkptService:   r.ckptService,
			Retries:       r.retries,
			Stats:         r.st,
		}
		r.state = stEvicted
		if s.lite {
			s.recycle(r)
		}
		s.onEvict(rs)
		return
	}
	s.liveJobs++
	s.parkForRetry(r)
}

func (s *scheduler) submitResumed(rs Resubmit) error {
	j := rs.Job
	if math.IsNaN(j.ArrivalSec) || math.IsInf(j.ArrivalSec, 0) || j.ArrivalSec < s.eng.Now() {
		return fmt.Errorf("fabric: resumed job %q arrival %v is in the engine's past",
			j.Name, j.ArrivalSec)
	}
	if j.Runtime == nil {
		return fmt.Errorf("fabric: resumed job %q has no runtime function", j.Name)
	}
	if j.MinWavelengths < 1 {
		j.MinWavelengths = 1
	}
	if j.MaxWavelengths == 0 || j.MaxWavelengths > s.budget {
		j.MaxWavelengths = s.budget
	}
	if j.MaxWavelengths < j.MinWavelengths {
		// Keeps the record well-formed; admission rejects or parks a
		// minimum beyond this fabric anyway.
		j.MaxWavelengths = j.MinWavelengths
	}
	if j.Iterations < 1 {
		j.Iterations = 1
	}
	idx := s.nextID
	s.nextID++
	r := s.newRec(j, idx)
	r.remaining = rs.Remaining
	r.ckptRemaining = rs.CkptRemaining
	r.ckptService = rs.CkptService
	r.retries = rs.Retries
	r.st = rs.Stats
	if !s.lite {
		s.recs = append(s.recs, r)
		if s.rec != nil {
			s.obsTracks = true
			s.jobTracks = append(s.jobTracks, s.rec.Track(s.proc, r.Name))
		}
	}
	s.eng.At(j.ArrivalSec, func() { s.arriveResumed(r) })
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
		s.el.enqueue(s, r)
	} else {
		s.queue = append(s.queue, r)
	}
	s.dispatch()
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
