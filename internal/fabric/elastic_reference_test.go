package fabric

import (
	"sort"

	"wrht/internal/faults"
)

// withSolver runs f with the elastic policy solved by the reference solver
// below when ref is set, or by the production incremental solver
// otherwise, for every scheduler NewScheduler builds meanwhile, and then
// restores the elasticReference hook. The hook is package state, so no
// fabric test may call t.Parallel.
func withSolver(ref bool, f func()) {
	saved := elasticReference
	defer func() { elasticReference = saved }()
	elasticReference = nil
	if ref {
		elasticReference = (*scheduler).dispatchReference
	}
	f()
}

// simulateSolver is Simulate under withSolver.
func simulateSolver(ref bool, budget int, jobs []Job, pol Policy, plan faults.Plan, opt SchedOpts) (res Result, err error) {
	withSolver(ref, func() { res, err = Simulate(budget, jobs, pol, plan, opt) })
	return res, err
}

// dispatchReference is dispatchElastic for the reference solver. Its wait
// queue is FIFO, so it first sorts the queue into jobLess order, the order
// the incremental solver keeps its queue in: queued jobs whose floor no
// longer fits a dark-shrunk budget then park in the same order under both.
func (s *scheduler) dispatchReference() {
	q := s.queue.live()
	sort.SliceStable(q, func(a, b int) bool { return jobLess(q[a], q[b]) })
	s.parkUnfittable()
	if s.err != nil {
		return
	}
	s.dispatchElasticFull()
	if s.err == nil {
		s.settleDark()
	}
}

// dispatchElasticFull re-solves the stripe assignment for the live tenant
// set (running plus queued) from scratch, in three passes:
//
//  1. admission — running jobs always keep at least their minimum (elastic
//     shrinks, it never fully preempts); queued jobs are admitted in
//     (priority desc, arrival asc, admission index asc) order until the
//     first one whose minimum no longer fits, which blocks the rest of the
//     queue (head-of-line, like dispatchPriority — backfilling past a
//     blocked wide high-priority job would starve it);
//  2. target widths — tiered water-filling: every admitted job starts at
//     its minimum, then the surplus is dealt one wavelength at a time
//     round-robin within each priority tier (highest tier saturates to its
//     MaxWavelengths before the next tier sees any surplus);
//  3. apply — changed running jobs are paused (work credited pro-rata),
//     then restarted at their new width with the reconfiguration penalty;
//     newly admitted jobs start penalty-free. A widening whose projected
//     completion (now + penalty + re-priced tail) is not strictly earlier
//     than the current segment's is skipped — near the end of a run the
//     settling stall outweighs any wider stripe — and a job due to finish
//     within the settling delay is pinned at its current width (its
//     departure frees capacity sooner than a stalled resize would).
//
// All orderings are deterministic, so the co-simulation stays reproducible.
// This is the reference the incremental solver (elasticIndex.solve) is
// proven against: it walks every record on every solve, over a FIFO wait
// queue and no tier index. Tests select it through withSolver.
func (s *scheduler) dispatchElasticFull() {
	now := s.eng.Now()
	s.solver.Solves++
	var cands []*jobRec
	for _, r := range s.recs {
		// A running segment due to complete at this very instant is left
		// alone: its pending completion event (same timestamp, later
		// sequence) frees the wavelengths and re-enters this solver.
		if r.state == stRunning && now < r.segStart+r.segLen {
			cands = append(cands, r)
		}
	}
	cands = append(cands, s.queue.live()...)
	sort.SliceStable(cands, func(a, b int) bool {
		return jobLess(cands[a], cands[b])
	})

	// A running job due to finish within the settling delay is pinned at
	// its current width: shrinking it can never pay — its natural departure
	// frees the capacity sooner than a stalled resize would — and any
	// widening would fail the widen guard anyway. Without the pin, an
	// ill-timed arrival could stall a nearly-done job for the full delay
	// and leave elastic strictly worse than grant-once first-fit.
	pinned := func(r *jobRec) bool {
		return r.state == stRunning && r.segStart+r.segLen-now <= s.pol.ReconfigDelaySec
	}
	// floor is the width a running job must keep through the solve: its
	// minimum normally, its exact current width when pinned.
	floor := func(r *jobRec) int {
		if pinned(r) {
			return len(r.waves)
		}
		return r.MinWavelengths
	}

	// Pass 1: admission. Running jobs' floors are pre-reserved; queued
	// jobs join strictly in priority order while their minimums still fit.
	// Admission stops at the first queued job that does not fit (matching
	// dispatchPriority's head-of-line semantics): letting later
	// lower-priority arrivals backfill past a blocked wide high-priority
	// job would starve it indefinitely under a steady low-priority stream.
	reserved := 0
	for _, r := range cands {
		if r.state == stRunning {
			reserved += floor(r)
		}
	}
	var admit []*jobRec
	blocked := false
	for _, r := range cands {
		if r.state == stRunning {
			// Running jobs always stay in the solve (they keep at least
			// their minimum and share in the water-fill), even when they
			// sort below a blocked queued job.
			admit = append(admit, r)
			continue
		}
		if blocked || reserved+r.MinWavelengths > s.effBudget() {
			blocked = true
			continue
		}
		reserved += r.MinWavelengths
		admit = append(admit, r)
	}

	// Pass 2: tiered water-filling over the admitted set. Fill caps start
	// at each job's MaxWavelengths; when the widen guard below vetoes a
	// widening, the job is re-capped at its current width and the fill
	// re-solved, so the declined surplus flows to jobs whose own widening
	// still pays instead of sitting dark until the next event. Each veto
	// round permanently caps at least one job (a capped job's target can
	// never exceed its current width again), so the loop runs at most
	// len(admit) times.
	caps := make([]int, len(admit))
	for i, r := range admit {
		caps[i] = r.MaxWavelengths
		if pinned(r) {
			caps[i] = len(r.waves)
		}
	}
	solve := func() []int {
		target := make([]int, len(admit))
		for i, r := range admit {
			target[i] = floor(r)
		}
		surplus := s.effBudget() - reserved
		for lo := 0; lo < len(admit) && surplus > 0; {
			hi := lo
			for hi < len(admit) && admit[hi].Priority == admit[lo].Priority {
				hi++
			}
			for surplus > 0 {
				progressed := false
				for i := lo; i < hi && surplus > 0; i++ {
					if target[i] < caps[i] {
						target[i]++
						surplus--
						progressed = true
					}
				}
				if !progressed {
					break
				}
			}
			lo = hi
		}
		return target
	}
	target := solve()
	for s.err == nil {
		vetoed := false
		for i, r := range admit {
			if r.state == stRunning && target[i] > len(r.waves) && !s.widenPays(r, target[i]) {
				caps[i] = len(r.waves)
				vetoed = true
			}
		}
		if !vetoed {
			break
		}
		target = solve()
	}
	if s.err != nil {
		return
	}

	// Pass 3: apply. Release every shrinking/changed stripe before
	// allocating any new one so a widening job can absorb a shrinking
	// neighbor's wavelengths.
	var changed []*jobRec
	widths := make(map[*jobRec]int, len(admit))
	for i, r := range admit {
		if r.state != stRunning || target[i] == len(r.waves) {
			continue
		}
		changed = append(changed, r)
		widths[r] = target[i]
	}
	for _, r := range changed {
		s.pause(r)
	}
	for _, r := range changed {
		s.reconfigure(r, widths[r])
		if s.err != nil {
			return
		}
	}
	// Newly admitted jobs start at their solved width, penalty-free.
	admitted := make(map[*jobRec]bool, len(admit))
	for i, r := range admit {
		if r.state == stWaiting {
			admitted[r] = true
			widths[r] = target[i]
		}
	}
	q := s.queue.live()
	kept := 0
	for _, r := range q {
		if !admitted[r] {
			q[kept] = r
			kept++
		}
	}
	s.queue.truncate(kept)
	for _, r := range admit {
		if s.err == nil && admitted[r] {
			s.start(r, widths[r])
		}
	}
}
