package fabric

import (
	"math"
	"sort"
)

// This file holds the elastic solver. elasticIndex.solve indexes live
// tenants by priority tier with cached fill state, so a solve visits only
// the tiers whose water level can actually change and proves the rest
// untouched in O(1) per tier; solver work scales with the churned tiers,
// not the live set, which is what makes million-event traces affordable.
// Its semantics are those documented on ElasticReallocate. A from-scratch
// reference solver that walks every record on every solve lives in the
// package's tests, which hold the two bit-identical: same events, same
// stats, same recorder traces.

// jobLess is the scheduling order shared by the priority and elastic
// policies: priority descending, then arrival ascending, then admission
// index ascending — the final tie-break makes results stable across runs
// and sweep parallelism. victimsFor sorts by its negation.
func jobLess(a, b *jobRec) bool {
	if a.Priority != b.Priority {
		return a.Priority > b.Priority
	}
	if a.ArrivalSec != b.ArrivalSec {
		return a.ArrivalSec < b.ArrivalSec
	}
	return a.idx < b.idx
}

// dealLess is the order within one priority tier — arrival ascending,
// then admission index ascending — which is jobLess for two jobs of equal
// priority. It is the water-fill deal order of a tier's members and the
// order of its wait queue.
func dealLess(a, b *jobRec) bool {
	if a.ArrivalSec != b.ArrivalSec {
		return a.ArrivalSec < b.ArrivalSec
	}
	return a.idx < b.idx
}

// widenPays reports whether restarting r at the wider stripe strictly
// beats letting the current segment finish: the reconfiguration stall plus
// the re-priced tail must complete earlier than segStart+segLen. Pricing
// the candidate width may hit the caller's runtime function for the first
// time; its errors abort the simulation like any other runtime failure.
func (s *scheduler) widenPays(r *jobRec, width int) bool {
	tail, err := s.price(r, width)
	if err != nil {
		s.fail(err)
		return false
	}
	now := s.eng.Now()
	return now+s.pol.ReconfigDelaySec+tail*r.remainingAt(now) < r.segStart+r.segLen
}

// elasticReference, when set, replaces the incremental solver for every
// scheduler NewScheduler builds meanwhile: the scheduler keeps no tier
// index and its single FIFO wait queue, and dispatchElastic hands each
// whole solve to the hook. It is nil in production; only the package's
// tests set it, to run the reference solver.
var elasticReference func(*scheduler)

// dispatchElastic runs an elastic solve on the incremental tier index.
// Queued jobs whose floor no longer fits a dark-shrunk budget are parked
// first, and freed capacity settles dark after the solve.
func (s *scheduler) dispatchElastic() {
	if s.el == nil {
		elasticReference(s)
		return
	}
	s.parkUnfittable()
	if s.err != nil {
		return
	}
	s.el.solve(s)
	if s.err == nil {
		s.settleDark()
	}
}

// elTier is one priority tier of the incremental solver's live-tenant
// index: its member set (sorted by arrival, then admission index — the
// water-fill deal order) plus the cached fill state that lets a solve skip
// the tier entirely when its inputs are provably unchanged, and the tier's
// own wait queue.
type elTier struct {
	prio    int
	members []*jobRec
	// queue holds the tier's queued jobs in deal order. Read tier by tier
	// from the top, the tiers' queues are the whole wait queue in jobLess
	// order.
	queue waitQueue
	// sumMin/sumMax are Σ MinWavelengths / Σ MaxWavelengths over members:
	// the tier's floor and cap sums in the common case of no pinned and no
	// due members.
	sumMin int
	sumMax int
	// minEnd is a lower bound on the earliest running member completion
	// (exact as of the last fill; only member removals happen in between,
	// so it can only err conservative). A solve at now with
	// minEnd-now <= ReconfigDelaySec must scan members for pins and
	// exclusions; otherwise the cached sums are exact.
	minEnd float64
	// lastTotal is the tier's total width after the last applied fill
	// (-1 before the first); clean records that that fill had no pinned or
	// due members and no widen vetoes; dirty marks a membership change
	// since. A tier may be skipped — its assignments provably
	// byte-identical — iff !dirty && clean && no pins possible now && no
	// veto this solve && its granted total equals lastTotal: identical
	// inputs to a deterministic fill reproduce the applied widths exactly.
	lastTotal int
	clean     bool
	dirty     bool
	// Per-solve scratch: phase 1 of every solve sets exact and clears
	// hasVeto on every tier.
	exact     bool // pins/due members possible: member scan required
	hasVeto   bool
	fillClean bool // the last fill this solve saw no pins/due members
	floorSum  int  // exact floor sum (when exact)
	capSum    int  // exact cap sum (when exact)
}

// elasticIndex is the incremental solver's persistent state plus reusable
// scratch, so steady-state solves allocate nothing.
type elasticIndex struct {
	tiers   []*elTier // priority descending
	filled  []*elTier // tiers filled in the current round
	changed []*jobRec // running members whose width changes this solve
	caps    []int     // fillTier's per-member caps, in member order
	nAdmit  int
}

// enqueue queues r in its tier's wait queue in deal order, so admission
// walks pre-sorted queues instead of re-sorting per solve. A new arrival
// is almost always its tier's latest, so the slot is found by scanning
// back from the tail: only a retried, resumed or migrated job with an
// earlier arrival passes anyone.
func (el *elasticIndex) enqueue(r *jobRec) {
	q := &r.tier.queue
	live := q.live()
	i := len(live)
	for i > 0 && dealLess(r, live[i-1]) {
		i--
	}
	q.insert(i, r)
}

// depth is the number of jobs queued over every tier.
func (el *elasticIndex) depth() int {
	n := 0
	for _, t := range el.tiers {
		n += t.queue.depth()
	}
	return n
}

// tierQueueCap is the initial capacity of a tier's wait queue.
const tierQueueCap = 16

// tierFor returns (creating on demand) the tier for priority prio. Records
// resolve their tier once, at submit, so a solve never looks one up. A
// fabric sees a handful of priorities, so a scan beats a search.
func (el *elasticIndex) tierFor(prio int) *elTier {
	i := 0
	for i < len(el.tiers) && el.tiers[i].prio > prio {
		i++
	}
	if i < len(el.tiers) && el.tiers[i].prio == prio {
		return el.tiers[i]
	}
	t := &elTier{prio: prio, minEnd: math.Inf(1), lastTotal: -1}
	// One array for a tier queue's first tierQueueCap jobs, rather than
	// doubling into it from one.
	t.queue.buf = make([]*jobRec, 0, tierQueueCap)
	el.tiers = append(el.tiers, nil)
	copy(el.tiers[i+1:], el.tiers[i:])
	el.tiers[i] = t
	return t
}

// insertMember adds r to tier t in (ArrivalSec, idx) order — the
// water-fill deal order — and marks the tier dirty.
func (el *elasticIndex) insertMember(t *elTier, r *jobRec) {
	i := sort.Search(len(t.members), func(i int) bool { return dealLess(r, t.members[i]) })
	t.members = append(t.members, nil)
	copy(t.members[i+1:], t.members[i:])
	t.members[i] = r
	t.sumMin += r.MinWavelengths
	t.sumMax += r.MaxWavelengths
	t.dirty = true
}

// removeMember detaches a member that stops running from its tier. It
// finds the member by a scan of the tier's member pointers: a tier holds
// at most one running member per wavelength, and the scan reads a cache
// line or two where a binary search on the deal order would read a record
// per probe. Closing the gap shifts the later members down one slot to
// keep the deal order, and that shift is most of the cost.
func (el *elasticIndex) removeMember(r *jobRec) {
	t := r.tier
	for i, m := range t.members {
		if m == r {
			copy(t.members[i:], t.members[i+1:])
			t.members[len(t.members)-1] = nil
			t.members = t.members[:len(t.members)-1]
			break
		}
	}
	t.sumMin -= r.MinWavelengths
	t.sumMax -= r.MaxWavelengths
	t.dirty = true
}

// solve is the elastic re-solve: bit-identical in effect to the reference
// solver's from-scratch pass, but an event only pays for the tiers it can
// touch.
func (el *elasticIndex) solve(s *scheduler) {
	now := s.eng.Now()
	s.solver.Solves++
	solveID := s.solver.Solves
	delay := s.pol.ReconfigDelaySec

	// Phase 1: per-tier floor sums. A tier whose earliest member
	// completion lies within the settling delay may hold pinned (floor =
	// cap = current width) or due-to-complete (excluded) members and needs
	// an exact member scan; any other tier's floor sum is its cached
	// sumMin.
	reserved := 0
	for _, t := range el.tiers {
		t.hasVeto = false
		if len(t.members) == 0 {
			t.exact = false
			continue
		}
		t.exact = t.minEnd-now <= delay
		if !t.exact {
			reserved += t.sumMin
			continue
		}
		t.floorSum, t.capSum = 0, 0
		for _, m := range t.members {
			end := m.segStart + m.segLen
			if m.state == stRunning && now >= end {
				continue // due to complete at this instant: left alone
			}
			f, c := m.MinWavelengths, m.MaxWavelengths
			if m.state == stRunning && end-now <= delay {
				f = len(m.waves) // pinned at its current width
				c = f
			}
			t.floorSum += f
			t.capSum += c
		}
		reserved += t.floorSum
	}

	// Phase 2: admission. The tiers' wait queues, read from the top tier
	// down, are the whole queue in jobLess order, so queued jobs are
	// admitted from the front while their minimums fit; the first failure
	// blocks the rest, lower tiers included (head-of-line, matching
	// dispatchPriority — backfilling past a blocked wide high-priority job
	// would starve it). The admitted jobs are thus a prefix of that order.
	el.nAdmit = 0
admit:
	for _, t := range el.tiers {
		for _, r := range t.queue.live() {
			if reserved+r.MinWavelengths > s.effBudget() {
				break admit
			}
			reserved += r.MinWavelengths
			el.nAdmit++
			el.insertMember(t, r)
			if t.exact {
				t.floorSum += r.MinWavelengths
				t.capSum += r.MaxWavelengths
			}
		}
	}

	// Phase 3: water-fill with the widen-guard veto fixed point. Each
	// round deals the surplus tier by tier (highest priority first); a
	// tier is skipped outright when its fill inputs are provably identical
	// to its last applied fill. Vetoed widenings re-cap the job at its
	// current width and trigger another round, exactly like the reference
	// solver's global re-solve; each round permanently caps at least one
	// job, so the loop terminates. Right after its fill, a tier's members
	// take the veto check, which also collects the running members whose
	// width changes (a veto only re-caps this tier in the next round, so
	// checking before the next tier fills changes nothing). The round
	// without a veto holds the final targets, and its list is the one
	// phase 4 applies.
	for {
		el.filled = el.filled[:0]
		el.changed = el.changed[:0]
		remaining := s.effBudget() - reserved
		anyVeto := false
		for _, t := range el.tiers {
			if len(t.members) == 0 {
				continue
			}
			floorSum, capSum := t.sumMin, t.sumMax
			if t.exact {
				floorSum, capSum = t.floorSum, t.capSum
			}
			if t.hasVeto {
				capSum = el.capSumWithVetoes(t, now, delay, solveID)
			}
			g := capSum - floorSum
			if g > remaining {
				g = remaining
			}
			if g < 0 {
				// Pinned floors can briefly exceed a dark-shrunk budget;
				// the tier then fills at its floors only.
				g = 0
			}
			total := floorSum + g
			remaining -= g
			if !t.dirty && !t.exact && !t.hasVeto && t.clean && t.lastTotal == total {
				s.solver.TiersSkipped++
				continue // assignments provably unchanged, byte-identical
			}
			el.fillTier(s, t, g, now, delay, solveID)
			el.filled = append(el.filled, t)
			for _, m := range t.members {
				if m.state != stRunning || m.elTarget == len(m.waves) {
					continue
				}
				if m.elTarget > len(m.waves) && !s.widenPays(m, m.elTarget) {
					if s.err != nil {
						return
					}
					m.vetoCap = len(m.waves)
					m.vetoStamp = solveID
					t.hasVeto = true
					anyVeto = true
					continue
				}
				el.changed = append(el.changed, m)
			}
		}
		s.solver.TiersTouched += int64(len(el.filled))
		if !anyVeto {
			break
		}
	}

	// Phase 4: apply, in the reference solver's exact order — pause every
	// changed running member (tiers descending, members in deal order),
	// reconfigure them in the same order, drop the admitted prefix from
	// the queue, then start the admitted jobs. The start pass also
	// refreshes each filled tier's cached fill state from the applied
	// assignment.
	for _, m := range el.changed {
		s.pause(m)
	}
	for _, m := range el.changed {
		s.reconfigure(m, m.elTarget)
		if s.err != nil {
			return
		}
	}
	// The admitted prefix leaves by moving each tier queue's head: nothing
	// shifts, and enqueue reclaims the front slots when the array fills.
	for i, n := 0, el.nAdmit; n > 0; i++ {
		q := &el.tiers[i].queue
		k := min(n, q.depth())
		q.popFront(k)
		n -= k
	}
	for _, t := range el.filled {
		total := 0
		minEnd := math.Inf(1)
		for _, m := range t.members {
			if m.state == stWaiting {
				if s.start(m, m.elTarget); s.err != nil {
					return
				}
			}
			if m.state == stRunning {
				total += len(m.waves)
				if end := m.segStart + m.segLen; end < minEnd {
					minEnd = end
				}
			}
		}
		t.dirty = false
		t.clean = t.fillClean && !t.hasVeto
		t.lastTotal = total
		t.minEnd = minEnd
	}
}

// capSumWithVetoes recomputes a tier's cap sum with this solve's veto caps
// (and pins/exclusions) applied.
func (el *elasticIndex) capSumWithVetoes(t *elTier, now, delay float64, solveID int64) int {
	sum := 0
	for _, m := range t.members {
		end := m.segStart + m.segLen
		if m.state == stRunning && now >= end {
			continue
		}
		c := m.MaxWavelengths
		if m.state == stRunning && end-now <= delay {
			c = len(m.waves)
		}
		if m.vetoStamp == solveID && m.vetoCap < c {
			c = m.vetoCap
		}
		sum += c
	}
	return sum
}

// fillTier materializes one tier's water-fill: targets start at each
// member's floor, then g surplus wavelengths are dealt one at a time
// round-robin in member order until every member hits its cap — the exact
// deal the reference solver performs on this tier's segment of the global
// admitted list.
func (el *elasticIndex) fillTier(s *scheduler, t *elTier, g int, now, delay float64, solveID int64) {
	t.fillClean = true
	s.solver.JobsRepriced += int64(len(t.members))
	caps := el.caps[:0]
	for _, m := range t.members {
		end := m.segStart + m.segLen
		if m.state == stRunning && now >= end {
			// Due to complete at this instant: untouched by the solve.
			m.elTarget = len(m.waves)
			caps = append(caps, m.elTarget)
			t.fillClean = false
			continue
		}
		f, c := m.MinWavelengths, m.MaxWavelengths
		if m.state == stRunning && end-now <= delay {
			f = len(m.waves)
			c = f
			t.fillClean = false
		}
		if m.vetoStamp == solveID && m.vetoCap < c {
			c = m.vetoCap
		}
		m.elTarget = f
		caps = append(caps, c)
	}
	el.caps = caps
	for g > 0 {
		progressed := false
		for i, m := range t.members {
			if g == 0 {
				break
			}
			if m.elTarget < caps[i] {
				m.elTarget++
				g--
				progressed = true
			}
		}
		if !progressed {
			break
		}
	}
}
