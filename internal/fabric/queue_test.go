package fabric

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"wrht/internal/faults"
	"wrht/internal/sim"
)

// checkWaitQueue reports the first broken wait-queue invariant of an
// elastic scheduler. Its tiers' queues, read from the top tier down, must
// be sorted by jobLess and hold only waiting records of their own tier;
// queuedMin must be the sum of their minimums; the scheduler's FIFO queue
// must be unused; and no slot outside a queue's window may still point at
// a record (a recycled Lite record must not be retained by a queue's
// backing array).
func checkWaitQueue(s *scheduler) error {
	if err := checkWindow(&s.queue); err != nil {
		return fmt.Errorf("FIFO queue: %v", err)
	}
	if d := s.queue.depth(); d != 0 {
		return fmt.Errorf("FIFO queue holds %d jobs under the tier index", d)
	}
	var prev *jobRec
	sum := 0
	for _, t := range s.el.tiers {
		for i, r := range t.queue.live() {
			switch {
			case r == nil:
				return fmt.Errorf("tier %d: live slot %d is nil", t.prio, i)
			case r.state != stWaiting:
				return fmt.Errorf("tier %d: queued job %d is in state %d, not waiting", t.prio, r.idx, r.state)
			case r.tier != t:
				return fmt.Errorf("tier %d: queued job %d has priority %d", t.prio, r.idx, r.Priority)
			case prev != nil && jobLess(r, prev):
				return fmt.Errorf("queue unsorted in tier %d: job %d before job %d", t.prio, prev.idx, r.idx)
			}
			prev = r
			sum += r.MinWavelengths
		}
		if err := checkWindow(&t.queue); err != nil {
			return fmt.Errorf("tier %d: %v", t.prio, err)
		}
	}
	if sum != s.load.QueuedMin {
		return fmt.Errorf("queuedMin %d, queued minimums sum to %d", s.load.QueuedMin, sum)
	}
	return nil
}

// checkWindow reports a slot of q outside its live window that still
// holds a record.
func checkWindow(q *waitQueue) error {
	for i, r := range q.buf[:q.head] {
		if r != nil {
			return fmt.Errorf("slot %d before the head (%d) still holds job %d", i, q.head, r.idx)
		}
	}
	for i, r := range q.buf[len(q.buf):cap(q.buf)] {
		if r != nil {
			return fmt.Errorf("slot %d past the tail still holds job %d", len(q.buf)+i, r.idx)
		}
	}
	return nil
}

// TestWaitQueueInvariantsUnderFleetFaults runs three Lite elastic fabrics
// on one engine the way internal/fleet does under MigrateOnFailure: seeded
// heavy-tail arrivals, wavelength and job faults, and whole-fabric outages
// whose evicted jobs restart on the next fabric that is up. Every fabric's
// wait queue is checked after every solve.
func TestWaitQueueInvariantsUnderFleetFaults(t *testing.T) {
	budgets := []int{8, 6, 4}
	nFab := len(budgets)
	var eng sim.Engine
	scheds := make([]*Scheduler, nFab)
	down := make([]bool, nFab)
	var held []Resubmit // evicted while every fabric was down
	// migrate restarts an evicted job from scratch on the first fabric
	// after `from` that is up, or holds it for the next repair.
	migrate := func(from int, rs Resubmit) {
		for k := 1; k <= nFab; k++ {
			to := (from + k) % nFab
			if down[to] {
				continue
			}
			rs.Job.ArrivalSec = eng.Now() + 0.01
			rs.Remaining, rs.CkptRemaining, rs.CkptService = 1, 1, 0
			if err := scheds[to].SubmitResumed(&rs); err != nil {
				t.Fatal(err)
			}
			return
		}
		held = append(held, rs)
	}
	solves, maxDepth, maxHead := 0, 0, 0
	for i, b := range budgets {
		sch, err := NewScheduler(&eng, b, Policy{Kind: ElasticReallocate, ReconfigDelaySec: 1e-3}, SchedOpts{
			Lite:    true,
			OnEvict: func(rs Resubmit) { migrate(i, rs) },
		})
		if err != nil {
			t.Fatal(err)
		}
		s := sch.s
		s.afterSolve = func() {
			solves++
			maxDepth = max(maxDepth, s.queueDepth())
			for _, t := range s.el.tiers {
				maxHead = max(maxHead, t.queue.head)
			}
			if err := checkWaitQueue(s); err != nil {
				t.Fatalf("fabric %d, solve at %v: %v", i, eng.Now(), err)
			}
		}
		scheds[i] = sch
	}

	// Heavy-tail arrivals faster than the fleet drains them, so queues run
	// deep: Pareto iteration counts on three shared shapes plus private
	// shape-0 jobs.
	rng := rand.New(rand.NewSource(7))
	shapeWork := []float64{0, 0.02, 0.05, 0.1}
	at := 0.0
	const n = 3000
	for i := 0; i < n; i++ {
		at += rng.ExpFloat64() * 0.01
		shape := rng.Intn(len(shapeWork))
		work := shapeWork[shape]
		if shape == 0 {
			work = 0.01 + 0.1*rng.Float64()
		}
		minW := 1 + rng.Intn(2)
		j := Job{
			ArrivalSec:         at,
			Priority:           rng.Intn(3),
			MinWavelengths:     minW,
			MaxWavelengths:     minW + rng.Intn(4),
			Iterations:         int(math.Min(50, math.Pow(1-rng.Float64(), -1/1.5))),
			Shape:              shape,
			CheckpointEverySec: 0.05,
			Runtime:            perfectScaling(work),
		}
		if err := scheds[i%nFab].Submit(&j); err != nil {
			t.Fatal(err)
		}
	}

	plan := faults.Plan{
		Seed: 3, HorizonSec: at,
		WavelengthMTBFSec: at / 20, WavelengthMTTRSec: at / 100,
		JobFaultMTBFSec: at / 40,
		FabricMTBFSec:   at / 4, FabricMTTRSec: at / 40,
	}
	evs, err := plan.Events(nFab)
	if err != nil {
		t.Fatal(err)
	}
	outages := 0
	hFault := eng.Register(func(k int32) {
		ev := evs[k]
		sch := scheds[ev.Fabric]
		switch ev.Kind {
		case faults.WavelengthDown:
			sch.WavelengthsDown(ev.Count)
		case faults.WavelengthUp:
			sch.WavelengthsUp(ev.Count)
		case faults.JobFault:
			sch.InjectJobFault(ev.Pick, ev.Job)
		case faults.FabricDown:
			if down[ev.Fabric] {
				return
			}
			down[ev.Fabric] = true
			outages++
			for _, rs := range sch.Outage() {
				migrate(ev.Fabric, rs)
			}
		case faults.FabricUp:
			if !down[ev.Fabric] {
				return
			}
			down[ev.Fabric] = false
			sch.Restore()
			pending := held
			held = nil
			for _, rs := range pending {
				migrate(ev.Fabric+nFab-1, rs) // the repaired fabric first
			}
		}
	})
	for k, ev := range evs {
		eng.Schedule(ev.TimeSec, hFault, int32(k))
	}
	eng.Run()

	if len(held) != 0 {
		t.Fatalf("%d evicted jobs never found a fabric", len(held))
	}
	evictions := 0
	for i, sch := range scheds {
		res, err := sch.Finalize()
		if err != nil {
			t.Fatalf("fabric %d: %v", i, err)
		}
		evictions += res.Evictions
	}
	t.Logf("%d solves, %d outages, %d evictions, deepest queue %d, furthest head %d",
		solves, outages, evictions, maxDepth, maxHead)
	if outages == 0 || evictions == 0 {
		t.Fatalf("faults did not bite: %d outages, %d evictions", outages, evictions)
	}
	if maxDepth < 100 || maxHead == 0 {
		t.Fatalf("deepest queue %d, furthest head %d: want a queue of 100+ admitted from by its head",
			maxDepth, maxHead)
	}
}

// TestWaitQueueSteadyDepthAllocationFree holds an elastic wait queue at a
// steady depth while jobs leave the front of the top tier holding any (a
// solve's admission) and re-enter in deal order at the tail of their own
// tier (enqueue). The stranded front slots must be reclaimed in place:
// tier queues that do not grow must not allocate.
func TestWaitQueueSteadyDepthAllocationFree(t *testing.T) {
	s := &scheduler{budget: 8, el: &elasticIndex{}, load: &Load{Free: 8}}
	next := 0
	arrive := func(r *jobRec) {
		r.idx, r.ArrivalSec, r.Priority = next, float64(next), next%3
		r.tier = s.el.tierFor(r.Priority)
		r.MinWavelengths = 1
		next++
		s.enqueue(r)
	}
	for i := 0; i < 100; i++ {
		arrive(new(jobRec))
	}
	cycle := func() {
		for k := 0; k < 2; k++ {
			i := 0
			for s.el.tiers[i].queue.depth() == 0 {
				i++
			}
			q := &s.el.tiers[i].queue
			r := q.live()[0]
			q.popFront(1)
			s.dequeued(r)
			arrive(r)
		}
	}
	allocs := testing.AllocsPerRun(1, func() {
		for k := 0; k < 10000; k++ {
			cycle()
		}
	})
	if allocs != 0 {
		t.Fatalf("%v allocations over 10000 admit/enqueue cycles at depth %d, want 0", allocs, s.queueDepth())
	}
	if err := checkWaitQueue(s); err != nil {
		t.Fatal(err)
	}
}
