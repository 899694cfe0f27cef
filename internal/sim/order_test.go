package sim

import (
	"errors"
	"math/rand"
	"sort"
	"testing"
)

// orderHarness drives one Engine through a workload whose handlers
// schedule a mix of same-instant and future events from inside other
// handlers, recording every scheduled event and the execution order. Every
// choice comes from pick, a seeded generator or a fuzz input.
type orderHarness struct {
	t     *testing.T
	pick  func(n int) int // a choice in [0, n)
	e     *Engine
	h     HandlerID
	sched []orderEvent // every event scheduled this round, indexed by id
	ran   []int32      // executed ids, in execution order
	limit int          // stop spawning children once this many are scheduled
	peak  int          // reference high-water mark of the pending count
	// fused counts events scheduled into the hole a heap pop left, and
	// holes the RunUntil horizons and Resets met still open.
	fused, openHoles int
}

type orderEvent struct {
	time float64
	id   int32 // scheduling sequence within the round
}

// orderDelays mixes same-instant events (0) with a few future offsets drawn
// from a small set, so equal timestamps are common both among events
// scheduled at the current instant and among future ones.
var orderDelays = []float64{0, 0, 0, 0.5, 1, 1, 2.5}

func newOrderHarness(t *testing.T, pick func(n int) int) *orderHarness {
	o := &orderHarness{t: t, pick: pick, e: &Engine{}}
	o.h = o.e.Register(o.fire)
	return o
}

func (o *orderHarness) schedule(at float64) {
	id := int32(len(o.sched))
	o.sched = append(o.sched, orderEvent{time: at, id: id})
	if at > o.e.Now() && o.e.hole != 0 {
		o.fused++
	}
	o.e.Schedule(at, o.h, id)
	if p := len(o.sched) - len(o.ran); p > o.peak {
		o.peak = p
	}
	if got, want := o.e.Pending(), len(o.sched)-len(o.ran); got != want {
		o.t.Fatalf("Pending = %d after scheduling, want %d", got, want)
	}
}

// fire runs one event. Right after a heap pop the engine holds a hole at
// the root, so the zero to three children scheduled here (future ones fill
// the hole, same-instant ones queue behind it) exercise the fused
// replace-top as well as the ordinary push.
func (o *orderHarness) fire(arg int32) {
	if now, want := o.e.Now(), o.sched[arg].time; now != want {
		o.t.Fatalf("event %d ran at %v, scheduled for %v", arg, now, want)
	}
	o.ran = append(o.ran, arg)
	if len(o.sched) >= o.limit {
		return
	}
	for n := o.pick(4); n > 0; n-- {
		o.schedule(o.e.Now() + orderDelays[o.pick(len(orderDelays))])
	}
}

// seedRound starts a fresh round on a drained engine: a handful of external
// events, some at the current instant. The reference peak carries over, as
// MaxPending does, until the next Reset.
func (o *orderHarness) seedRound(limit int) {
	o.sched, o.ran, o.limit = o.sched[:0], o.ran[:0], limit
	for i := 0; i < 8; i++ {
		o.schedule(o.e.Now() + orderDelays[o.pick(len(orderDelays))])
	}
}

// round seeds a round of up to limit events and drives it to completion
// one of three ways, each checked against the reference: Run; RunUntil
// horizons with external scheduling in between; or RunChecked abandonment
// followed by reuse at the frozen clock.
func (o *orderHarness) round(limit, mode int) {
	o.t.Helper()
	errStop := errors.New("stop")
	o.seedRound(limit)
	switch mode {
	case 0:
		o.e.Run()
		o.check(true)
	case 1:
		// Horizons land both on and between event times; after each,
		// schedule from outside at the (possibly advanced) current instant
		// and later. A horizon at the current instant that runs nothing,
		// once the round may schedule no more, is followed by one at the
		// next event's time, so a run of zero picks still ends.
		for o.e.Pending() > 0 {
			if o.e.RunUntil(o.e.Now()+float64(o.pick(4))*0.5) == 0 && len(o.sched) >= o.limit {
				o.e.RunUntil(o.e.nextTime())
			}
			o.openHoles += o.e.hole
			o.check(false)
			if len(o.sched) < o.limit {
				o.schedule(o.e.Now())
				o.schedule(o.e.Now() + orderDelays[o.pick(len(orderDelays))])
			}
		}
		o.check(true)
	case 2:
		every := int64(1 + o.pick(50))
		stopAfter := o.pick(6)
		checks := 0
		_, err := o.e.RunChecked(every, func() error {
			if checks++; checks > stopAfter {
				return errStop
			}
			return nil
		})
		if err == nil {
			o.check(true)
			return
		}
		// Abandonment drops the queue but keeps the executed prefix.
		if want := int(every) * (stopAfter + 1); len(o.ran) != want {
			o.t.Fatalf("abandoned after %d events, want %d", len(o.ran), want)
		}
		if o.e.Pending() != 0 {
			o.t.Fatalf("%d events pending after abandonment", o.e.Pending())
		}
		o.checkOrder(false)
		if got := o.e.MaxPending(); got != o.peak {
			o.t.Fatalf("MaxPending = %d after abandonment, want %d", got, o.peak)
		}
		// The engine stays usable at the frozen clock.
		frozen := o.e.Now()
		o.sched, o.ran = o.sched[:0], o.ran[:0]
		o.schedule(frozen)
		o.schedule(frozen + 1)
		o.e.Run()
		o.check(true)
	}
}

// check asserts the executed ids are exactly a prefix (all of it when
// complete) of every scheduled event sorted by (time, scheduling sequence),
// and that Pending and MaxPending match the reference counts.
func (o *orderHarness) check(complete bool) {
	o.t.Helper()
	o.checkOrder(complete)
	if got, want := o.e.Pending(), len(o.sched)-len(o.ran); got != want {
		o.t.Fatalf("Pending = %d, want %d", got, want)
	}
	if got := o.e.MaxPending(); got != o.peak {
		o.t.Fatalf("MaxPending = %d, want %d", got, o.peak)
	}
}

func (o *orderHarness) checkOrder(complete bool) {
	o.t.Helper()
	ref := append([]orderEvent(nil), o.sched...)
	sort.Slice(ref, func(a, b int) bool {
		if ref[a].time != ref[b].time {
			return ref[a].time < ref[b].time
		}
		return ref[a].id < ref[b].id
	})
	if complete && len(o.ran) != len(ref) {
		o.t.Fatalf("ran %d of %d scheduled events", len(o.ran), len(ref))
	}
	for i, id := range o.ran {
		if ref[i].id != id {
			o.t.Fatalf("execution %d ran event %d (t=%v), reference order has %d (t=%v)",
				i, id, o.sched[id].time, ref[i].id, ref[i].time)
		}
	}
}

func (o *orderHarness) reset() {
	o.openHoles += o.e.hole
	o.e.Reset()
	o.sched, o.ran, o.peak = o.sched[:0], o.ran[:0], 0
	if o.e.Now() != 0 || o.e.Pending() != 0 || o.e.MaxPending() != 0 || o.e.Steps() != 0 {
		o.t.Fatalf("Reset left now=%v pending=%d max=%d steps=%d",
			o.e.Now(), o.e.Pending(), o.e.MaxPending(), o.e.Steps())
	}
}

// TestExecutionOrderMatchesReference is the engine's ordering contract:
// whatever mix of same-instant and future events handlers schedule, and
// however the run is driven (Run, RunUntil horizons with external
// scheduling in between, RunChecked abandonment, Reset and reuse), events
// execute exactly in (time, scheduling sequence) order, and Pending and
// MaxPending count every queued event. The runs must also reach the fused
// replace-top and leave holes open at RunUntil horizons and Resets.
func TestExecutionOrderMatchesReference(t *testing.T) {
	fused, openHoles := 0, 0
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		o := newOrderHarness(t, rng.Intn)
		for round := 0; round < 4; round++ {
			o.round(200+rng.Intn(600), rng.Intn(3))
			if rng.Intn(2) == 0 {
				o.reset()
			}
		}
		fused += o.fused
		openHoles += o.openHoles
	}
	if fused == 0 || openHoles == 0 {
		t.Fatalf("%d fused pushes, %d open holes at a horizon or Reset: want both > 0", fused, openHoles)
	}
}

// FuzzEngineOrder holds the engine to the sorted reference on schedule
// programs decoded from fuzz bytes: the first byte picks the round count
// and each later byte one choice (how a round is driven, how many children
// an event schedules and at which delay, horizons, check intervals),
// reduced modulo the choice's range; an exhausted input reads as zeros,
// so every program terminates. The seed corpus in testdata covers each
// driving mode.
func FuzzEngineOrder(f *testing.F) {
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		in := data
		pick := func(n int) int {
			if len(in) == 0 {
				return 0
			}
			b := int(in[0])
			in = in[1:]
			return b % n
		}
		o := newOrderHarness(t, pick)
		for rounds := 1 + pick(4); rounds > 0; rounds-- {
			o.round(16+pick(240), pick(3))
			if pick(2) == 0 {
				o.reset()
			}
		}
	})
}

// Reset returns the engine to time zero with an empty queue, keeping the
// event slabs and registered handlers for reuse.
func (e *Engine) Reset() {
	e.now, e.seq, e.nsteps = 0, 0, 0
	e.maxPending = 0
	e.drop()
}

// RunUntil executes events with time <= t, then sets the clock to t (if the
// queue drained earlier) and returns the number of events executed.
func (e *Engine) RunUntil(t float64) int64 {
	executed := int64(0)
	for e.Pending() > 0 && e.nextTime() <= t {
		e.step()
		executed++
	}
	if e.now < t {
		e.now = t
	}
	return executed
}

// nextTime is the time of the earliest pending event; at least one must be
// pending.
func (e *Engine) nextTime() float64 {
	if e.head < len(e.lane) {
		return e.now
	}
	if e.hole != 0 {
		e.closeHole()
	}
	return e.heap[0].time
}
