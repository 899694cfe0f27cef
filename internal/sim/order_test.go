package sim

import (
	"errors"
	"math/rand"
	"sort"
	"testing"
)

// orderHarness drives one Engine through a seeded random workload whose
// handlers schedule a mix of same-instant and future events from inside
// other handlers, recording every scheduled event and the execution order.
type orderHarness struct {
	t     *testing.T
	rng   *rand.Rand
	e     *Engine
	h     HandlerID
	sched []orderEvent // every event scheduled this round, indexed by id
	ran   []int32      // executed ids, in execution order
	limit int          // stop spawning children once this many are scheduled
	peak  int          // reference high-water mark of the pending count
}

type orderEvent struct {
	time float64
	id   int32 // scheduling sequence within the round
}

// orderDelays mixes same-instant events (0) with a few future offsets drawn
// from a small set, so equal timestamps are common both among events
// scheduled at the current instant and among future ones.
var orderDelays = []float64{0, 0, 0, 0.5, 1, 1, 2.5}

func newOrderHarness(t *testing.T, seed int64) *orderHarness {
	o := &orderHarness{t: t, rng: rand.New(rand.NewSource(seed)), e: &Engine{}}
	o.h = o.e.Register(o.fire)
	return o
}

func (o *orderHarness) schedule(at float64) {
	id := int32(len(o.sched))
	o.sched = append(o.sched, orderEvent{time: at, id: id})
	o.e.Schedule(at, o.h, id)
	if p := len(o.sched) - len(o.ran); p > o.peak {
		o.peak = p
	}
	if got, want := o.e.Pending(), len(o.sched)-len(o.ran); got != want {
		o.t.Fatalf("Pending = %d after scheduling, want %d", got, want)
	}
}

func (o *orderHarness) fire(arg int32) {
	if now, want := o.e.Now(), o.sched[arg].time; now != want {
		o.t.Fatalf("event %d ran at %v, scheduled for %v", arg, now, want)
	}
	o.ran = append(o.ran, arg)
	if len(o.sched) >= o.limit {
		return
	}
	for n := o.rng.Intn(3); n > 0; n-- {
		o.schedule(o.e.Now() + orderDelays[o.rng.Intn(len(orderDelays))])
	}
}

// seedRound starts a fresh round on a drained engine: a handful of external
// events, some at the current instant. The reference peak carries over, as
// MaxPending does, until the next Reset.
func (o *orderHarness) seedRound(limit int) {
	o.sched, o.ran, o.limit = o.sched[:0], o.ran[:0], limit
	for i := 0; i < 8; i++ {
		o.schedule(o.e.Now() + orderDelays[o.rng.Intn(len(orderDelays))])
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
// MaxPending count every queued event.
func TestExecutionOrderMatchesReference(t *testing.T) {
	errStop := errors.New("stop")
	for seed := int64(1); seed <= 40; seed++ {
		o := newOrderHarness(t, seed)
		for round := 0; round < 4; round++ {
			o.seedRound(200 + o.rng.Intn(600))
			switch o.rng.Intn(3) {
			case 0:
				o.e.Run()
				o.check(true)
			case 1:
				// Horizons land both on and between event times; after
				// each, schedule from outside at the (possibly advanced)
				// current instant and later.
				for o.e.Pending() > 0 {
					o.e.RunUntil(o.e.Now() + float64(o.rng.Intn(4))*0.5)
					o.check(false)
					if len(o.sched) < o.limit {
						o.schedule(o.e.Now())
						o.schedule(o.e.Now() + orderDelays[o.rng.Intn(len(orderDelays))])
					}
				}
				o.check(true)
			case 2:
				every := int64(1 + o.rng.Intn(50))
				stopAfter := o.rng.Intn(6)
				checks := 0
				_, err := o.e.RunChecked(every, func() error {
					if checks++; checks > stopAfter {
						return errStop
					}
					return nil
				})
				if err == nil {
					o.check(true)
					break
				}
				// Abandonment drops the queue but keeps the executed prefix.
				if want := int(every) * (stopAfter + 1); len(o.ran) != want {
					t.Fatalf("seed %d: abandoned after %d events, want %d", seed, len(o.ran), want)
				}
				if o.e.Pending() != 0 {
					t.Fatalf("seed %d: %d events pending after abandonment", seed, o.e.Pending())
				}
				o.checkOrder(false)
				if got := o.e.MaxPending(); got != o.peak {
					t.Fatalf("seed %d: MaxPending = %d after abandonment, want %d", seed, got, o.peak)
				}
				// The engine stays usable at the frozen clock.
				frozen := o.e.Now()
				o.sched, o.ran = o.sched[:0], o.ran[:0]
				o.schedule(frozen)
				o.schedule(frozen + 1)
				o.e.Run()
				o.check(true)
			}
			if o.rng.Intn(2) == 0 {
				o.reset()
			}
		}
	}
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
	return e.heap[0].time
}
