package sim

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// recorder registers a handler that appends its arg to *order.
func recorder(e *Engine, order *[]int32) HandlerID {
	return e.Register(func(arg int32) { *order = append(*order, arg) })
}

func TestEventsRunInTimeOrder(t *testing.T) {
	var e Engine
	var order []int32
	h := recorder(&e, &order)
	e.Schedule(3, h, 3)
	e.Schedule(1, h, 1)
	e.Schedule(2, h, 2)
	if end := e.Run(); end != 3 {
		t.Fatalf("end time %v", end)
	}
	for i, want := range []int32{1, 2, 3} {
		if order[i] != want {
			t.Fatalf("order %v", order)
		}
	}
}

func TestTiesBreakBySchedulingOrder(t *testing.T) {
	var e Engine
	var order []string
	names := []string{"a", "b", "c"}
	h := e.Register(func(arg int32) { order = append(order, names[arg]) })
	e.Schedule(1, h, 0)
	e.Schedule(1, h, 1)
	e.Schedule(1, h, 2)
	e.Run()
	if order[0] != "a" || order[1] != "b" || order[2] != "c" {
		t.Fatalf("tie order %v", order)
	}
}

func TestNestedScheduling(t *testing.T) {
	var e Engine
	var hits []float64
	inner := e.Register(func(int32) { hits = append(hits, e.Now()) })
	outer := e.Register(func(int32) {
		hits = append(hits, e.Now())
		e.Schedule(e.Now()+0.5, inner, 0)
	})
	e.Schedule(1, outer, 0)
	end := e.Run()
	if end != 1.5 || len(hits) != 2 || hits[1] != 1.5 {
		t.Fatalf("end=%v hits=%v", end, hits)
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	var e Engine
	var h HandlerID
	h = e.Register(func(int32) {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.Schedule(1, h, 0)
	})
	e.Schedule(5, h, 0)
	e.Run()
}

// TestNaNTimePanics schedules a NaN delay from inside a handler, where the
// clock is already running.
func TestNaNTimePanics(t *testing.T) {
	var e Engine
	var h HandlerID
	h = e.Register(func(int32) {
		defer func() {
			if recover() == nil {
				t.Error("NaN time accepted")
			}
		}()
		e.Schedule(e.Now()+math.NaN(), h, 0)
	})
	e.Schedule(2, h, 0)
	e.Run()
}

func TestRunUntil(t *testing.T) {
	var e Engine
	count := 0
	h := e.Register(func(int32) { count++ })
	for i := 1; i <= 5; i++ {
		e.Schedule(float64(i), h, 0)
	}
	if n := e.RunUntil(3); n != 3 || count != 3 {
		t.Fatalf("executed %d, count %d", n, count)
	}
	if e.Now() != 3 {
		t.Fatalf("now %v", e.Now())
	}
	if e.Pending() != 2 {
		t.Fatalf("pending %d", e.Pending())
	}
	e.Run()
	if count != 5 || e.Steps() != 5 {
		t.Fatalf("count %d steps %d", count, e.Steps())
	}
}

func TestRunUntilAdvancesClockWhenIdle(t *testing.T) {
	var e Engine
	e.RunUntil(7)
	if e.Now() != 7 {
		t.Fatalf("now %v", e.Now())
	}
}

func TestDeterministicUnderRandomLoad(t *testing.T) {
	run := func(seed int64) []float64 {
		rng := rand.New(rand.NewSource(seed))
		var e Engine
		var times []float64
		h := e.Register(func(int32) { times = append(times, e.Now()) })
		for i := 0; i < 500; i++ {
			e.Schedule(rng.Float64()*100, h, 0)
		}
		e.Run()
		return times
	}
	a, b := run(42), run(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("non-deterministic at %d: %v vs %v", i, a[i], b[i])
		}
	}
	if !sort.Float64sAreSorted(a) {
		t.Fatal("event times not monotone")
	}
}

// --- PR 3 edge cases: the typed 4-ary heap engine ---

func TestRunUntilAdvancesClockPastDrainedQueue(t *testing.T) {
	var e Engine
	ran := false
	e.Schedule(2, e.Register(func(int32) { ran = true }), 0)
	// The queue drains at t=2; the clock must still advance to the horizon.
	if n := e.RunUntil(10); n != 1 || !ran {
		t.Fatalf("executed %d, ran=%v", n, ran)
	}
	if e.Now() != 10 {
		t.Fatalf("now %v, want 10", e.Now())
	}
	// A horizon behind the clock must not move time backwards.
	if n := e.RunUntil(5); n != 0 {
		t.Fatalf("executed %d on empty queue", n)
	}
	if e.Now() != 10 {
		t.Fatalf("now %v after RunUntil(5), want 10", e.Now())
	}
}

// TestSchedulePastTimePanics moves the clock with RunUntil alone (no event
// ran) and schedules behind it from outside any handler.
func TestSchedulePastTimePanics(t *testing.T) {
	var e Engine
	h := e.Register(func(int32) {})
	e.RunUntil(5)
	defer func() {
		if recover() == nil {
			t.Error("Schedule in the past did not panic")
		}
	}()
	e.Schedule(1, h, 0)
}

func TestScheduleNaNPanics(t *testing.T) {
	var e Engine
	h := e.Register(func(int32) {})
	defer func() {
		if recover() == nil {
			t.Fatal("NaN time accepted by Schedule")
		}
	}()
	e.Schedule(math.NaN(), h, 0)
}

func TestScheduleUnregisteredHandlerPanics(t *testing.T) {
	var e Engine
	defer func() {
		if recover() == nil {
			t.Fatal("unregistered handler accepted")
		}
	}()
	e.Schedule(1, 7, 0)
}

func TestHandlerDispatchCarriesArg(t *testing.T) {
	var e Engine
	var got []int32
	h := e.Register(func(arg int32) { got = append(got, arg) })
	e.Schedule(2, h, 20)
	e.Schedule(1, h, 10)
	e.Schedule(3, h, 30)
	e.Run()
	for i, want := range []int32{10, 20, 30} {
		if got[i] != want {
			t.Fatalf("dispatch order %v", got)
		}
	}
}

// TestQuaternaryHeapTieBreaking drives the 4-ary heap through heavy same-time
// contention: many events share timestamps, interleaved with earlier and
// later ones, and every tie must still resolve in scheduling order.
func TestQuaternaryHeapTieBreaking(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var e Engine
	type rec struct {
		time float64
		id   int
	}
	var got []rec
	h := e.Register(func(arg int32) { got = append(got, rec{e.Now(), int(arg)}) })
	// Only 5 distinct timestamps over 2000 events: ~400-way ties each.
	for i := 0; i < 2000; i++ {
		e.Schedule(float64(rng.Intn(5)), h, int32(i))
	}
	e.Run()
	if len(got) != 2000 {
		t.Fatalf("ran %d events", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i].time < got[i-1].time {
			t.Fatalf("time went backwards at %d", i)
		}
		if got[i].time == got[i-1].time && got[i].id < got[i-1].id {
			t.Fatalf("tie at t=%v broke out of scheduling order: %d before %d",
				got[i].time, got[i-1].id, got[i].id)
		}
	}
}

// TestSameInstantLane pins the lane's place in the order: events a handler
// schedules at the current instant run after every event already due then
// (even those still in the heap) and before the clock advances, and Pending
// counts them.
func TestSameInstantLane(t *testing.T) {
	var e Engine
	var order []int32
	rec := recorder(&e, &order)
	spawn := e.Register(func(arg int32) {
		order = append(order, arg)
		e.Schedule(e.Now(), rec, arg+1)
		e.Schedule(e.Now(), rec, arg+2)
		if e.Pending() != 5 {
			t.Errorf("Pending = %d inside the handler, want 5", e.Pending())
		}
	})
	e.Schedule(1, spawn, 10)
	e.Schedule(1, rec, 20)
	e.Schedule(1, rec, 30)
	e.Schedule(2, rec, 40)
	e.Run()
	want := []int32{10, 20, 30, 11, 12, 40}
	if fmt.Sprint(order) != fmt.Sprint(want) {
		t.Fatalf("order %v, want %v", order, want)
	}
}

func TestResetReusesSlab(t *testing.T) {
	var e Engine
	count := 0
	h := e.Register(func(int32) { count++ })
	for i := 0; i < 100; i++ {
		e.Schedule(float64(i), h, 0)
	}
	e.Run()
	e.Reset()
	if e.Now() != 0 || e.Pending() != 0 || e.Steps() != 0 {
		t.Fatalf("reset left now=%v pending=%d steps=%d", e.Now(), e.Pending(), e.Steps())
	}
	// Handlers survive reset; the slab is reused.
	e.Schedule(1, h, 0)
	e.Run()
	if count != 101 {
		t.Fatalf("count %d", count)
	}
}

// TestRunAllocationFree asserts the tentpole property: a steady-state Run
// over typed handler events performs zero per-event heap allocations.
func TestRunAllocationFree(t *testing.T) {
	var e Engine
	var h HandlerID
	h = e.Register(func(arg int32) {
		// Alternate same-instant (lane) and future (heap) events.
		if arg > 0 {
			e.Schedule(e.Now()+float64(arg%2), h, arg-1)
		}
	})
	e.Grow(4)
	// Warm up the slab.
	e.Schedule(0, h, 100)
	e.Run()
	allocs := testing.AllocsPerRun(10, func() {
		e.Reset()
		e.Schedule(0, h, 1000)
		e.Run()
	})
	if allocs > 0 {
		t.Fatalf("Run allocated %.1f times per run, want 0", allocs)
	}
}

func TestMaxPendingTracksHeapDepth(t *testing.T) {
	var e Engine
	if e.MaxPending() != 0 {
		t.Fatalf("fresh engine MaxPending = %d, want 0", e.MaxPending())
	}
	nop := e.Register(func(int32) {})
	for i := 1; i <= 5; i++ {
		e.Schedule(float64(i), nop, 0)
	}
	// Draining events must not lower the recorded peak.
	e.Run()
	if got := e.MaxPending(); got != 5 {
		t.Fatalf("MaxPending = %d, want 5", got)
	}
	// Nested scheduling past the prior peak raises it.
	e.Reset()
	if e.MaxPending() != 0 {
		t.Fatalf("Reset did not clear MaxPending: %d", e.MaxPending())
	}
	fan := e.Register(func(int32) {
		for i := 0; i < 7; i++ {
			e.Schedule(2+float64(i), nop, 0)
		}
	})
	e.Schedule(1, fan, 0)
	e.Run()
	if got := e.MaxPending(); got != 7 {
		t.Fatalf("MaxPending after nested scheduling = %d, want 7", got)
	}
}
