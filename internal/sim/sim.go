// Package sim is a small deterministic discrete-event engine: events execute
// in (time, sequence) order, so ties break by scheduling order and every run
// of the same program is identical. It underpins the message-level optical
// simulator (internal/opticalsim) and the multi-tenant fabric co-simulator
// (internal/fabric).
//
// The engine is allocation-light by construction. Callbacks dispatch through
// integer handler ids registered once per program (Register/Schedule): arg
// carries whatever index the caller needs into its own state, so scheduling
// never boxes a closure. Future events live in a typed 4-ary min-heap backed
// by one flat slab; events due at the current instant skip the heap and
// queue in a FIFO lane, which the clock drains before it advances. A
// steady-state Run executes zero per-event heap allocations.
//
// Popping the heap's root leaves a hole there instead of sifting the last
// event down at once. A handler usually schedules a future event before
// the next pop; that push fills the hole with one sift-down (a fused
// replace-top) where a pop then a push would sift twice. A hole still open
// at the next pop is closed the ordinary way first. Execution order is a
// total order on (time, seq), so the heap's shape never shows.
package sim

import (
	"fmt"
	"math"
)

// Handler is an integer-dispatch callback: arg is whatever small integer the
// scheduler packed at Schedule time (typically an index into caller state).
type Handler func(arg int32)

// HandlerID names a registered Handler.
type HandlerID int32

// event is one pending event. Ordering is (time, seq): seq is assigned in
// scheduling order, so ties execute in the order they were scheduled.
type event struct {
	time float64
	seq  int64
	h    HandlerID
	arg  int32
}

// before reports heap ordering: earlier time first, scheduling order on ties.
func (a event) before(b event) bool {
	if a.time != b.time {
		return a.time < b.time
	}
	return a.seq < b.seq
}

// Engine is a discrete-event executor. The zero value is ready to use.
type Engine struct {
	now        float64
	seq        int64
	nsteps     int64
	maxPending int
	// heap is a 4-ary min-heap of future events ordered by (time, seq). A
	// 4-ary layout halves the tree depth of a binary heap, trading slightly
	// more comparisons per level for far fewer cache-missing swaps.
	heap []event
	// hole is 1 while heap[0] is the stale slot of a popped root (see the
	// package comment), else 0: the heap holds len(heap)-hole events.
	hole int
	// lane[head:] are the pending events scheduled at the current instant,
	// in scheduling order. They never enter the heap: every lane event is
	// due now, and the clock only advances once the lane drains. Heap
	// events due now were scheduled before the clock reached now, so their
	// sequence numbers are smaller and they run first.
	lane []event
	head int
	// handlers are the integer-dispatch callbacks (Register).
	handlers []Handler
}

// Now returns the current simulation time.
func (e *Engine) Now() float64 { return e.now }

// Pending returns the number of queued events.
func (e *Engine) Pending() int { return len(e.heap) - e.hole + len(e.lane) - e.head }

// Steps returns the number of events executed so far.
func (e *Engine) Steps() int64 { return e.nsteps }

// MaxPending returns the high-water mark of the event queue — the most
// events pending at once.
func (e *Engine) MaxPending() int { return e.maxPending }

// Register installs fn as an integer-dispatch callback and returns its id.
// Register once per callback kind (not per event); Schedule then enqueues
// events against the id with zero per-event allocation.
func (e *Engine) Register(fn Handler) HandlerID {
	if fn == nil {
		panic("sim: registering nil handler")
	}
	e.handlers = append(e.handlers, fn)
	return HandlerID(len(e.handlers) - 1)
}

// Schedule enqueues handler h with arg at absolute time t; t must not precede
// the current time.
//
//wrht:noalloc
func (e *Engine) Schedule(t float64, h HandlerID, arg int32) {
	if h < 0 || int(h) >= len(e.handlers) {
		panic(fmt.Sprintf("sim: scheduling unregistered handler %d", h))
	}
	if math.IsNaN(t) || t < e.now {
		panic(fmt.Sprintf("sim: scheduling at %v before now %v", t, e.now))
	}
	e.seq++
	ev := event{time: t, seq: e.seq, h: h, arg: arg}
	if t == e.now {
		e.lane = append(e.lane, ev)
	} else {
		e.push(ev)
	}
	if p := e.Pending(); p > e.maxPending {
		e.maxPending = p
	}
}

// push sifts a future event into the heap. An open hole at the root takes
// the event with one sift-down.
//
//wrht:noalloc
func (e *Engine) push(ev event) {
	if e.hole != 0 {
		e.hole = 0
		e.siftDown(ev)
		return
	}
	e.heap = append(e.heap, ev)
	i := len(e.heap) - 1
	for i > 0 {
		parent := (i - 1) / 4
		if !ev.before(e.heap[parent]) {
			break
		}
		e.heap[i] = e.heap[parent]
		i = parent
	}
	e.heap[i] = ev
}

// next removes and returns the earliest pending event: heap events due now
// first (they were scheduled earlier), then the lane, then the heap.
//
//wrht:noalloc
func (e *Engine) next() event {
	if e.head < len(e.lane) && e.minTime() > e.now {
		ev := e.lane[e.head]
		if e.head++; e.head == len(e.lane) {
			e.lane, e.head = e.lane[:0], 0
		}
		return ev
	}
	if e.hole != 0 {
		e.closeHole()
	}
	return e.pop()
}

// minTime is the earliest future event's time (+Inf with none). With a
// hole open it is the earliest of the root's children, so lane events run
// without closing the hole: the future event they schedule fills it.
//
//wrht:noalloc
func (e *Engine) minTime() float64 {
	h := e.heap
	if e.hole == 0 {
		if len(h) == 0 {
			return math.Inf(1)
		}
		return h[0].time
	}
	if len(h) >= 5 {
		return min(h[1].time, h[2].time, h[3].time, h[4].time)
	}
	t := math.Inf(1)
	for c := 1; c < len(h); c++ {
		t = min(t, h[c].time)
	}
	return t
}

// pop returns the heap's earliest event and leaves a hole in its place;
// the hole must be closed before the heap is read again.
//
//wrht:noalloc
func (e *Engine) pop() event {
	e.hole = 1
	return e.heap[0]
}

// closeHole removes the hole at the root: the last event takes its place
// and sifts down.
//
//wrht:noalloc
func (e *Engine) closeHole() {
	e.hole = 0
	n := len(e.heap) - 1
	last := e.heap[n]
	e.heap = e.heap[:n]
	if n > 0 {
		e.siftDown(last)
	}
}

// siftDown places ev at the root of a non-empty heap whose root slot is
// free and sifts it down to its place.
//
//wrht:noalloc
func (e *Engine) siftDown(ev event) {
	h := e.heap
	n := len(h)
	i := 0
	for {
		first := 4*i + 1
		var m int
		if first+4 <= n {
			// A full set of children: a two-round tournament.
			c := h[first : first+4 : first+4]
			a, b := 0, 2
			if c[1].before(c[0]) {
				a = 1
			}
			if c[3].before(c[2]) {
				b = 3
			}
			if c[b].before(c[a]) {
				a = b
			}
			m = first + a
		} else if first < n {
			m = first
			for c := first + 1; c < n; c++ {
				if h[c].before(h[m]) {
					m = c
				}
			}
		} else {
			break
		}
		if !h[m].before(ev) {
			break
		}
		h[i] = h[m]
		i = m
	}
	h[i] = ev
}

// Grow preallocates heap capacity for n additional pending future events,
// so bulk scheduling does not re-grow the slab.
func (e *Engine) Grow(n int) {
	if free := cap(e.heap) - len(e.heap); free < n {
		grown := make([]event, len(e.heap), len(e.heap)+n)
		copy(grown, e.heap)
		e.heap = grown
	}
}

// drop discards every pending event, keeping both slabs for reuse.
func (e *Engine) drop() {
	e.heap, e.hole = e.heap[:0], 0
	e.lane, e.head = e.lane[:0], 0
}

// Run executes events until the queue drains, returning the final time.
//
//wrht:noalloc
func (e *Engine) Run() float64 {
	for e.Pending() > 0 {
		e.step()
	}
	return e.now
}

// RunChecked is Run with a cancellation hook: check is invoked every
// `every` executed events (<= 0 selects a default of 1024), and a non-nil
// return abandons the simulation — the pending queue is dropped and the
// check's error is returned with the clock frozen at the abandonment
// instant. A nil check degrades to plain Run. This is the seam that lets a
// serving deadline kill an in-flight fabric or fleet co-simulation at an
// event boundary instead of burning a worker to completion.
//
//wrht:noalloc
func (e *Engine) RunChecked(every int64, check func() error) (float64, error) {
	if check == nil {
		return e.Run(), nil
	}
	if every <= 0 {
		every = 1024
	}
	n := int64(0)
	for e.Pending() > 0 {
		e.step()
		if n++; n%every == 0 {
			if err := check(); err != nil {
				e.drop()
				return e.now, err
			}
		}
	}
	return e.now, nil
}

//wrht:noalloc
func (e *Engine) step() {
	ev := e.next()
	e.now = ev.time
	e.nsteps++
	e.handlers[ev.h](ev.arg)
}
