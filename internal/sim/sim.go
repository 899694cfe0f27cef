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
func (e *Engine) Pending() int { return len(e.heap) + len(e.lane) - e.head }

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

// push sifts a future event into the heap.
//
//wrht:noalloc
func (e *Engine) push(ev event) {
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
	if e.head < len(e.lane) && (len(e.heap) == 0 || e.heap[0].time > e.now) {
		ev := e.lane[e.head]
		if e.head++; e.head == len(e.lane) {
			e.lane, e.head = e.lane[:0], 0
		}
		return ev
	}
	return e.pop()
}

// pop removes and returns the heap's earliest event.
//
//wrht:noalloc
func (e *Engine) pop() event {
	top := e.heap[0]
	n := len(e.heap) - 1
	last := e.heap[n]
	e.heap = e.heap[:n]
	if n == 0 {
		return top
	}
	// Sift down from the root.
	i := 0
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		// Pick the smallest of up to four children.
		min := first
		end := first + 4
		if end > n {
			end = n
		}
		for c := first + 1; c < end; c++ {
			if e.heap[c].before(e.heap[min]) {
				min = c
			}
		}
		if !e.heap[min].before(last) {
			break
		}
		e.heap[i] = e.heap[min]
		i = min
	}
	e.heap[i] = last
	return top
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
	e.heap = e.heap[:0]
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
