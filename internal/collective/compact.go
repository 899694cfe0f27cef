package collective

import (
	"fmt"
	"math"
	"sync"

	"wrht/internal/ring"
	"wrht/internal/tensor"
)

// CompactSchedule is the columnar (struct-of-arrays) form of a Schedule:
// every transfer field lives in one flat backing slice, and steps are
// half-open ranges of transfer indices. It is the builder's internal
// format: Schedule.Compact lowers a boxed schedule into it, and Classes
// fingerprints it into the ClassSchedule that pricing consumes; Expand goes
// back to the boxed form.
//
// A CompactSchedule is immutable after Finish and safe for concurrent
// readers. Release returns its arrays to the builder pool; callers must not
// touch a schedule after releasing it.
type CompactSchedule struct {
	Algorithm string
	N         int
	Elems     int

	// stepOff has len(steps)+1 entries; step s covers transfer indices
	// [stepOff[s], stepOff[s+1]).
	stepOff []int32
	labels  []string

	// Per-transfer columns, indexed by flat transfer index.
	src, dst []int32
	off, ln  []int32
	op       []Op
	routed   []bool
	dir      []ring.Direction
	width    []int32
}

// NumSteps returns the number of synchronous steps.
func (c *CompactSchedule) NumSteps() int { return len(c.labels) }

// StepBounds returns the half-open flat-index range of step s.
func (c *CompactSchedule) StepBounds(s int) (lo, hi int) {
	return int(c.stepOff[s]), int(c.stepOff[s+1])
}

// StepLabel returns step s's label.
func (c *CompactSchedule) StepLabel(s int) string { return c.labels[s] }

// Transfer materializes the transfer at flat index i.
func (c *CompactSchedule) Transfer(i int) Transfer {
	return Transfer{
		Src:    int(c.src[i]),
		Dst:    int(c.dst[i]),
		Region: tensor.Region{Offset: int(c.off[i]), Len: int(c.ln[i])},
		Op:     c.op[i],
		Routed: c.routed[i],
		Dir:    c.dir[i],
		Width:  int(c.width[i]),
	}
}

// Expand converts back to the boxed representation.
func (c *CompactSchedule) Expand() *Schedule {
	s := &Schedule{
		Algorithm: c.Algorithm,
		N:         c.N,
		Elems:     c.Elems,
		Steps:     make([]Step, c.NumSteps()),
	}
	for si := range s.Steps {
		lo, hi := c.StepBounds(si)
		st := Step{Label: c.labels[si]}
		if hi > lo {
			st.Transfers = make([]Transfer, hi-lo)
			for i := lo; i < hi; i++ {
				st.Transfers[i-lo] = c.Transfer(i)
			}
		}
		s.Steps[si] = st
	}
	return s
}

// Compact converts the boxed schedule to columnar form (arrays come from the
// shared builder pool; Release when done on transient schedules).
func (s *Schedule) Compact() *CompactSchedule {
	b := NewScheduleBuilder(s.Algorithm, s.N, s.Elems)
	b.Grow(len(s.Steps), s.TotalTransfers())
	for _, st := range s.Steps {
		b.StartStep(st.Label)
		for _, tr := range st.Transfers {
			b.Add(tr)
		}
	}
	return b.Finish()
}

// csPool recycles CompactSchedule backing arrays between builds.
var csPool = sync.Pool{New: func() any { return new(CompactSchedule) }}

// ScheduleBuilder assembles a CompactSchedule step by step. The zero value
// is invalid; use NewScheduleBuilder, which seeds the columns from a
// sync.Pool so steady-state builds reuse earlier schedules' capacity.
type ScheduleBuilder struct {
	cs *CompactSchedule
}

// NewScheduleBuilder starts a schedule for n nodes over elems elements.
func NewScheduleBuilder(algorithm string, n, elems int) ScheduleBuilder {
	cs := csPool.Get().(*CompactSchedule)
	cs.Algorithm, cs.N, cs.Elems = algorithm, n, elems
	cs.stepOff = append(cs.stepOff[:0], 0)
	// Drop label strings so the pool does not pin them.
	for i := range cs.labels {
		cs.labels[i] = ""
	}
	cs.labels = cs.labels[:0]
	cs.src = cs.src[:0]
	cs.dst = cs.dst[:0]
	cs.off = cs.off[:0]
	cs.ln = cs.ln[:0]
	cs.op = cs.op[:0]
	cs.routed = cs.routed[:0]
	cs.dir = cs.dir[:0]
	cs.width = cs.width[:0]
	return ScheduleBuilder{cs: cs}
}

// Grow pre-sizes the columns for the expected step and transfer counts.
func (b ScheduleBuilder) Grow(steps, transfers int) {
	cs := b.cs
	if cap(cs.stepOff) < steps+1 {
		grown := make([]int32, len(cs.stepOff), steps+1)
		copy(grown, cs.stepOff)
		cs.stepOff = grown
	}
	if cap(cs.labels) < steps {
		cs.labels = make([]string, 0, steps)
	}
	if cap(cs.src) < transfers {
		cs.src = make([]int32, 0, transfers)
		cs.dst = make([]int32, 0, transfers)
		cs.off = make([]int32, 0, transfers)
		cs.ln = make([]int32, 0, transfers)
		cs.op = make([]Op, 0, transfers)
		cs.routed = make([]bool, 0, transfers)
		cs.dir = make([]ring.Direction, 0, transfers)
		cs.width = make([]int32, 0, transfers)
	}
}

// StartStep opens a new synchronous step.
func (b ScheduleBuilder) StartStep(label string) {
	cs := b.cs
	cs.labels = append(cs.labels, label)
	cs.stepOff = append(cs.stepOff, cs.stepOff[len(cs.stepOff)-1])
}

// Add appends a transfer to the currently open step. The columnar form
// stores region coordinates as int32; schedules beyond 2^31-1 elements are
// outside the representable range and panic rather than truncate.
func (b ScheduleBuilder) Add(tr Transfer) {
	cs := b.cs
	if len(cs.labels) == 0 {
		panic("collective: ScheduleBuilder.Add before StartStep")
	}
	if tr.Region.Offset > math.MaxInt32 || tr.Region.Len > math.MaxInt32 {
		panic(fmt.Sprintf("collective: region %v exceeds the compact int32 range", tr.Region))
	}
	cs.src = append(cs.src, int32(tr.Src))
	cs.dst = append(cs.dst, int32(tr.Dst))
	cs.off = append(cs.off, int32(tr.Region.Offset))
	cs.ln = append(cs.ln, int32(tr.Region.Len))
	cs.op = append(cs.op, tr.Op)
	cs.routed = append(cs.routed, tr.Routed)
	cs.dir = append(cs.dir, tr.Dir)
	cs.width = append(cs.width, int32(tr.Width))
	cs.stepOff[len(cs.stepOff)-1]++
}

// Finish seals and returns the schedule; the builder must not be used again.
func (b ScheduleBuilder) Finish() *CompactSchedule {
	return b.cs
}

// Release returns the schedule's arrays to the builder pool. Only release
// schedules that no other goroutine or cache still references.
func (c *CompactSchedule) Release() {
	csPool.Put(c)
}
