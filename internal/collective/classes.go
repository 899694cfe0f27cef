package collective

import (
	"fmt"
	"sort"
	"sync"

	"wrht/internal/ring"
	"wrht/internal/tensor"
)

// ClassSchedule is the symmetry-aware pricing fingerprint of a schedule.
//
// Where CompactSchedule stores every point-to-point transfer, ClassSchedule
// stores, per step, (a) the transfer equivalence classes by (region length,
// hop count, stripe width) — the only coordinates substrate pricing depends
// on, since a step's cost is its slowest transfer plus fixed overheads — and
// (b) a rotational-symmetry certificate for the step's demand pattern: the
// step is a representative orbit of transfers replicated `blocks` times at
// node stride `period`, block-major, with the orbit's directed links confined
// to one period-wide window (so replicas are pairwise link-disjoint). Two
// extra flags refine the certificate: `disjoint` (all transfers in the step
// are pairwise link-disjoint, so wavelength assignment is trivial for any
// subset) and `permutation` (every node sends at most one and receives at
// most one transfer, the condition under which a non-blocking electrical
// cluster gives every flow its full link rate).
//
// Steps whose pattern is not provably symmetric are stored materialized
// (the verified fallback): their full transfer list is kept and priced by
// the exact per-transfer path. Symmetric steps can also be materialized on
// demand (ForEachTransfer) — region data is kept in one of three exact
// forms (uniform, rotated chunk ring, or explicit per-transfer) — so a
// classed runner can always fall back per step without losing bit-equality.
//
// The representation is what turns O(N²) schedule pricing into ~O(N): a
// ring all-reduce stores 2(N-1) steps of one orbit transfer and ≤3 classes
// each, instead of 2N(N-1) transfers.
type ClassSchedule struct {
	Algorithm string
	N         int
	Elems     int

	steps []classStep

	// Class columns; step s owns [steps[s].clsLo, steps[s].clsHi).
	clsCount, clsLen, clsHops, clsWidth []int32

	// Orbit columns (symmetric steps); step s owns [orbLo, orbHi).
	orbSrc, orbDst, orbWidth []int32
	orbDir                   []ring.Direction
	orbRouted                []bool
	orbOp                    []Op

	// lens/offs hold explicit per-transfer regions (block-major global
	// order) for lenExplicit steps; step s owns [lenLo, lenLo+transfers).
	lens, offs []int32

	// lenRing/offRing are the shared chunk regions lenRotated steps index
	// with a per-step rotation (the ring all-reduce generator's form).
	lenRing, offRing []int32

	// Fallback transfer columns (materialized steps); step s owns [fbLo, fbHi).
	fbSrc, fbDst, fbLen, fbOff, fbWidth []int32
	fbDir                               []ring.Direction
	fbRouted                            []bool
	fbOp                                []Op

	// certSteps counts steps whose symmetry certificate verified;
	// demotedSteps counts claimed-symmetric steps that failed verification
	// and were materialized (the observability layer surfaces both).
	certSteps, demotedSteps int32
}

// TransferClass is one pricing equivalence class: Count transfers moving Len
// elements over Hops ring links at stripe-width hint Width (0 = substrate
// default). Every coordinate substrate pricing reads is here; Op and
// direction are pricing-neutral and live only in the orbit/fallback columns.
type TransferClass struct {
	Count, Len, Hops, Width int32
}

type lenMode int8

const (
	lenUniform lenMode = iota
	lenRotated
	lenExplicit
)

type classStep struct {
	label string

	sym      bool
	period   int32
	blocks   int32
	disjoint bool
	perm     bool

	clsLo, clsHi int32
	orbLo, orbHi int32
	fbLo, fbHi   int32

	mode lenMode
	// lenParam is the uniform region length (lenUniform), the rotation
	// offset into lenRing (lenRotated), or unused (lenExplicit).
	lenParam int32
	// offParam is the uniform region offset (lenUniform only).
	offParam int32
	lenLo    int32
}

// NumSteps returns the number of synchronous steps.
func (c *ClassSchedule) NumSteps() int { return len(c.steps) }

// Nodes returns the node count (energy accounting accepts any schedule form
// through this method set).
func (c *ClassSchedule) Nodes() int { return c.N }

// StepLabel returns step s's label.
func (c *ClassSchedule) StepLabel(s int) string { return c.steps[s].label }

// StepTransfers returns the number of transfers in step s.
func (c *ClassSchedule) StepTransfers(s int) int {
	st := &c.steps[s]
	if st.sym {
		return int(st.orbHi-st.orbLo) * int(st.blocks)
	}
	return int(st.fbHi - st.fbLo)
}

// CertStats reports how the builder classified this schedule's steps:
// certified is the number of steps whose symmetry certificate verified
// (priced through the O(N)-free classed path), materialized is the number of
// steps priced transfer-by-transfer, and demoted counts the subset of
// materialized steps that *claimed* a certificate but failed verification —
// the silent fallbacks the flight recorder exists to surface.
func (c *ClassSchedule) CertStats() (certified, materialized, demoted int) {
	return int(c.certSteps), len(c.steps) - int(c.certSteps), int(c.demotedSteps)
}

// NumClasses returns the total number of pricing equivalence classes across
// all certified steps.
func (c *ClassSchedule) NumClasses() int { return len(c.clsCount) }

// TotalTransfers returns the number of point-to-point transfers.
func (c *ClassSchedule) TotalTransfers() int {
	n := 0
	for s := range c.steps {
		n += c.StepTransfers(s)
	}
	return n
}

// TotalTrafficElems returns the total number of elements moved.
func (c *ClassSchedule) TotalTrafficElems() int64 {
	var n int64
	for s := range c.steps {
		st := &c.steps[s]
		if st.sym {
			for i := st.clsLo; i < st.clsHi; i++ {
				n += int64(c.clsCount[i]) * int64(c.clsLen[i])
			}
		} else {
			for i := st.fbLo; i < st.fbHi; i++ {
				n += int64(c.fbLen[i])
			}
		}
	}
	return n
}

// Sym reports step s's symmetry certificate: ok is false for materialized
// (fallback) steps. disjoint means every transfer pair in the step is
// link-disjoint; perm means the step is a partial permutation (each node
// sends ≤1 and receives ≤1 transfer).
func (c *ClassSchedule) Sym(s int) (period, blocks int, disjoint, perm, ok bool) {
	st := &c.steps[s]
	return int(st.period), int(st.blocks), st.disjoint, st.perm, st.sym
}

// ClassBounds returns the half-open class-column range of step s
// (empty for fallback steps — they price per transfer).
func (c *ClassSchedule) ClassBounds(s int) (lo, hi int) {
	return int(c.steps[s].clsLo), int(c.steps[s].clsHi)
}

// Class returns the class at column index i.
func (c *ClassSchedule) Class(i int) TransferClass {
	return TransferClass{Count: c.clsCount[i], Len: c.clsLen[i], Hops: c.clsHops[i], Width: c.clsWidth[i]}
}

// OrbitBounds returns the half-open orbit-column range of symmetric step s.
func (c *ClassSchedule) OrbitBounds(s int) (lo, hi int) {
	return int(c.steps[s].orbLo), int(c.steps[s].orbHi)
}

// OrbitAt returns the orbit transfer pattern at column index i (block 0's
// endpoints; block b adds b·period to both, mod N). The region is not part
// of the pattern — lengths vary per block and live in the classes — so it
// is left zero.
func (c *ClassSchedule) OrbitAt(i int) Transfer {
	return Transfer{Src: int(c.orbSrc[i]), Dst: int(c.orbDst[i]), Op: c.orbOp[i],
		Routed: c.orbRouted[i], Dir: c.orbDir[i], Width: int(c.orbWidth[i])}
}

// region returns transfer j (step-local, block-major) of symmetric step st.
func (c *ClassSchedule) region(st *classStep, j int) tensor.Region {
	switch st.mode {
	case lenUniform:
		return tensor.Region{Offset: int(st.offParam), Len: int(st.lenParam)}
	case lenRotated:
		k := (j + int(st.lenParam)) % len(c.lenRing)
		return tensor.Region{Offset: int(c.offRing[k]), Len: int(c.lenRing[k])}
	default:
		return tensor.Region{Offset: int(c.offs[int(st.lenLo)+j]), Len: int(c.lens[int(st.lenLo)+j])}
	}
}

// ForEachTransfer materializes step s's transfers in the exact order the
// compact form stores them (block-major for symmetric steps), calling fn for
// each. This is the per-step fallback path of the classed runners and the
// bridge the equality tests walk.
func (c *ClassSchedule) ForEachTransfer(s int, fn func(Transfer)) {
	st := &c.steps[s]
	if !st.sym {
		for i := st.fbLo; i < st.fbHi; i++ {
			fn(Transfer{
				Src: int(c.fbSrc[i]), Dst: int(c.fbDst[i]),
				Region: tensor.Region{Offset: int(c.fbOff[i]), Len: int(c.fbLen[i])},
				Op:     c.fbOp[i],
				Routed: c.fbRouted[i], Dir: c.fbDir[i],
				Width: int(c.fbWidth[i]),
			})
		}
		return
	}
	o := int(st.orbHi - st.orbLo)
	j := 0
	for b := 0; b < int(st.blocks); b++ {
		shift := b * int(st.period)
		for k := 0; k < o; k++ {
			tr := c.OrbitAt(int(st.orbLo) + k)
			tr.Src, tr.Dst = (tr.Src+shift)%c.N, (tr.Dst+shift)%c.N
			tr.Region = c.region(st, j)
			fn(tr)
			j++
		}
	}
}

// Expand materializes the full boxed schedule (tests and inspection).
func (c *ClassSchedule) Expand() *Schedule {
	s := &Schedule{Algorithm: c.Algorithm, N: c.N, Elems: c.Elems, Steps: make([]Step, c.NumSteps())}
	for si := range s.Steps {
		st := Step{Label: c.steps[si].label}
		if n := c.StepTransfers(si); n > 0 {
			st.Transfers = make([]Transfer, 0, n)
			c.ForEachTransfer(si, func(tr Transfer) { st.Transfers = append(st.Transfers, tr) })
		}
		s.Steps[si] = st
	}
	return s
}

// Validate checks the structural invariants pricing relies on: node indices
// in range, no self-transfers, non-negative regions and widths, sane
// certificates. (Overlapping-write validation needs the full per-transfer
// form and lives on Schedule/CompactSchedule.)
func (c *ClassSchedule) Validate() error {
	if c.N < 1 {
		return fmt.Errorf("collective: class schedule has N=%d", c.N)
	}
	if c.Elems < 0 {
		return fmt.Errorf("collective: class schedule has Elems=%d", c.Elems)
	}
	for si := range c.steps {
		st := &c.steps[si]
		if st.sym {
			if st.period < 1 || st.blocks < 2 || int(st.period)*int(st.blocks) > c.N {
				return fmt.Errorf("collective: step %d certificate period=%d blocks=%d outside N=%d",
					si, st.period, st.blocks, c.N)
			}
			for i := st.orbLo; i < st.orbHi; i++ {
				if c.orbSrc[i] < 0 || int(c.orbSrc[i]) >= c.N || c.orbDst[i] < 0 || int(c.orbDst[i]) >= c.N {
					return fmt.Errorf("collective: step %d orbit transfer node out of range [0,%d)", si, c.N)
				}
				if c.orbSrc[i] == c.orbDst[i] {
					return fmt.Errorf("collective: step %d orbit self-transfer", si)
				}
				if c.orbWidth[i] < 0 {
					return fmt.Errorf("collective: step %d orbit negative width", si)
				}
			}
			for i := st.clsLo; i < st.clsHi; i++ {
				if c.clsLen[i] < 0 || c.clsCount[i] < 1 {
					return fmt.Errorf("collective: step %d class (len=%d count=%d)", si, c.clsLen[i], c.clsCount[i])
				}
			}
			continue
		}
		for i := st.fbLo; i < st.fbHi; i++ {
			if c.fbSrc[i] < 0 || int(c.fbSrc[i]) >= c.N || c.fbDst[i] < 0 || int(c.fbDst[i]) >= c.N {
				return fmt.Errorf("collective: step %d transfer node out of range [0,%d)", si, c.N)
			}
			if c.fbSrc[i] == c.fbDst[i] {
				return fmt.Errorf("collective: step %d self-transfer", si)
			}
			if c.fbLen[i] < 0 || c.fbWidth[i] < 0 {
				return fmt.Errorf("collective: step %d negative region or width", si)
			}
		}
	}
	return nil
}

// classPool recycles ClassSchedule backing arrays between builds.
var classPool = sync.Pool{New: func() any { return new(ClassSchedule) }}

// Release returns the schedule's arrays to the builder pool. Only release
// schedules no other goroutine or cache still references.
func (c *ClassSchedule) Release() {
	classPool.Put(c)
}

// ClassScheduleBuilder assembles a ClassSchedule step by step. Symmetric
// steps are verified as they close: a step whose claimed orbit fails the
// link-window check is silently materialized instead (the verified
// fallback), so a finished schedule's certificates always hold.
type ClassScheduleBuilder struct {
	cs *ClassSchedule

	open    bool
	sym     bool
	demoted bool

	// ringClasses are the precomputed (len → count) classes of the shared
	// chunk ring, reused by every lenRotated step.
	ringClasses []TransferClass

	// scratch
	ivCW, ivCCW []interval
	pts         []int32
	clsScratch  map[classKey]int32
	clsOrder    []classKey
}

type interval struct{ start, h int32 }

type classKey struct{ ln, hops, width int32 }

// NewClassScheduleBuilder starts a schedule for n nodes over elems elements.
func NewClassScheduleBuilder(algorithm string, n, elems int) *ClassScheduleBuilder {
	cs := classPool.Get().(*ClassSchedule)
	cs.Algorithm, cs.N, cs.Elems = algorithm, n, elems
	for i := range cs.steps {
		cs.steps[i] = classStep{}
	}
	cs.steps = cs.steps[:0]
	cs.clsCount, cs.clsLen, cs.clsHops, cs.clsWidth = cs.clsCount[:0], cs.clsLen[:0], cs.clsHops[:0], cs.clsWidth[:0]
	cs.orbSrc, cs.orbDst, cs.orbWidth = cs.orbSrc[:0], cs.orbDst[:0], cs.orbWidth[:0]
	cs.orbDir, cs.orbRouted, cs.orbOp = cs.orbDir[:0], cs.orbRouted[:0], cs.orbOp[:0]
	cs.lens, cs.offs = cs.lens[:0], cs.offs[:0]
	cs.lenRing, cs.offRing = cs.lenRing[:0], cs.offRing[:0]
	cs.fbSrc, cs.fbDst, cs.fbLen, cs.fbOff, cs.fbWidth = cs.fbSrc[:0], cs.fbDst[:0], cs.fbLen[:0], cs.fbOff[:0], cs.fbWidth[:0]
	cs.fbDir, cs.fbRouted, cs.fbOp = cs.fbDir[:0], cs.fbRouted[:0], cs.fbOp[:0]
	cs.certSteps, cs.demotedSteps = 0, 0
	return &ClassScheduleBuilder{cs: cs, clsScratch: map[classKey]int32{}}
}

// SetLenRing installs the shared chunk regions lenRotated steps rotate over
// and precomputes their class multiset (identical for every rotation).
func (b *ClassScheduleBuilder) SetLenRing(chunks []tensor.Region) {
	cs := b.cs
	for _, r := range chunks {
		cs.lenRing = append(cs.lenRing, int32(r.Len))
		cs.offRing = append(cs.offRing, int32(r.Offset))
	}
	counts := map[int32]int32{}
	for _, l := range cs.lenRing {
		counts[l]++
	}
	lens := make([]int32, 0, len(counts))
	for l := range counts {
		lens = append(lens, l)
	}
	sort.Slice(lens, func(i, j int) bool { return lens[i] < lens[j] })
	b.ringClasses = b.ringClasses[:0]
	for _, l := range lens {
		b.ringClasses = append(b.ringClasses, TransferClass{Count: counts[l], Len: l})
	}
}

// StartStep opens a materialized (fallback) step.
func (b *ClassScheduleBuilder) StartStep(label string) {
	b.closeStep()
	b.openStep(label, classStep{})
}

// Add appends a transfer to the open materialized step.
func (b *ClassScheduleBuilder) Add(tr Transfer) {
	cs := b.cs
	st := &cs.steps[len(cs.steps)-1]
	if !b.open || st.sym {
		panic("collective: ClassScheduleBuilder.Add outside a materialized step")
	}
	cs.fbSrc = append(cs.fbSrc, int32(tr.Src))
	cs.fbDst = append(cs.fbDst, int32(tr.Dst))
	cs.fbLen = append(cs.fbLen, int32(tr.Region.Len))
	cs.fbOff = append(cs.fbOff, int32(tr.Region.Offset))
	cs.fbWidth = append(cs.fbWidth, int32(tr.Width))
	cs.fbDir = append(cs.fbDir, tr.Dir)
	cs.fbRouted = append(cs.fbRouted, tr.Routed)
	cs.fbOp = append(cs.fbOp, tr.Op)
	st.fbHi++
}

// StartSymUniform opens a symmetric step whose transfers all move the same
// region (the Wrht tree-level shape).
func (b *ClassScheduleBuilder) StartSymUniform(label string, period, blocks int, region tensor.Region) {
	b.closeStep()
	b.openStep(label, classStep{
		sym: true, period: int32(period), blocks: int32(blocks),
		mode: lenUniform, lenParam: int32(region.Len), offParam: int32(region.Offset),
	})
}

// StartSymRotated opens a symmetric single-transfer-orbit step whose
// transfer j moves the shared chunk ring's region (j+rot) mod len(ring)
// (the ring all-reduce shape). SetLenRing must have been called first —
// without it the step has no region data to price or materialize from.
func (b *ClassScheduleBuilder) StartSymRotated(label string, period, blocks, rot int) {
	if len(b.cs.lenRing) == 0 {
		panic("collective: ClassScheduleBuilder.StartSymRotated before SetLenRing")
	}
	b.closeStep()
	b.openStep(label, classStep{
		sym: true, period: int32(period), blocks: int32(blocks),
		mode: lenRotated, lenParam: int32(rot),
	})
}

// StartSymExplicit opens a symmetric step with explicit per-transfer regions:
// AddOrbit supplies block 0 (pattern and regions), AddRegion the remaining
// blocks' regions in block-major order.
func (b *ClassScheduleBuilder) StartSymExplicit(label string, period, blocks int) {
	b.closeStep()
	b.openStep(label, classStep{
		sym: true, period: int32(period), blocks: int32(blocks),
		mode: lenExplicit, lenLo: int32(len(b.cs.lens)),
	})
}

// AddOrbit appends one orbit (block 0) transfer to the open symmetric step.
func (b *ClassScheduleBuilder) AddOrbit(tr Transfer) {
	cs := b.cs
	st := &cs.steps[len(cs.steps)-1]
	if !b.open || !st.sym {
		panic("collective: ClassScheduleBuilder.AddOrbit outside a symmetric step")
	}
	cs.orbSrc = append(cs.orbSrc, int32(tr.Src))
	cs.orbDst = append(cs.orbDst, int32(tr.Dst))
	cs.orbWidth = append(cs.orbWidth, int32(tr.Width))
	cs.orbDir = append(cs.orbDir, tr.Dir)
	cs.orbRouted = append(cs.orbRouted, tr.Routed)
	cs.orbOp = append(cs.orbOp, tr.Op)
	st.orbHi++
	if st.mode == lenExplicit {
		cs.lens = append(cs.lens, int32(tr.Region.Len))
		cs.offs = append(cs.offs, int32(tr.Region.Offset))
	}
}

// AddRegion appends one replica region to the open explicit symmetric step.
func (b *ClassScheduleBuilder) AddRegion(r tensor.Region) {
	cs := b.cs
	st := &cs.steps[len(cs.steps)-1]
	if !b.open || !st.sym || st.mode != lenExplicit {
		panic("collective: ClassScheduleBuilder.AddRegion outside an explicit symmetric step")
	}
	cs.lens = append(cs.lens, int32(r.Len))
	cs.offs = append(cs.offs, int32(r.Offset))
}

// Finish seals and returns the schedule; the builder must not be used again.
func (b *ClassScheduleBuilder) Finish() *ClassSchedule {
	b.closeStep()
	return b.cs
}

func (b *ClassScheduleBuilder) openStep(label string, st classStep) {
	cs := b.cs
	st.label = label
	st.clsLo, st.clsHi = int32(len(cs.clsCount)), int32(len(cs.clsCount))
	st.orbLo, st.orbHi = int32(len(cs.orbSrc)), int32(len(cs.orbSrc))
	st.fbLo, st.fbHi = int32(len(cs.fbSrc)), int32(len(cs.fbSrc))
	if st.mode == lenExplicit {
		st.lenLo = int32(len(cs.lens))
	}
	cs.steps = append(cs.steps, st)
	b.open, b.sym = true, st.sym
}

// effArc resolves a transfer pattern's effective direction and hop count,
// mirroring the runner: routed transfers travel their pinned direction,
// unrouted ones the shortest (CW on ties).
func effArc(n, src, dst int, dir ring.Direction, routed bool) (ring.Direction, int) {
	cw := ((dst-src)%n + n) % n
	ccw := n - cw
	if routed {
		if dir == ring.CW {
			return ring.CW, cw
		}
		return ring.CCW, ccw
	}
	if cw <= ccw {
		return ring.CW, cw
	}
	return ring.CCW, ccw
}

// closeStep verifies an open symmetric step's certificate and computes its
// classes; a failed certificate demotes the step to materialized form.
func (b *ClassScheduleBuilder) closeStep() {
	if !b.open {
		return
	}
	b.open = false
	cs := b.cs
	st := &cs.steps[len(cs.steps)-1]
	if !st.sym {
		return
	}
	o := int(st.orbHi - st.orbLo)
	if o == 0 {
		// An empty symmetric step is just an empty step.
		st.sym = false
		return
	}
	if !b.verifySym(st, o) {
		b.demote(st, o)
		cs.demotedSteps++
		return
	}
	b.buildClasses(st, o)
	cs.certSteps++
}

// verifySym checks the certificate's structural conditions and sets the
// disjoint/perm flags. It returns false when the orbit's replicas cannot be
// proven link-disjoint across blocks.
func (b *ClassScheduleBuilder) verifySym(st *classStep, o int) bool {
	cs := b.cs
	n, p, blocks := cs.N, int(st.period), int(st.blocks)
	if p < 1 || blocks < 2 || p*blocks > n {
		return false
	}
	if st.mode == lenRotated && (o != 1 || len(cs.lenRing) != o*blocks) {
		return false
	}
	if st.mode == lenExplicit && int(st.lenLo)+o*blocks != len(cs.lens) {
		return false
	}
	b.ivCW, b.ivCCW = b.ivCW[:0], b.ivCCW[:0]
	for i := int(st.orbLo); i < int(st.orbHi); i++ {
		src, dst := int(cs.orbSrc[i]), int(cs.orbDst[i])
		if src < 0 || src >= n || dst < 0 || dst >= n || src == dst {
			return false
		}
		dir, h := effArc(n, src, dst, cs.orbDir[i], cs.orbRouted[i])
		// CW arcs cover CW link positions [src, src+h); CCW arcs cover CCW
		// link positions [dst+1, dst+1+h).
		if dir == ring.CW {
			b.ivCW = append(b.ivCW, interval{int32(src), int32(h)})
		} else {
			b.ivCCW = append(b.ivCCW, interval{int32((dst + 1) % n), int32(h)})
		}
	}
	okCW, djCW := windowCheck(b.ivCW, p, n)
	okCCW, djCCW := windowCheck(b.ivCCW, p, n)
	if !okCW || !okCCW {
		return false
	}
	st.disjoint = djCW && djCCW

	// Permutation: sources (and destinations) each fit a period window and
	// are pairwise distinct, so their block replicas never repeat a node.
	perm := true
	for _, col := range [2][]int32{cs.orbSrc[st.orbLo:st.orbHi], cs.orbDst[st.orbLo:st.orbHi]} {
		iv := b.ivCW[:0]
		for _, v := range col {
			iv = append(iv, interval{v, 1})
		}
		fit, dj := windowCheck(iv, p, n)
		b.ivCW = iv[:0]
		if !fit || !dj {
			perm = false
			break
		}
	}
	st.perm = perm
	return true
}

// windowCheck reports whether all circular intervals fit inside one window
// of length p (so their period-p replicas are pairwise disjoint) and, if so,
// whether the intervals themselves are pairwise disjoint. Intervals are on
// a circle of n positions; p*blocks <= n with blocks >= 2 implies p <= n/2,
// which makes the left/right-of-reference classification unambiguous.
func windowCheck(iv []interval, p, n int) (fits, disjoint bool) {
	if len(iv) == 0 {
		return true, true
	}
	r := iv[0].start
	lo, hi := 0, 0
	for k := range iv {
		h := int(iv[k].h)
		if h > p {
			return false, false
		}
		d := (int(iv[k].start-r)%n + n) % n
		switch {
		case d+h <= p:
			// right of (or at) the reference
		case d >= n-p:
			d -= n // left of the reference
		default:
			return false, false
		}
		if d < lo {
			lo = d
		}
		if d+h > hi {
			hi = d + h
		}
		iv[k].start = int32(d) // normalized offset for the disjointness sort
	}
	if hi-lo > p {
		return false, false
	}
	sort.Slice(iv, func(a, b int) bool { return iv[a].start < iv[b].start })
	disjoint = true
	for k := 1; k < len(iv); k++ {
		if iv[k].start < iv[k-1].start+iv[k-1].h {
			disjoint = false
			break
		}
	}
	return true, disjoint
}

// demote materializes a symmetric step whose certificate failed, dropping
// its orbit/region data back into the fallback columns.
func (b *ClassScheduleBuilder) demote(st *classStep, o int) {
	cs := b.cs
	j := 0
	for blk := 0; blk < int(st.blocks); blk++ {
		shift := blk * int(st.period)
		for k := 0; k < o; k++ {
			i := int(st.orbLo) + k
			r := cs.region(st, j)
			cs.fbSrc = append(cs.fbSrc, int32(((int(cs.orbSrc[i])+shift)%cs.N+cs.N)%cs.N))
			cs.fbDst = append(cs.fbDst, int32(((int(cs.orbDst[i])+shift)%cs.N+cs.N)%cs.N))
			cs.fbLen = append(cs.fbLen, int32(r.Len))
			cs.fbOff = append(cs.fbOff, int32(r.Offset))
			cs.fbWidth = append(cs.fbWidth, cs.orbWidth[i])
			cs.fbDir = append(cs.fbDir, cs.orbDir[i])
			cs.fbRouted = append(cs.fbRouted, cs.orbRouted[i])
			cs.fbOp = append(cs.fbOp, cs.orbOp[i])
			st.fbHi++
			j++
		}
	}
	// Reclaim the orbit (it is the column tail — only the open step writes).
	cs.orbSrc = cs.orbSrc[:st.orbLo]
	cs.orbDst = cs.orbDst[:st.orbLo]
	cs.orbWidth = cs.orbWidth[:st.orbLo]
	cs.orbDir = cs.orbDir[:st.orbLo]
	cs.orbRouted = cs.orbRouted[:st.orbLo]
	cs.orbOp = cs.orbOp[:st.orbLo]
	st.orbHi = st.orbLo
	if st.mode == lenExplicit {
		cs.lens = cs.lens[:st.lenLo]
		cs.offs = cs.offs[:st.lenLo]
	}
	st.sym, st.disjoint, st.perm = false, false, false
}

// buildClasses computes the step's pricing classes.
func (b *ClassScheduleBuilder) buildClasses(st *classStep, o int) {
	cs := b.cs
	emit := func(k classKey, count int32) {
		if prev, ok := b.clsScratch[k]; ok {
			cs.clsCount[prev] += count
			return
		}
		b.clsScratch[k] = int32(len(cs.clsCount))
		b.clsOrder = append(b.clsOrder, k)
		cs.clsCount = append(cs.clsCount, count)
		cs.clsLen = append(cs.clsLen, k.ln)
		cs.clsHops = append(cs.clsHops, k.hops)
		cs.clsWidth = append(cs.clsWidth, k.width)
		st.clsHi++
	}
	switch st.mode {
	case lenUniform:
		for i := int(st.orbLo); i < int(st.orbHi); i++ {
			_, h := effArc(cs.N, int(cs.orbSrc[i]), int(cs.orbDst[i]), cs.orbDir[i], cs.orbRouted[i])
			emit(classKey{st.lenParam, int32(h), cs.orbWidth[i]}, st.blocks)
		}
	case lenRotated:
		_, h := effArc(cs.N, int(cs.orbSrc[st.orbLo]), int(cs.orbDst[st.orbLo]), cs.orbDir[st.orbLo], cs.orbRouted[st.orbLo])
		for _, rc := range b.ringClasses {
			emit(classKey{rc.Len, int32(h), cs.orbWidth[st.orbLo]}, rc.Count)
		}
	default: // lenExplicit
		j := int(st.lenLo)
		for blk := 0; blk < int(st.blocks); blk++ {
			for k := 0; k < o; k++ {
				i := int(st.orbLo) + k
				_, h := effArc(cs.N, int(cs.orbSrc[i]), int(cs.orbDst[i]), cs.orbDir[i], cs.orbRouted[i])
				emit(classKey{cs.lens[j], int32(h), cs.orbWidth[i]}, 1)
				j++
			}
		}
	}
	for _, k := range b.clsOrder {
		delete(b.clsScratch, k)
	}
	b.clsOrder = b.clsOrder[:0]
}

// Classes fingerprints the boxed schedule into classed form, through a
// transient compact schedule that goes back to the pool.
func (s *Schedule) Classes() *ClassSchedule {
	cs := s.Compact()
	defer cs.Release()
	return cs.Classes()
}

// Classes derives the symmetry-aware pricing fingerprint of the compact
// schedule: per step it detects the smallest block-major rotational orbit
// (falling back to full materialization when there is none or when the
// orbit's link windows cannot be verified) and groups the transfers into
// pricing classes. The result is self-contained — it copies what it needs
// and survives the compact schedule's Release.
func (c *CompactSchedule) Classes() *ClassSchedule {
	b := NewClassScheduleBuilder(c.Algorithm, c.N, c.Elems)
	for si := 0; si < c.NumSteps(); si++ {
		lo, hi := c.StepBounds(si)
		t := hi - lo
		o, p := c.detectOrbit(lo, hi)
		if o > 0 {
			b.StartSymExplicit(c.StepLabel(si), p, t/o)
			for j := 0; j < o; j++ {
				b.AddOrbit(c.Transfer(lo + j))
			}
			for j := o; j < t; j++ {
				b.AddRegion(tensor.Region{Offset: int(c.off[lo+j]), Len: int(c.ln[lo+j])})
			}
		} else {
			b.StartStep(c.StepLabel(si))
			for j := lo; j < hi; j++ {
				b.Add(c.Transfer(j))
			}
		}
	}
	return b.Finish()
}

// detectOrbit returns the smallest proper orbit size o (and the block node
// stride p) such that the step's transfers are the first o replicated
// block-major at stride p, or (0, 0) when no proper orbit exists.
func (c *CompactSchedule) detectOrbit(lo, hi int) (int, int) {
	t := hi - lo
	if t < 2 {
		return 0, 0
	}
	n := c.N
outer:
	for o := 1; o <= t/2; o++ {
		if t%o != 0 {
			continue
		}
		blocks := t / o
		p := ((int(c.src[lo+o])-int(c.src[lo]))%n + n) % n
		if p < 1 || p*blocks > n {
			continue
		}
		for j := o; j < t; j++ {
			a, b := lo+j, lo+j-o
			if int(c.src[a]) != (int(c.src[b])+p)%n || int(c.dst[a]) != (int(c.dst[b])+p)%n {
				continue outer
			}
			if c.dir[a] != c.dir[b] || c.routed[a] != c.routed[b] ||
				c.width[a] != c.width[b] || c.op[a] != c.op[b] {
				continue outer
			}
		}
		return o, p
	}
	return 0, 0
}
