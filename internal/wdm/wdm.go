// Package wdm implements routing-and-wavelength-assignment (RWA) for
// transfers on a WDM optical ring.
//
// A Demand is a directed ring arc plus a stripe width (how many wavelengths
// the transfer uses in parallel). Two demands conflict when their arcs share
// a directed link; conflicting demands must receive disjoint wavelength sets.
// Demands whose arcs are link-disjoint may reuse the same wavelengths — this
// spatial reuse is what the Wrht paper's "wavelength reused" tree exploits.
//
// The package provides the First Fit and Best Fit heuristics referenced by
// the paper, a greedy splitter that breaks an over-subscribed step into
// sequential rounds, and the Liang–Shen ⌈r²/8⌉ bound for single-step
// all-to-all on a ring.
package wdm

import (
	"fmt"
	"slices"
	"sort"

	"wrht/internal/ring"
)

// Demand is a request for Width wavelengths along Arc.
type Demand struct {
	Arc   ring.Arc
	Width int
}

// Policy selects the wavelength-assignment heuristic.
type Policy int

const (
	// FirstFit assigns the lowest-indexed wavelengths that are free on every
	// link of the arc.
	FirstFit Policy = iota
	// BestFit prefers, among feasible wavelengths, those already carrying the
	// most traffic elsewhere on the ring (packing), falling back to index
	// order on ties.
	BestFit
)

func (p Policy) String() string {
	switch p {
	case FirstFit:
		return "first-fit"
	case BestFit:
		return "best-fit"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// Order selects the order in which demands are considered.
type Order int

const (
	// AsGiven keeps the caller's order.
	AsGiven Order = iota
	// LongestFirst sorts demands by descending hop count (classic RWA
	// heuristic: long arcs are hardest to place).
	LongestFirst
)

func (o Order) String() string {
	switch o {
	case AsGiven:
		return "as-given"
	case LongestFirst:
		return "longest-first"
	default:
		return fmt.Sprintf("Order(%d)", int(o))
	}
}

// Assignment is the result of wavelength assignment. Stripes[i] lists the
// wavelengths given to demands[i], in ascending order; NumColors is the
// total number of distinct wavelengths used (max index + 1). The stripes of
// one assignment may share a single backing array; callers must treat them
// as read-only.
type Assignment struct {
	Stripes   [][]int
	NumColors int
}

// Workspace holds the reusable scratch state of repeated assignment calls:
// the per-(color, link) occupancy table, the BestFit candidate buffer, the
// link/order buffers and the round arenas. One Workspace serves any number
// of sequential RoundsReused calls on the same topology with zero
// steady-state allocation; it is not safe for concurrent use.
type Workspace struct {
	topo     ring.Topology
	numLinks int
	// colors is the occupancy high-water mark: the number of distinct colors
	// ever probed since the last reset (mirrors the length of the historical
	// per-color table, which BestFit's candidate range depends on).
	colors int
	// busy is the flat (color, link) table: busy[c*numLinks+l] == epoch means
	// color c is occupied on link l in the current round. Bumping epoch
	// clears the whole table in O(1).
	epoch uint32
	busy  []uint32
	// usage[c] counts demands on color c in the current round (BestFit).
	usage []int
	// inStripe[c] marks colors already chosen for the stripe being placed —
	// the boolean-slice replacement for the historical linear contains scan.
	inStripe []bool
	links    []int // current demand's link indices
	idx      []int // order buffer
	cands    []bfCand

	// RoundsReused result arenas (valid until the next RoundsReused call).
	stripeArena  []int
	demArena     []int
	stripesArena [][]int
	rounds       []Round
}

type bfCand struct{ c, usage int }

// NewWorkspace returns an empty workspace for the topology.
func NewWorkspace(t ring.Topology) *Workspace {
	return &Workspace{topo: t, numLinks: t.NumLinks(), epoch: 1}
}

// reset clears the occupancy state (a fresh round) while keeping capacity.
//
//wrht:noalloc
func (ws *Workspace) reset() {
	ws.epoch++
	if ws.epoch == 0 { // wrapped: the stale marks are indistinguishable, clear
		for i := range ws.busy {
			ws.busy[i] = 0
		}
		ws.epoch = 1
	}
	for c := 0; c < ws.colors; c++ {
		ws.usage[c] = 0
	}
	ws.colors = 0
}

// ensure grows the tables to cover color c.
func (ws *Workspace) ensure(c int) {
	if c < ws.colors {
		return
	}
	for need := (c + 1) * ws.numLinks; len(ws.busy) < need; {
		ws.busy = append(ws.busy, 0)
	}
	for len(ws.usage) <= c {
		ws.usage = append(ws.usage, 0)
		ws.inStripe = append(ws.inStripe, false)
	}
	// Colors in [old colors, c] start this round untouched; their usage may
	// hold counts from an earlier round and must be cleared.
	for i := ws.colors; i <= c; i++ {
		ws.usage[i] = 0
	}
	ws.colors = c + 1
}

// feasible reports whether color c is free on every link of the arc.
//
//wrht:noalloc
func (ws *Workspace) feasible(c int, links []int) bool {
	ws.ensure(c)
	row := ws.busy[c*ws.numLinks:]
	for _, l := range links {
		if row[l] == ws.epoch {
			return false
		}
	}
	return true
}

//wrht:noalloc
func (ws *Workspace) take(c int, links []int) {
	ws.ensure(c)
	row := ws.busy[c*ws.numLinks:]
	for _, l := range links {
		row[l] = ws.epoch
	}
	ws.usage[c]++
}

// demandLinks resolves the demand's arc into ws.links (reused across calls).
//
//wrht:noalloc
func (ws *Workspace) demandLinks(a ring.Arc) ([]int, error) {
	if a.Src == a.Dst {
		return nil, fmt.Errorf("wdm: arc %v has zero length", a)
	}
	if !ws.topo.Contains(a.Src) || !ws.topo.Contains(a.Dst) {
		return nil, fmt.Errorf("wdm: arc %v out of range for N=%d", a, ws.topo.N())
	}
	ws.links = ws.topo.AppendArcLinks(a, ws.links[:0])
	return ws.links, nil
}

func arcLinks(t ring.Topology, a ring.Arc) ([]int, error) {
	if a.Src == a.Dst {
		return nil, fmt.Errorf("wdm: arc %v has zero length", a)
	}
	if !t.Contains(a.Src) || !t.Contains(a.Dst) {
		return nil, fmt.Errorf("wdm: arc %v out of range for N=%d", a, t.N())
	}
	return t.AppendArcLinks(a, make([]int, 0, t.Hops(a))), nil
}

// Assign colors every demand with Width wavelengths under the given policy
// and ordering, with no limit on the number of wavelengths. Use
// RoundsReused to respect a hardware wavelength budget.
func Assign(t ring.Topology, demands []Demand, policy Policy, order Order) (Assignment, error) {
	ws := NewWorkspace(t)
	idx, err := ws.orderIndices(demands, order)
	if err != nil {
		return Assignment{}, err
	}
	ws.reset()
	stripes := make([][]int, len(demands))
	arena := make([]int, 0, totalWidth(demands))
	for _, di := range idx {
		d := demands[di]
		links, err := ws.demandLinks(d.Arc)
		if err != nil {
			return Assignment{}, err
		}
		if d.Width < 1 {
			return Assignment{}, fmt.Errorf("wdm: demand %v has width %d", d.Arc, d.Width)
		}
		var stripe []int
		arena, stripe, err = ws.place(links, d.Width, policy, -1, arena)
		if err != nil {
			return Assignment{}, err
		}
		stripes[di] = stripe
	}
	return Assignment{Stripes: stripes, NumColors: maxColor(stripes) + 1}, nil
}

// totalWidth sums demand widths (the stripe arena capacity; negative widths
// are rejected later by place, so clamp them out of the sum).
func totalWidth(demands []Demand) int {
	n := 0
	for _, d := range demands {
		if d.Width > 0 {
			n += d.Width
		}
	}
	return n
}

// maxColor returns the highest color index used by any stripe, or -1.
func maxColor(stripes [][]int) int {
	max := -1
	for _, st := range stripes {
		for _, c := range st {
			if c > max {
				max = c
			}
		}
	}
	return max
}

// place finds width feasible colors for the given links under policy,
// appending them to arena and returning the grown arena plus the stripe (a
// view into arena; on error the arena is returned unchanged). If limit >= 0,
// only colors < limit may be used; errNoFit means the demand cannot fit.
func (ws *Workspace) place(links []int, width int, policy Policy, limit int, arena []int) ([]int, []int, error) {
	start := len(arena)
	switch policy {
	case FirstFit:
		for c := 0; len(arena)-start < width; c++ {
			if limit >= 0 && c >= limit {
				// Unwind the partial stripe before reporting no-fit.
				for _, cc := range arena[start:] {
					ws.inStripe[cc] = false
				}
				return arena[:start], nil, errNoFit
			}
			if ws.feasible(c, links) && !ws.inStripe[c] {
				ws.inStripe[c] = true
				arena = append(arena, c)
			}
		}
	case BestFit:
		// Gather all feasible colors in the allowed range plus enough fresh
		// colors, then pick the most-used ones.
		max := ws.colors + width
		if limit >= 0 {
			max = limit
		}
		cands := ws.cands[:0]
		for c := 0; c < max; c++ {
			if ws.feasible(c, links) {
				cands = append(cands, bfCand{c, ws.usage[c]})
			}
		}
		ws.cands = cands
		if len(cands) < width {
			return arena[:start], nil, errNoFit
		}
		sort.Slice(cands, func(i, j int) bool {
			if cands[i].usage != cands[j].usage {
				return cands[i].usage > cands[j].usage
			}
			return cands[i].c < cands[j].c
		})
		for i := 0; i < width; i++ {
			arena = append(arena, cands[i].c)
		}
		sort.Ints(arena[start:])
	default:
		return arena[:start], nil, fmt.Errorf("wdm: unknown policy %v", policy)
	}
	stripe := arena[start:len(arena):len(arena)]
	for _, c := range stripe {
		ws.inStripe[c] = false // clear the membership marks for the next stripe
		ws.take(c, links)
	}
	return arena, stripe, nil
}

var errNoFit = fmt.Errorf("wdm: demand does not fit in wavelength budget")

func (ws *Workspace) orderIndices(demands []Demand, order Order) ([]int, error) {
	idx := ws.idx[:0]
	for i := range demands {
		idx = append(idx, i)
	}
	ws.idx = idx
	switch order {
	case AsGiven:
	case LongestFirst:
		sort.SliceStable(idx, func(a, b int) bool {
			return ws.topo.Hops(demands[idx[a]].Arc) > ws.topo.Hops(demands[idx[b]].Arc)
		})
	default:
		return nil, fmt.Errorf("wdm: unknown order %v", order)
	}
	return idx, nil
}

// Round is one sequential sub-round of a step: the demands (by index into the
// original slice) that can be carried simultaneously within the wavelength
// budget, plus their assignment.
type Round struct {
	Demands    []int
	Assignment Assignment
}

// RoundsReused splits demands into sequential rounds such that each round's
// assignment uses at most w wavelengths. Demands are considered in the given
// order; a demand that does not fit in the open round closes it and starts a
// new one. A demand whose Width alone exceeds w is an error.
//
// Every piece of result storage is owned by the workspace: the returned
// rounds, their Demands index slices, and their stripes are all views into
// reusable arenas, valid only until the next RoundsReused call. That keeps
// multi-step pricing allocation-free (optical.StepPricer prices thousands
// of ring steps per schedule); a caller that keeps a result past the next
// call copies it. The arenas are pre-sized so appends never reallocate
// mid-run.
func (ws *Workspace) RoundsReused(demands []Demand, w int, policy Policy, order Order) ([]Round, error) {
	if w < 1 {
		return nil, fmt.Errorf("wdm: wavelength budget %d", w)
	}
	idx, err := ws.orderIndices(demands, order)
	if err != nil {
		return nil, err
	}
	if cap(ws.stripeArena) < totalWidth(demands) {
		ws.stripeArena = make([]int, 0, totalWidth(demands))
	}
	if cap(ws.demArena) < len(demands) {
		ws.demArena = make([]int, 0, len(demands))
	}
	if cap(ws.stripesArena) < len(demands) {
		ws.stripesArena = make([][]int, 0, len(demands))
	}
	arena := ws.stripeArena[:0]
	demArena := ws.demArena[:0]
	stripesArena := ws.stripesArena[:0]
	rounds := ws.rounds[:0]
	open := false
	demLo, strLo := 0, 0
	flush := func() {
		if !open {
			return
		}
		curIdx := demArena[demLo:len(demArena):len(demArena)]
		curStripes := stripesArena[strLo:len(stripesArena):len(stripesArena)]
		rounds = append(rounds, Round{
			Demands:    curIdx,
			Assignment: Assignment{Stripes: curStripes, NumColors: maxColor(curStripes) + 1},
		})
		open = false
		demLo, strLo = len(demArena), len(stripesArena)
	}
	for _, di := range idx {
		d := demands[di]
		if d.Width < 1 {
			return nil, fmt.Errorf("wdm: demand %v has width %d", d.Arc, d.Width)
		}
		if d.Width > w {
			return nil, fmt.Errorf("wdm: demand %v width %d exceeds budget %d", d.Arc, d.Width, w)
		}
		links, err := ws.demandLinks(d.Arc)
		if err != nil {
			return nil, err
		}
		if !open {
			ws.reset()
			open = true
		}
		var stripe []int
		arena, stripe, err = ws.place(links, d.Width, policy, w, arena)
		if err == errNoFit {
			flush()
			ws.reset()
			open = true
			arena, stripe, err = ws.place(links, d.Width, policy, w, arena)
		}
		if err != nil {
			return nil, err
		}
		demArena = append(demArena, di)
		stripesArena = append(stripesArena, stripe)
	}
	flush()
	ws.stripeArena, ws.demArena, ws.stripesArena, ws.rounds = arena, demArena, stripesArena, rounds
	return rounds, nil
}

// SymmetricAssigner solves rotationally-symmetric demand sets by their
// representative orbit: a step whose demands are one orbit replicated
// block-major at a fixed node stride, with replicas pairwise link-disjoint
// (the certificate collective.ClassSchedule carries), receives — under First
// Fit in given order — exactly the orbit's coloring in every block. Solving
// the orbit alone therefore yields the full step's round structure and color
// count. Solutions are memoized by orbit shape (demand pattern + budget), so
// the 2(N-1) identical steps of a ring schedule are assigned once.
type SymmetricAssigner struct {
	ws    *Workspace
	arena []int
	memo  map[uint64][]symEntry
}

type symEntry struct {
	demands []Demand
	w       int
	colors  int
	ok      bool
}

// NewSymmetricAssigner returns an assigner for the topology.
func NewSymmetricAssigner(t ring.Topology) *SymmetricAssigner {
	return &SymmetricAssigner{ws: NewWorkspace(t), memo: map[uint64][]symEntry{}}
}

// SingleRoundColors assigns the orbit demands under First Fit (as-given
// order) within budget w and returns the number of distinct colors used.
// ok=false means the orbit alone does not fit in a single round, in which
// case symmetric pricing does not apply and the caller must fall back to the
// materialized path. Widths must already be clamped to [1, w].
func (sa *SymmetricAssigner) SingleRoundColors(orbit []Demand, w int) (colors int, ok bool, err error) {
	h := shapeHash(orbit, w)
	for _, e := range sa.memo[h] {
		if e.w == w && slices.Equal(e.demands, orbit) {
			return e.colors, e.ok, nil
		}
	}
	colors, ok, err = sa.solve(orbit, w)
	if err != nil {
		return 0, false, err
	}
	sa.memo[h] = append(sa.memo[h], symEntry{
		demands: slices.Clone(orbit), w: w, colors: colors, ok: ok,
	})
	return colors, ok, nil
}

func (sa *SymmetricAssigner) solve(orbit []Demand, w int) (int, bool, error) {
	ws := sa.ws
	ws.reset()
	arena := sa.arena[:0]
	colors := 0
	for _, d := range orbit {
		if d.Width < 1 || d.Width > w {
			return 0, false, fmt.Errorf("wdm: symmetric demand %v width %d outside [1,%d]", d.Arc, d.Width, w)
		}
		links, err := ws.demandLinks(d.Arc)
		if err != nil {
			return 0, false, err
		}
		var stripe []int
		arena, stripe, err = ws.place(links, d.Width, FirstFit, w, arena)
		if err == errNoFit {
			sa.arena = arena
			return 0, false, nil
		}
		if err != nil {
			return 0, false, err
		}
		for _, c := range stripe {
			if c+1 > colors {
				colors = c + 1
			}
		}
	}
	sa.arena = arena
	return colors, true, nil
}

// shapeHash is an FNV-1a fingerprint of the orbit's demand pattern; memo
// entries verify full equality, so collisions only cost a comparison.
func shapeHash(orbit []Demand, w int) uint64 {
	h := uint64(14695981039346656037)
	mix := func(v uint64) {
		h ^= v
		h *= 1099511628211
	}
	mix(uint64(w))
	for _, d := range orbit {
		mix(uint64(d.Arc.Src))
		mix(uint64(d.Arc.Dst))
		mix(uint64(d.Arc.Dir))
		mix(uint64(d.Width))
	}
	return h
}

// Validate checks that asg is a proper wavelength assignment for demands:
// every demand received exactly Width distinct colors, and no two demands
// sharing a directed link share a color.
func Validate(t ring.Topology, demands []Demand, asg Assignment) error {
	if len(asg.Stripes) != len(demands) {
		return fmt.Errorf("wdm: %d stripes for %d demands", len(asg.Stripes), len(demands))
	}
	// owner[link][color] = demand index + 1
	owner := make(map[[2]int]int)
	for i, d := range demands {
		stripe := asg.Stripes[i]
		if len(stripe) != d.Width {
			return fmt.Errorf("wdm: demand %d got %d colors, want %d", i, len(stripe), d.Width)
		}
		seen := make(map[int]bool)
		links, err := arcLinks(t, d.Arc)
		if err != nil {
			return err
		}
		for _, c := range stripe {
			if c < 0 || c >= asg.NumColors {
				return fmt.Errorf("wdm: demand %d color %d outside [0,%d)", i, c, asg.NumColors)
			}
			if seen[c] {
				return fmt.Errorf("wdm: demand %d repeats color %d", i, c)
			}
			seen[c] = true
			for _, l := range links {
				key := [2]int{l, c}
				if prev, ok := owner[key]; ok {
					return fmt.Errorf("wdm: demands %d and %d both use wavelength %d on link %d",
						prev-1, i, c, l)
				}
				owner[key] = i + 1
			}
		}
	}
	return nil
}

// AllToAllDemandsBalanced builds the demand set for a single-step
// all-to-all among the given nodes, one transfer per ordered pair of the
// given stripe width, with load-aware routing: pairs are routed (longest
// span first) along the shorter ring direction, and an antipodal pair takes
// whichever direction currently yields the smaller maximum link load. This approximates the routing Liang & Shen use
// to reach the ⌈r²/8⌉ wavelength requirement.
func AllToAllDemandsBalanced(t ring.Topology, nodes []int, width int) []Demand {
	type pair struct{ src, dst, span int }
	var pairs []pair
	for _, src := range nodes {
		for _, dst := range nodes {
			if src == dst {
				continue
			}
			span := t.Dist(src, dst, ring.CW)
			if c := t.Dist(src, dst, ring.CCW); c < span {
				span = c
			}
			pairs = append(pairs, pair{src, dst, span})
		}
	}
	sort.SliceStable(pairs, func(i, j int) bool { return pairs[i].span > pairs[j].span })
	load := make([]int, t.NumLinks())
	peak := func(a ring.Arc) int {
		m := 0
		t.VisitLinks(a, func(l int) {
			if load[l] > m {
				m = load[l]
			}
		})
		return m
	}
	demands := make(map[[2]int]Demand, len(pairs))
	for _, p := range pairs {
		cwArc := ring.Arc{Src: p.src, Dst: p.dst, Dir: ring.CW}
		ccwArc := ring.Arc{Src: p.src, Dst: p.dst, Dir: ring.CCW}
		hcw, hccw := t.Hops(cwArc), t.Hops(ccwArc)
		var arc ring.Arc
		switch {
		case hcw < hccw:
			arc = cwArc
		case hccw < hcw:
			arc = ccwArc
		default: // tie: pick the direction with smaller current peak load
			if peak(cwArc) <= peak(ccwArc) {
				arc = cwArc
			} else {
				arc = ccwArc
			}
		}
		t.VisitLinks(arc, func(l int) { load[l] += width })
		demands[[2]int{p.src, p.dst}] = Demand{Arc: arc, Width: width}
	}
	// Emit in deterministic (src, dst) node order.
	var out []Demand
	for _, src := range nodes {
		for _, dst := range nodes {
			if src != dst {
				out = append(out, demands[[2]int{src, dst}])
			}
		}
	}
	return out
}

// AllToAllDemandsNoWrap routes every ordered pair so that no arc crosses
// the "wrap" span between node N-1 and node 0: ascending pairs travel CW,
// descending pairs CCW. Combined with Wrht's contiguous (never-wrapping)
// groups this makes the whole schedule survive a failure of that span —
// see core.Options.AvoidWrap. Link loads roughly double versus balanced
// routing; the substrate charges any extra rounds honestly.
func AllToAllDemandsNoWrap(t ring.Topology, nodes []int, width int) []Demand {
	var out []Demand
	for _, src := range nodes {
		for _, dst := range nodes {
			if src == dst {
				continue
			}
			dir := ring.CW
			if src > dst {
				dir = ring.CCW
			}
			out = append(out, Demand{Arc: ring.Arc{Src: src, Dst: dst, Dir: dir}, Width: width})
		}
	}
	return out
}

// LiangShenBound is the paper's wavelength requirement ⌈r²/8⌉ for one-step
// all-to-all among r equally spaced nodes on a WDM ring (Liang & Shen).
func LiangShenBound(r int) int {
	return (r*r + 7) / 8
}
