// Package electrical is the repository's stand-in for SimGrid: a flow-level
// simulator of the electrical baselines' substrate, a non-blocking switched
// cluster (DESIGN.md §4 — the most favorable network for E-Ring and RD,
// making Wrht's reported gains conservative). Concurrent flows share link
// bandwidth max-min fairly (progressive filling, the same fluid model
// SimGrid's network models use); an event loop advances time to each flow
// completion and re-solves the remaining rates.
package electrical

import (
	"fmt"
	"math"
)

// Params are the electrical network constants.
type Params struct {
	// LinkGbps is the per-link (NIC/switch-port) bandwidth.
	LinkGbps float64
	// PerStepLatencySec is charged once per synchronous step: software
	// stack, NIC and switch traversal (SimGrid's latency term).
	PerStepLatencySec float64
}

// DefaultParams returns the constants used by the evaluation: 100 Gb/s links
// and 5 µs per-step latency (see DESIGN.md §4).
func DefaultParams() Params {
	return Params{LinkGbps: 100, PerStepLatencySec: 5e-6}
}

// Validate checks the parameters.
func (p Params) Validate() error {
	if p.LinkGbps <= 0 || math.IsNaN(p.LinkGbps) {
		return fmt.Errorf("electrical: invalid link rate %v", p.LinkGbps)
	}
	if p.PerStepLatencySec < 0 || math.IsNaN(p.PerStepLatencySec) {
		return fmt.Errorf("electrical: invalid step latency %v", p.PerStepLatencySec)
	}
	return nil
}

// Network is a non-blocking switched cluster: each host has one uplink and
// one downlink; the crossbar itself is not a bottleneck.
type Network struct {
	name     string
	numNodes int
	// capBps[l] is link l's capacity in bits/s. Links [0,n) are uplinks,
	// [n,2n) downlinks.
	capBps []float64
}

// Name identifies the topology (for reports).
func (nw *Network) Name() string { return nw.name }

// route appends the link indices a src→dst flow traverses — src's uplink,
// then dst's downlink — to buf and returns the grown slice.
func (nw *Network) route(src, dst int, buf []int) []int {
	return append(buf, src, nw.numNodes+dst)
}

// NewSwitchedCluster models n hosts on a non-blocking switch with links of
// linkGbps.
func NewSwitchedCluster(n int, linkGbps float64) (*Network, error) {
	if n < 2 {
		return nil, fmt.Errorf("electrical: cluster needs >= 2 hosts, got %d", n)
	}
	if linkGbps <= 0 {
		return nil, fmt.Errorf("electrical: link rate %v", linkGbps)
	}
	caps := make([]float64, 2*n)
	for i := range caps {
		caps[i] = linkGbps * 1e9
	}
	return &Network{
		name:     fmt.Sprintf("switched-cluster(%d)", n),
		numNodes: n,
		capBps:   caps,
	}, nil
}

// Flow is one transfer inside a synchronous step.
type Flow struct {
	Src, Dst int
	Bits     float64
}

// StepCost prices one synchronous step: fixed per-step latency plus the
// makespan of the step's flows under max-min sharing. For multi-step
// schedules, a Solver amortizes the fluid-model scratch across steps.
//
//wrht:noalloc
func (nw *Network) StepCost(p Params, flows []Flow) (float64, error) {
	return NewSolver(nw).StepCost(p, flows)
}

// Solver is a reusable flow-level solver bound to one network: the routing
// arena and fluid-model scratch persist across calls, so pricing a
// 1000-step schedule performs no per-flow allocation after the first step.
// Not safe for concurrent use.
type Solver struct {
	nw *Network
	// pathArena holds every flow's links back to back; flow i's path is
	// pathArena[pathOff[i]:pathOff[i+1]].
	pathArena []int
	pathOff   []int
	remaining []float64
	doneAt    []float64
	rates     []float64
	active    []bool
	frozen    []bool
	residual  []float64
	count     []int
	nonEmpty  []Flow
}

// NewSolver returns an empty solver for the network.
func NewSolver(nw *Network) *Solver {
	return &Solver{nw: nw}
}

// StepCost prices one synchronous step on the solver's scratch.
func (s *Solver) StepCost(p Params, flows []Flow) (float64, error) {
	if err := p.Validate(); err != nil {
		return 0, err
	}
	nonEmpty := s.nonEmpty[:0]
	for _, f := range flows {
		if f.Bits > 0 {
			nonEmpty = append(nonEmpty, f)
		}
	}
	s.nonEmpty = nonEmpty
	if len(nonEmpty) == 0 {
		return p.PerStepLatencySec, nil
	}
	makespan, err := s.run(nonEmpty)
	if err != nil {
		return 0, err
	}
	return p.PerStepLatencySec + makespan, nil
}

// grow sizes the per-flow and per-link scratch for n flows.
func (s *Solver) grow(n int) {
	if cap(s.remaining) < n {
		s.remaining = make([]float64, n)
		s.doneAt = make([]float64, n)
		s.rates = make([]float64, n)
		s.active = make([]bool, n)
		s.frozen = make([]bool, n)
	}
	s.remaining = s.remaining[:n]
	s.doneAt = s.doneAt[:n]
	s.rates = s.rates[:n]
	s.active = s.active[:n]
	s.frozen = s.frozen[:n]
	if cap(s.pathOff) < n+1 {
		s.pathOff = make([]int, 0, n+1)
	}
	s.pathOff = s.pathOff[:0]
	s.pathArena = s.pathArena[:0]
	links := len(s.nw.capBps)
	if cap(s.residual) < links {
		s.residual = make([]float64, links)
		s.count = make([]int, links)
	}
	s.residual = s.residual[:links]
	s.count = s.count[:links]
}

// ClassSolver prices permutation steps — each host sends at most one flow
// and receives at most one — on a non-blocking switched cluster from their
// flow equivalence classes. In such a step every flow has a dedicated uplink
// and downlink, so all flows of a class share one rate trajectory and the
// fluid model only distinguishes classes: one representative flow per class
// on a small internal cluster reproduces the exact progressive-filling
// arithmetic of the full N-flow solve (the event loop's minima and updates
// range over the same value multiset), making the result bit-identical to
// Solver.StepCost on the materialized flows at O(classes) instead of
// O(flows) per step. Not safe for concurrent use.
type ClassSolver struct {
	linkGbps float64
	nw       *Network
	s        *Solver
	flows    []Flow
}

// NewClassSolver returns a solver whose internal cluster links run at
// linkGbps — it must match the link rate of the network the full step would
// have been priced on.
func NewClassSolver(linkGbps float64) (*ClassSolver, error) {
	if linkGbps <= 0 {
		return nil, fmt.Errorf("electrical: link rate %v", linkGbps)
	}
	return &ClassSolver{linkGbps: linkGbps}, nil
}

// StepCost prices one permutation step given each active class's bit count
// (one entry per class with a positive byte count; zero-bit classes must be
// filtered by the caller, mirroring the full path's filter).
//
//wrht:noalloc
func (c *ClassSolver) StepCost(p Params, bits []float64) (float64, error) {
	if len(bits) == 0 {
		if err := p.Validate(); err != nil {
			return 0, err
		}
		return p.PerStepLatencySec, nil
	}
	if c.nw == nil || c.nw.numNodes < 2*len(bits) {
		n := 2 * len(bits)
		if n < 2 {
			n = 2
		}
		nw, err := NewSwitchedCluster(n, c.linkGbps)
		if err != nil {
			return 0, err
		}
		c.nw, c.s = nw, NewSolver(nw)
	}
	half := c.nw.numNodes / 2
	c.flows = c.flows[:0]
	for i, b := range bits {
		c.flows = append(c.flows, Flow{Src: i, Dst: half + i, Bits: b})
	}
	return c.s.StepCost(p, c.flows)
}

// run simulates the flows, leaving per-flow completion times in s.doneAt.
//
//wrht:noalloc
func (s *Solver) run(flows []Flow) (makespan float64, err error) {
	nw := s.nw
	s.grow(len(flows))
	s.pathOff = append(s.pathOff, 0)
	for i, f := range flows {
		if f.Src < 0 || f.Src >= nw.numNodes || f.Dst < 0 || f.Dst >= nw.numNodes {
			return 0, fmt.Errorf("electrical: flow %d endpoints (%d,%d) out of range", i, f.Src, f.Dst)
		}
		if f.Src == f.Dst {
			return 0, fmt.Errorf("electrical: flow %d is a self-flow", i)
		}
		if f.Bits < 0 || math.IsNaN(f.Bits) {
			return 0, fmt.Errorf("electrical: flow %d has %v bits", i, f.Bits)
		}
		s.pathArena = nw.route(f.Src, f.Dst, s.pathArena)
		s.pathOff = append(s.pathOff, len(s.pathArena))
		s.remaining[i] = f.Bits
		s.active[i] = f.Bits > 0
		s.doneAt[i] = 0
	}

	now := 0.0
	for {
		activeCount := 0
		for i := range flows {
			if s.active[i] {
				activeCount++
			}
		}
		if activeCount == 0 {
			break
		}
		s.maxMinRates()
		// Advance to the next completion.
		dt := math.Inf(1)
		for i := range flows {
			if !s.active[i] {
				continue
			}
			if s.rates[i] <= 0 {
				return 0, fmt.Errorf("electrical: flow %d starved (zero rate)", i)
			}
			if d := s.remaining[i] / s.rates[i]; d < dt {
				dt = d
			}
		}
		now += dt
		for i := range flows {
			if !s.active[i] {
				continue
			}
			s.remaining[i] -= s.rates[i] * dt
			if s.remaining[i] <= 1e-6 { // sub-bit residue: finished
				s.remaining[i] = 0
				s.active[i] = false
				s.doneAt[i] = now
			}
		}
	}
	for i := range flows {
		if s.doneAt[i] > makespan {
			makespan = s.doneAt[i]
		}
	}
	return makespan, nil
}

// path returns flow i's links.
func (s *Solver) path(i int) []int {
	return s.pathArena[s.pathOff[i]:s.pathOff[i+1]]
}

// maxMinRates fills rates for active flows via progressive filling:
// repeatedly saturate the link with the smallest fair share and freeze the
// flows crossing it. The result is the max-min fair allocation.
func (s *Solver) maxMinRates() {
	n := len(s.rates)
	copy(s.residual, s.nw.capBps)
	for l := range s.count {
		s.count[l] = 0
	}
	for i := 0; i < n; i++ {
		s.rates[i] = 0
		if !s.active[i] {
			s.frozen[i] = true
			continue
		}
		s.frozen[i] = false
		for _, l := range s.path(i) {
			s.count[l]++
		}
	}
	for {
		// Find the bottleneck link's fair share.
		share := math.Inf(1)
		for l := range s.residual {
			if s.count[l] > 0 {
				if sh := s.residual[l] / float64(s.count[l]); sh < share {
					share = sh
				}
			}
		}
		if math.IsInf(share, 1) {
			return // all flows frozen
		}
		// Freeze every unfrozen flow crossing a saturating link.
		progress := false
		for i := 0; i < n; i++ {
			if s.frozen[i] {
				continue
			}
			bottlenecked := false
			for _, l := range s.path(i) {
				if s.count[l] > 0 && s.residual[l]/float64(s.count[l]) <= share*(1+1e-12) {
					bottlenecked = true
					break
				}
			}
			if !bottlenecked {
				continue
			}
			s.rates[i] = share
			s.frozen[i] = true
			progress = true
			for _, l := range s.path(i) {
				s.residual[l] -= share
				if s.residual[l] < 0 {
					s.residual[l] = 0
				}
				s.count[l]--
			}
		}
		if !progress {
			return
		}
	}
}
