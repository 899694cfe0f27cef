// Package optical models a TeraRack-like WDM optical ring interconnect: each
// node couples to two directional waveguides through banks of micro-ring
// resonators, every waveguide carries Wavelengths channels of
// GbpsPerWavelength each, and a transfer occupies its wavelength(s) on every
// directed link along its arc for the duration of the transmission.
//
// The package prices synchronous communication steps (StepPricer, StepCost)
// by running real wavelength assignment over the step's arcs — splitting
// the step into sequential rounds when the demand exceeds the wavelength
// budget — and offers an event-level Fabric that replays complete schedules
// to certify that no (link, wavelength, time) is ever double-booked.
// StepPricer owns the transfer→stripe rule for every optical consumer: the
// classed runner, the schedule outline and the event simulator all read
// their per-step stripes from its results.
package optical

import (
	"fmt"
	"math"

	"wrht/internal/ring"
	"wrht/internal/wdm"
)

// Params are the hardware constants of the optical ring.
type Params struct {
	// Wavelengths per waveguide per direction (TeraRack: 64).
	Wavelengths int
	// GbpsPerWavelength is one channel's line rate (TeraRack comb lasers:
	// ~25 Gb/s per wavelength).
	GbpsPerWavelength float64
	// SerDesNs, EOConversionNs and OEConversionNs are charged once per
	// transfer (serializer plus electrical→optical→electrical conversion).
	SerDesNs       float64
	EOConversionNs float64
	OEConversionNs float64
	// TuningNs is the micro-ring thermal retuning cost charged once per
	// step (the fabric reconfigures between steps).
	TuningNs float64
	// StepControlNs is the per-step control-plane/synchronization overhead.
	StepControlNs float64
	// PropagationNsPerHop is the waveguide propagation delay per ring hop
	// (about 2 m of fiber at 5 ns/m at rack scale).
	PropagationNsPerHop float64
}

// DefaultParams returns the TeraRack-like constants used by the evaluation
// (see DESIGN.md §4).
func DefaultParams() Params {
	return Params{
		Wavelengths:         64,
		GbpsPerWavelength:   25,
		SerDesNs:            10,
		EOConversionNs:      5,
		OEConversionNs:      5,
		TuningNs:            2000,
		StepControlNs:       1000,
		PropagationNsPerHop: 10,
	}
}

// Validate checks the parameters are physically meaningful.
func (p Params) Validate() error {
	if p.Wavelengths < 1 {
		return fmt.Errorf("optical: %d wavelengths", p.Wavelengths)
	}
	if p.GbpsPerWavelength <= 0 {
		return fmt.Errorf("optical: non-positive channel rate %v", p.GbpsPerWavelength)
	}
	for _, v := range []float64{p.SerDesNs, p.EOConversionNs, p.OEConversionNs,
		p.TuningNs, p.StepControlNs, p.PropagationNsPerHop} {
		if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("optical: invalid latency parameter %v", v)
		}
	}
	return nil
}

// StepOverheadSec is the fixed per-step cost (tuning + control).
func (p Params) StepOverheadSec() float64 {
	return (p.TuningNs + p.StepControlNs) * 1e-9
}

// PerTransferOverheadSec is the fixed per-transfer cost (SerDes + E/O + O/E).
func (p Params) PerTransferOverheadSec() float64 {
	return (p.SerDesNs + p.EOConversionNs + p.OEConversionNs) * 1e-9
}

// TransferSec returns the duration of a single transfer of `bytes` bytes
// striped over width wavelengths across hops ring links.
func (p Params) TransferSec(bytes int64, width, hops int) float64 {
	if width < 1 {
		width = 1
	}
	serialization := float64(bytes) * 8 / (float64(width) * p.GbpsPerWavelength * 1e9)
	return p.PerTransferOverheadSec() +
		float64(hops)*p.PropagationNsPerHop*1e-9 +
		serialization
}

// TransferSpec is one transfer inside a synchronous step.
type TransferSpec struct {
	Arc   ring.Arc
	Bytes int64
	// Width is the stripe-width hint (wavelengths used in parallel). A hint
	// below 1 takes the pricer's default width, and every width is clamped
	// to Params.Wavelengths.
	Width int
}

// StepResult describes the cost of one synchronous step.
type StepResult struct {
	// Duration includes the per-step overhead and all sequential rounds.
	Duration float64
	// Rounds the step was split into (1 when the demand fit the budget).
	Rounds int
	// WavelengthsUsed is the largest number of distinct wavelengths lit in
	// any round.
	WavelengthsUsed int
	// Active holds the step's non-empty transfers in input order with their
	// widths resolved and clamped: the stripes Price lit.
	Active []TransferSpec
	// Assignments holds the per-round wavelength assignments; their demand
	// indices refer to Active. PriceSymmetric fills neither field.
	Assignments []wdm.Round
}

// StepCost prices one synchronous step: the transfers are wavelength-assigned
// under the given policy (splitting into sequential rounds when they exceed
// the budget); each round lasts as long as its slowest transfer, rounds
// serialize, and the step pays the fixed reconfiguration overhead once.
// Zero-byte transfers are skipped and width hints below 1 take one
// wavelength. For a multi-step schedule, a StepPricer amortizes the
// assignment scratch across steps.
func StepCost(topo ring.Topology, p Params, transfers []TransferSpec, policy wdm.Policy) (StepResult, error) {
	sp, err := NewStepPricer(topo, p, policy, 1)
	if err != nil {
		return StepResult{}, err
	}
	return sp.Price(transfers)
}

// StepPricer prices a sequence of synchronous steps on one ring, reusing the
// wavelength-assignment workspace and the demand buffers across steps so the
// per-step allocation cost is bounded by the result (rounds and stripes),
// not the step size. It is the one owner of the rule that turns a transfer
// into a lit stripe: the width hint, the clamp to the budget, the zero-byte
// skip and the round split. Not safe for concurrent use.
type StepPricer struct {
	topo         ring.Topology
	p            Params
	policy       wdm.Policy
	defaultWidth int
	ws           *wdm.Workspace
	sym          *wdm.SymmetricAssigner
	demands      []wdm.Demand
	active       []TransferSpec
}

// NewStepPricer validates the parameters and the default stripe width once
// and returns a pricer. The default width applies to width hints below 1:
// 1 reproduces the paper's single-wavelength baselines, 0 means 1, and a
// negative default is an error.
func NewStepPricer(topo ring.Topology, p Params, policy wdm.Policy, defaultWidth int) (*StepPricer, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if defaultWidth < 0 {
		return nil, fmt.Errorf("optical: default width %d", defaultWidth)
	}
	return &StepPricer{topo: topo, p: p, policy: policy, defaultWidth: max(defaultWidth, 1),
		ws: wdm.NewWorkspace(topo)}, nil
}

// width resolves a stripe-width hint: below 1 takes the default width, and
// the result is clamped to the wavelength budget.
//
//wrht:noalloc
func (sp *StepPricer) width(hint int) int {
	if hint < 1 {
		hint = sp.defaultWidth
	}
	return min(hint, sp.p.Wavelengths)
}

// Price prices one step. The result's Active transfers and Assignments are
// views into the pricer's reusable storage and are valid only until the
// next Price call (multi-step consumers — fabric replay, the event
// simulator, the schedule outline — read them before pricing the next
// step).
//
//wrht:noalloc
func (sp *StepPricer) Price(transfers []TransferSpec) (StepResult, error) {
	p := sp.p
	demands := sp.demands[:0]
	active := sp.active[:0]
	for _, tr := range transfers {
		if tr.Bytes < 0 {
			return StepResult{}, fmt.Errorf("optical: negative transfer size %d", tr.Bytes)
		}
		if tr.Bytes == 0 {
			continue
		}
		tr.Width = sp.width(tr.Width)
		demands = append(demands, wdm.Demand{Arc: tr.Arc, Width: tr.Width})
		active = append(active, tr)
	}
	sp.demands, sp.active = demands, active
	res := StepResult{Duration: p.StepOverheadSec()}
	if len(active) == 0 {
		return res, nil
	}
	rounds, err := sp.ws.RoundsReused(demands, p.Wavelengths, sp.policy, wdm.AsGiven)
	if err != nil {
		return StepResult{}, err
	}
	res.Rounds, res.Active, res.Assignments = len(rounds), active, rounds
	for _, rd := range rounds {
		longest := 0.0
		for _, di := range rd.Demands {
			tr := active[di]
			d := p.TransferSec(tr.Bytes, tr.Width, sp.topo.Hops(tr.Arc))
			if d > longest {
				longest = d
			}
		}
		if rd.Assignment.NumColors > res.WavelengthsUsed {
			res.WavelengthsUsed = rd.Assignment.NumColors
		}
		res.Duration += longest
	}
	return res, nil
}

// ClassSpec is one pricing equivalence class of a step: transfers of Bytes
// bytes striped over Width wavelengths across Hops ring links. Width is a
// hint that PriceSymmetric resolves exactly as Price resolves
// TransferSpec.Width.
type ClassSpec struct {
	Bytes       int64
	Width, Hops int
}

// PriceSymmetric prices one step from its classes and rotational-symmetry
// certificate instead of its materialized transfers: the step cost is the
// fixed overhead plus the slowest class representative, so pricing is
// O(classes + orbit) instead of O(transfers). It is bit-identical to Price
// on the materialized step whenever it reports ok=true:
//
//   - with no active (non-empty) class the step is empty: overhead only;
//   - when disjoint is set (every transfer pair link-disjoint), any active
//     subset fits one round and First Fit gives each transfer colors
//     0..width-1, so the color count is the widest active class;
//   - otherwise the full demand set must be the orbit replicated exactly
//     (no zero-byte holes): the orbit is assigned once (memoized by shape)
//     and its coloring replicates across the link-disjoint blocks.
//
// ok=false (policy not First Fit, zero-byte holes without disjointness, or
// an orbit that does not fit one round) means the caller must price the
// materialized step with Price; err reports malformed inputs.
//
//wrht:noalloc
func (sp *StepPricer) PriceSymmetric(orbit []wdm.Demand, classes []ClassSpec, disjoint bool) (StepResult, bool, error) {
	p := sp.p
	if sp.policy != wdm.FirstFit {
		return StepResult{}, false, nil
	}
	res := StepResult{Duration: p.StepOverheadSec()}
	longest, maxWidth, actives, holes := 0.0, 0, 0, false
	for _, c := range classes {
		if c.Bytes < 0 {
			return StepResult{}, false, fmt.Errorf("optical: negative transfer size %d", c.Bytes)
		}
		if c.Bytes == 0 {
			holes = true
			continue
		}
		actives++
		width := sp.width(c.Width)
		if width > maxWidth {
			maxWidth = width
		}
		if d := p.TransferSec(c.Bytes, width, c.Hops); d > longest {
			longest = d
		}
	}
	if actives == 0 {
		return res, true, nil
	}
	res.Rounds = 1
	res.Duration += longest
	if disjoint {
		res.WavelengthsUsed = maxWidth
		return res, true, nil
	}
	if holes {
		// The active demand set is a strict subset of the replicated orbit;
		// without pairwise disjointness its coloring is not the orbit's.
		return StepResult{}, false, nil
	}
	if sp.sym == nil {
		sp.sym = wdm.NewSymmetricAssigner(sp.topo)
	}
	sp.demands = sp.demands[:0]
	for _, d := range orbit {
		d.Width = sp.width(d.Width)
		sp.demands = append(sp.demands, d)
	}
	colors, ok, err := sp.sym.SingleRoundColors(sp.demands, p.Wavelengths)
	if err != nil || !ok {
		return StepResult{}, false, err
	}
	res.WavelengthsUsed = colors
	return res, true, nil
}

// Fabric is an event-level reservation ledger: every (directed link,
// wavelength) tracks the time until which it is busy. Replaying a schedule's
// assignments through Reserve certifies the schedule is physically realizable
// (no double-booked wavelength anywhere, ever).
// Fabric is not safe for concurrent use: the link scratch buffer is shared
// across Reserve/EarliestFree calls.
type Fabric struct {
	topo   ring.Topology
	params Params
	// busyUntil[linkIndex][wavelength]
	busyUntil [][]float64
	// links is the arc-resolution scratch reused across calls.
	links []int
}

// NewFabric returns an idle fabric.
func NewFabric(topo ring.Topology, p Params) (*Fabric, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	busy := make([][]float64, topo.NumLinks())
	for i := range busy {
		busy[i] = make([]float64, p.Wavelengths)
	}
	return &Fabric{topo: topo, params: p, busyUntil: busy}, nil
}

// Reserve books the given wavelengths along arc for [start, start+duration).
// It fails if any wavelength is out of range or still busy at start.
// Reservations must be issued in non-decreasing start order (schedules are
// replayed step by step, so this holds by construction).
func (f *Fabric) Reserve(arc ring.Arc, wavelengths []int, start, duration float64) error {
	if duration < 0 {
		return fmt.Errorf("optical: negative duration %v", duration)
	}
	links := f.arcLinks(arc)
	if len(links) == 0 {
		return fmt.Errorf("optical: empty arc %v", arc)
	}
	for _, c := range wavelengths {
		if c < 0 || c >= f.params.Wavelengths {
			return fmt.Errorf("optical: wavelength %d outside [0,%d)", c, f.params.Wavelengths)
		}
		for _, l := range links {
			if f.busyUntil[l][c] > start {
				return fmt.Errorf("optical: link %d wavelength %d busy until %v, requested at %v",
					l, c, f.busyUntil[l][c], start)
			}
		}
	}
	end := start + duration
	for _, c := range wavelengths {
		for _, l := range links {
			f.busyUntil[l][c] = end
		}
	}
	return nil
}

// EarliestFree returns the earliest time at or after `earliest` when every
// given wavelength is free on every link of the arc. Combined with Reserve it
// supports greedy event-driven scheduling (internal/opticalsim).
func (f *Fabric) EarliestFree(arc ring.Arc, wavelengths []int, earliest float64) (float64, error) {
	links := f.arcLinks(arc)
	if len(links) == 0 {
		return 0, fmt.Errorf("optical: empty arc %v", arc)
	}
	t := earliest
	for _, c := range wavelengths {
		if c < 0 || c >= f.params.Wavelengths {
			return 0, fmt.Errorf("optical: wavelength %d outside [0,%d)", c, f.params.Wavelengths)
		}
		for _, l := range links {
			if f.busyUntil[l][c] > t {
				t = f.busyUntil[l][c]
			}
		}
	}
	return t, nil
}

// arcLinks resolves the arc's dense link indices into the shared scratch.
func (f *Fabric) arcLinks(arc ring.Arc) []int {
	f.links = f.topo.AppendArcLinks(arc, f.links[:0])
	return f.links
}

// Utilization returns the fraction of (link, wavelength) pairs that have ever
// been reserved — a coarse occupancy metric for reports.
func (f *Fabric) Utilization() float64 {
	used, total := 0, 0
	for _, ws := range f.busyUntil {
		for _, t := range ws {
			total++
			if t > 0 {
				used++
			}
		}
	}
	if total == 0 {
		return 0
	}
	return float64(used) / float64(total)
}
