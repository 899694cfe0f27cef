// Package runner executes collective schedules against the two substrates —
// the WDM optical ring and the electrical baselines' non-blocking switched
// cluster — producing timing results, and replays optical schedules through
// the reservation fabric to certify that the wavelength assignments are
// physically realizable. It is the glue between algorithm
// (internal/collective, internal/core) and substrate (internal/optical,
// internal/electrical); every number in EXPERIMENTS.md comes out of this
// package.
//
// Production prices one schedule form: the symmetry-aware
// collective.ClassSchedule, through RunOpticalClassedObserved and
// RunElectricalClassedObserved (a nil recorder turns observation off).
// RunOptical and RunElectrical price the boxed collective.Schedule step by
// step with no reuse or symmetry shortcuts; they are the reference oracle
// the golden tests hold the classed runners to, and only tests call them.
package runner

import (
	"fmt"

	"wrht/internal/collective"
	"wrht/internal/electrical"
	"wrht/internal/optical"
	"wrht/internal/ring"
	"wrht/internal/wdm"
)

// Result is the timing outcome of running one schedule on one substrate.
type Result struct {
	Algorithm string
	Substrate string
	// TotalSec is the end-to-end communication time.
	TotalSec float64
	// StepSec holds per-step durations (len == schedule steps).
	StepSec []float64
	// MaxWavelengths is the largest number of wavelengths lit in any round
	// (optical only).
	MaxWavelengths int
	// ExtraRounds counts steps that had to be split because their demand
	// exceeded the wavelength budget (optical only; 0 for Wrht by design).
	ExtraRounds int
}

// OpticalOptions configures optical execution.
type OpticalOptions struct {
	Params optical.Params
	// Assigner is the wavelength-assignment heuristic (paper §2: First Fit
	// or Best Fit).
	Assigner wdm.Policy
	// DefaultWidth applies to transfers whose Width hint is zero: 1
	// reproduces the paper's single-wavelength baselines (O-Ring); set it to
	// Params.Wavelengths for fully striped variants.
	DefaultWidth int
	// BytesPerElem converts schedule regions (elements) to bytes; 0 means 4
	// (FP32 gradients).
	BytesPerElem int
	// ValidateFabric additionally replays every reservation through the
	// event-level fabric, failing on any (link, wavelength, time) conflict.
	ValidateFabric bool
}

// DefaultOpticalOptions returns TeraRack defaults with First-Fit assignment
// and paper-faithful width-1 fallback.
func DefaultOpticalOptions() OpticalOptions {
	return OpticalOptions{
		Params:       optical.DefaultParams(),
		Assigner:     wdm.FirstFit,
		DefaultWidth: 1,
		BytesPerElem: 4,
	}
}

// RunOptical prices the boxed schedule on the WDM ring (reference oracle).
func RunOptical(s *collective.Schedule, opts OpticalOptions) (Result, error) {
	if err := s.Validate(); err != nil {
		return Result{}, err
	}
	if opts.BytesPerElem == 0 {
		opts.BytesPerElem = 4
	}
	if opts.BytesPerElem < 1 {
		return Result{}, fmt.Errorf("runner: BytesPerElem %d", opts.BytesPerElem)
	}
	if opts.DefaultWidth < 0 {
		return Result{}, fmt.Errorf("runner: DefaultWidth %d", opts.DefaultWidth)
	}
	if opts.DefaultWidth == 0 {
		opts.DefaultWidth = 1
	}
	topo, err := ring.New(s.N)
	if err != nil {
		return Result{}, err
	}
	res := Result{
		Algorithm: s.Algorithm,
		Substrate: fmt.Sprintf("optical-ring(w=%d)", opts.Params.Wavelengths),
		StepSec:   make([]float64, 0, len(s.Steps)),
	}
	var fabric *optical.Fabric
	if opts.ValidateFabric {
		fabric, err = optical.NewFabric(topo, opts.Params)
		if err != nil {
			return Result{}, err
		}
	}
	now := 0.0
	for si, st := range s.Steps {
		specs := make([]optical.TransferSpec, 0, len(st.Transfers))
		for _, tr := range st.Transfers {
			arc := ring.Arc{Src: tr.Src, Dst: tr.Dst, Dir: tr.Dir}
			if !tr.Routed {
				arc = topo.ShortestArc(tr.Src, tr.Dst)
			}
			width := tr.Width
			if width == 0 {
				width = opts.DefaultWidth
			}
			specs = append(specs, optical.TransferSpec{
				Arc:   arc,
				Bytes: int64(tr.Region.Len) * int64(opts.BytesPerElem),
				Width: width,
			})
		}
		sr, err := optical.StepCost(topo, opts.Params, specs, opts.Assigner)
		if err != nil {
			return Result{}, fmt.Errorf("runner: step %d (%s): %w", si, st.Label, err)
		}
		res.StepSec = append(res.StepSec, sr.Duration)
		res.TotalSec += sr.Duration
		if sr.WavelengthsUsed > res.MaxWavelengths {
			res.MaxWavelengths = sr.WavelengthsUsed
		}
		if sr.Rounds > 1 {
			res.ExtraRounds += sr.Rounds - 1
		}
		if fabric != nil {
			if err := replayRounds(topo, opts.Params, fabric, sr, now); err != nil {
				return Result{}, fmt.Errorf("runner: step %d (%s): %w", si, st.Label, err)
			}
		}
		now += sr.Duration
	}
	return res, nil
}

// replayRounds books the step's active transfers on the fabric, round by
// round, mirroring the timing the pricer charged.
func replayRounds(topo ring.Topology, p optical.Params, fabric *optical.Fabric,
	sr optical.StepResult, stepStart float64) error {
	start := stepStart + p.StepOverheadSec()
	for _, rd := range sr.Assignments {
		longest := 0.0
		for i, di := range rd.Demands {
			tr := sr.Active[di]
			d := p.TransferSec(tr.Bytes, tr.Width, topo.Hops(tr.Arc))
			if err := fabric.Reserve(tr.Arc, rd.Assignment.Stripes[i], start, d); err != nil {
				return err
			}
			if d > longest {
				longest = d
			}
		}
		start += longest
	}
	return nil
}

// ElectricalOptions configures electrical execution on the one electrical
// substrate, a non-blocking switched cluster of the schedule's host count
// (DESIGN.md §4).
type ElectricalOptions struct {
	Params electrical.Params
	// BytesPerElem converts schedule regions (elements) to bytes; 0 means 4.
	BytesPerElem int
}

// RunElectrical prices the boxed schedule on the switched cluster
// (reference oracle).
func RunElectrical(s *collective.Schedule, opts ElectricalOptions) (Result, error) {
	if err := s.Validate(); err != nil {
		return Result{}, err
	}
	if opts.BytesPerElem == 0 {
		opts.BytesPerElem = 4
	}
	if opts.BytesPerElem < 1 {
		return Result{}, fmt.Errorf("runner: BytesPerElem %d", opts.BytesPerElem)
	}
	nw, err := electrical.NewSwitchedCluster(s.N, opts.Params.LinkGbps)
	if err != nil {
		return Result{}, err
	}
	res := Result{
		Algorithm: s.Algorithm,
		Substrate: nw.Name(),
		StepSec:   make([]float64, 0, len(s.Steps)),
	}
	for si, st := range s.Steps {
		flows := make([]electrical.Flow, 0, len(st.Transfers))
		for _, tr := range st.Transfers {
			flows = append(flows, electrical.Flow{
				Src: tr.Src, Dst: tr.Dst,
				Bits: float64(tr.Region.Len) * float64(opts.BytesPerElem) * 8,
			})
		}
		d, err := nw.StepCost(opts.Params, flows)
		if err != nil {
			return Result{}, fmt.Errorf("runner: step %d (%s): %w", si, st.Label, err)
		}
		res.StepSec = append(res.StepSec, d)
		res.TotalSec += d
	}
	return res, nil
}
