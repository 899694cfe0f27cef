package runner

import (
	"fmt"

	"wrht/internal/collective"
	"wrht/internal/electrical"
	"wrht/internal/obs"
	"wrht/internal/optical"
	"wrht/internal/ring"
	"wrht/internal/wdm"
)

// RunOpticalClassedObserved prices the symmetry-aware classed schedule on
// the WDM ring. Steps carrying a verified rotational-symmetry certificate
// are priced from one representative per equivalence class (plus one orbit
// wavelength assignment, memoized by shape), turning the hot path from
// O(transfers) to O(classes) per step; steps without a certificate — and
// every step when the assigner is not First Fit or fabric replay is
// requested — are materialized and priced by the exact per-transfer path.
// Results are bit-identical to RunOptical on the expanded schedule (golden
// and property tests enforce this).
//
// A non-nil recorder records each step as a span (duration, wavelengths,
// transfers, classes, rounds) on a per-run process named proc, plus a "λ
// used" counter track and symmetric-vs-materialized step counters. The
// recorder never influences pricing, and a nil recorder costs one branch
// per step.
func RunOpticalClassedObserved(cls *collective.ClassSchedule, opts OpticalOptions, rec *obs.Recorder, proc string) (Result, error) {
	if err := cls.Validate(); err != nil {
		return Result{}, err
	}
	if opts.BytesPerElem == 0 {
		opts.BytesPerElem = 4
	}
	if opts.BytesPerElem < 1 {
		return Result{}, fmt.Errorf("runner: BytesPerElem %d", opts.BytesPerElem)
	}
	topo, err := ring.New(cls.N)
	if err != nil {
		return Result{}, err
	}
	res := Result{
		Algorithm: cls.Algorithm,
		Substrate: fmt.Sprintf("optical-ring(w=%d)", opts.Params.Wavelengths),
		StepSec:   make([]float64, 0, cls.NumSteps()),
	}
	var fabric *optical.Fabric
	if opts.ValidateFabric {
		fabric, err = optical.NewFabric(topo, opts.Params)
		if err != nil {
			return Result{}, err
		}
	}
	pricer, err := optical.NewStepPricer(topo, opts.Params, opts.Assigner, opts.DefaultWidth)
	if err != nil {
		return Result{}, err
	}
	var (
		specs   []optical.TransferSpec
		orbit   []wdm.Demand
		classes []optical.ClassSpec
	)
	stepTrack, widthTrack := obs.NoTrack, obs.NoTrack
	if rec.Enabled() {
		p := rec.Process(proc)
		stepTrack = rec.Track(p, "steps")
		widthTrack = rec.CounterTrack(p, "λ used")
	}
	now := 0.0
	for si := 0; si < cls.NumSteps(); si++ {
		var sr optical.StepResult
		priced := false
		if _, _, disjoint, _, sym := cls.Sym(si); sym && fabric == nil {
			classes = classes[:0]
			lo, hi := cls.ClassBounds(si)
			for i := lo; i < hi; i++ {
				c := cls.Class(i)
				classes = append(classes, optical.ClassSpec{
					Bytes: int64(c.Len) * int64(opts.BytesPerElem),
					Width: int(c.Width),
					Hops:  int(c.Hops),
				})
			}
			orbit = orbit[:0]
			olo, ohi := cls.OrbitBounds(si)
			for i := olo; i < ohi; i++ {
				tr := cls.OrbitAt(i)
				orbit = append(orbit, wdm.Demand{Arc: tr.Arc(topo), Width: tr.Width})
			}
			sr, priced, err = pricer.PriceSymmetric(orbit, classes, disjoint)
			if err != nil {
				return Result{}, fmt.Errorf("runner: step %d (%s): %w", si, cls.StepLabel(si), err)
			}
		}
		if !priced {
			specs = specs[:0]
			cls.ForEachTransfer(si, func(tr collective.Transfer) {
				specs = append(specs, optical.TransferSpec{
					Arc:   tr.Arc(topo),
					Bytes: int64(tr.Region.Len) * int64(opts.BytesPerElem),
					Width: tr.Width,
				})
			})
			sr, err = pricer.Price(specs)
			if err != nil {
				return Result{}, fmt.Errorf("runner: step %d (%s): %w", si, cls.StepLabel(si), err)
			}
			if fabric != nil {
				if err := replayRounds(topo, opts.Params, fabric, sr, now); err != nil {
					return Result{}, fmt.Errorf("runner: step %d (%s): %w", si, cls.StepLabel(si), err)
				}
			}
		}
		res.StepSec = append(res.StepSec, sr.Duration)
		res.TotalSec += sr.Duration
		if sr.WavelengthsUsed > res.MaxWavelengths {
			res.MaxWavelengths = sr.WavelengthsUsed
		}
		if sr.Rounds > 1 {
			res.ExtraRounds += sr.Rounds - 1
		}
		if rec.Enabled() {
			nClasses := 0
			if priced {
				lo, hi := cls.ClassBounds(si)
				nClasses = hi - lo
			}
			rec.Span(stepTrack, cls.StepLabel(si), now, sr.Duration, obs.SpanArgs{
				Wavelengths: int64(sr.WavelengthsUsed),
				Transfers:   int64(cls.StepTransfers(si)),
				Classes:     int64(nClasses),
				Rounds:      int64(sr.Rounds),
			})
			rec.Sample(widthTrack, now, float64(sr.WavelengthsUsed))
			if priced {
				rec.Add("pricer.optical.steps.symmetric", 1)
			} else {
				rec.Add("pricer.optical.steps.materialized", 1)
			}
			rec.AddSeconds("pricer.optical.lambda_seconds", float64(sr.WavelengthsUsed)*sr.Duration)
		}
		now += sr.Duration
	}
	rec.Add("pricer.optical.runs", 1)
	return res, nil
}

// RunElectricalClassedObserved prices the classed schedule on the
// non-blocking switched cluster: steps certified as partial permutations are
// priced through the class-level fluid solver (one representative flow per
// class, bit-identical by the symmetry of max-min fairness); every other step
// is materialized and priced by the exact per-flow path. Results are
// bit-identical to RunElectrical on the expanded schedule. A non-nil recorder
// gets a span per step on process proc plus classed-vs-exact flow-solver
// counters (see RunOpticalClassedObserved for the contract).
func RunElectricalClassedObserved(cls *collective.ClassSchedule, opts ElectricalOptions, rec *obs.Recorder, proc string) (Result, error) {
	if err := cls.Validate(); err != nil {
		return Result{}, err
	}
	if opts.BytesPerElem == 0 {
		opts.BytesPerElem = 4
	}
	if opts.BytesPerElem < 1 {
		return Result{}, fmt.Errorf("runner: BytesPerElem %d", opts.BytesPerElem)
	}
	nw, err := electrical.NewSwitchedCluster(cls.N, opts.Params.LinkGbps)
	if err != nil {
		return Result{}, err
	}
	res := Result{
		Algorithm: cls.Algorithm,
		Substrate: nw.Name(),
		StepSec:   make([]float64, 0, cls.NumSteps()),
	}
	solver := electrical.NewSolver(nw)
	var classSolver *electrical.ClassSolver
	var flows []electrical.Flow
	var bits []float64
	stepTrack := obs.NoTrack
	if rec.Enabled() {
		stepTrack = rec.Track(rec.Process(proc), "steps")
	}
	now := 0.0
	for si := 0; si < cls.NumSteps(); si++ {
		var d float64
		classed := false
		if _, _, _, perm, sym := cls.Sym(si); sym && perm {
			classed = true
			bits = bits[:0]
			lo, hi := cls.ClassBounds(si)
			for i := lo; i < hi; i++ {
				c := cls.Class(i)
				if c.Len == 0 {
					continue
				}
				bits = append(bits, float64(c.Len)*float64(opts.BytesPerElem)*8)
			}
			if classSolver == nil {
				classSolver, err = electrical.NewClassSolver(opts.Params.LinkGbps)
				if err != nil {
					return Result{}, err
				}
			}
			d, err = classSolver.StepCost(opts.Params, bits)
		} else {
			flows = flows[:0]
			cls.ForEachTransfer(si, func(tr collective.Transfer) {
				flows = append(flows, electrical.Flow{
					Src: tr.Src, Dst: tr.Dst,
					Bits: float64(tr.Region.Len) * float64(opts.BytesPerElem) * 8,
				})
			})
			d, err = solver.StepCost(opts.Params, flows)
		}
		if err != nil {
			return Result{}, fmt.Errorf("runner: step %d (%s): %w", si, cls.StepLabel(si), err)
		}
		res.StepSec = append(res.StepSec, d)
		res.TotalSec += d
		if rec.Enabled() {
			nClasses := 0
			if classed {
				lo, hi := cls.ClassBounds(si)
				nClasses = hi - lo
			}
			rec.Span(stepTrack, cls.StepLabel(si), now, d, obs.SpanArgs{
				Transfers: int64(cls.StepTransfers(si)),
				Classes:   int64(nClasses),
			})
			if classed {
				rec.Add("pricer.electrical.steps.classed", 1)
			} else {
				rec.Add("pricer.electrical.steps.exact", 1)
			}
		}
		now += d
	}
	rec.Add("pricer.electrical.runs", 1)
	return res, nil
}
