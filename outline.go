package wrht

import (
	"fmt"

	"wrht/internal/collective"
	"wrht/internal/ring"
	"wrht/internal/runner"
	"wrht/internal/wdm"
)

// StepOutline describes one synchronous step of a schedule for inspection
// and visualization (examples/schedule_inspect renders the paper's Figure 1
// from it).
type StepOutline struct {
	Index     int
	Label     string
	Transfers int
	// Wavelengths is the number of distinct wavelengths a First-Fit
	// assignment uses for this step on the optical ring.
	Wavelengths int
	// Arcs lists each transfer as "src->dst[xWidth]" (capped at 64 entries).
	Arcs []string
	// Seconds is the simulated duration of this step for the given buffer.
	Seconds float64
}

// ScheduleOutline builds the algorithm's schedule for a buffer of the given
// size and returns a per-step outline, including per-step optical timings
// and wavelength counts.
func ScheduleOutline(cfg Config, alg Algorithm, bytes int64) ([]StepOutline, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if bytes <= 0 {
		return nil, fmt.Errorf("wrht: non-positive buffer size %d", bytes)
	}
	elems := int((bytes + int64(cfg.BytesPerElem) - 1) / int64(cfg.BytesPerElem))
	cls, _, _, err := buildClassSchedule(cfg, alg, elems, nil)
	if err != nil {
		return nil, err
	}
	defer cls.Release() // session-free: the transient schedule is ours to recycle
	topo, err := ring.New(cfg.Nodes)
	if err != nil {
		return nil, err
	}

	opts := runner.DefaultOpticalOptions()
	opts.Params = cfg.Optical
	opts.BytesPerElem = cfg.BytesPerElem
	if alg == AlgORingStriped {
		opts.DefaultWidth = cfg.Optical.Wavelengths
	}
	res, err := runner.RunOpticalClassedObserved(cls, opts, nil, "")
	if err != nil {
		return nil, err
	}

	out := make([]StepOutline, 0, cls.NumSteps())
	var demands []wdm.Demand
	for si := 0; si < cls.NumSteps(); si++ {
		o := StepOutline{
			Index:     si + 1,
			Label:     cls.StepLabel(si),
			Transfers: cls.StepTransfers(si),
			Seconds:   res.StepSec[si],
		}
		demands = demands[:0]
		cls.ForEachTransfer(si, func(tr collective.Transfer) {
			if tr.Region.Len == 0 {
				return
			}
			arc := ring.Arc{Src: tr.Src, Dst: tr.Dst, Dir: tr.Dir}
			if !tr.Routed {
				arc = topo.ShortestArc(tr.Src, tr.Dst)
			}
			width := tr.Width
			if width < 1 {
				width = opts.DefaultWidth
			}
			if width > cfg.Optical.Wavelengths {
				width = cfg.Optical.Wavelengths
			}
			demands = append(demands, wdm.Demand{Arc: arc, Width: width})
			if len(o.Arcs) < 64 {
				o.Arcs = append(o.Arcs, fmt.Sprintf("%d->%d[x%d]", tr.Src, tr.Dst, width))
			}
		})
		if len(demands) > 0 {
			rounds, err := wdm.Rounds(topo, demands, cfg.Optical.Wavelengths, wdm.FirstFit, wdm.AsGiven)
			if err != nil {
				return nil, err
			}
			for _, rd := range rounds {
				if rd.Assignment.NumColors > o.Wavelengths {
					o.Wavelengths = rd.Assignment.NumColors
				}
			}
		}
		out = append(out, o)
	}
	return out, nil
}
