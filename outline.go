package wrht

import (
	"fmt"

	"wrht/internal/collective"
	"wrht/internal/optical"
	"wrht/internal/ring"
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
// size and returns a per-step outline. Each step's seconds, wavelength count
// and arcs come from one First-Fit optical.StepPricer call, the pricing that
// CommunicationTime charges.
func ScheduleOutline(cfg Config, alg Algorithm, bytes int64) ([]StepOutline, error) {
	b, err := lowerBuffer(cfg, alg, bytes, nil)
	if err != nil {
		return nil, err
	}
	cls := b.cls
	defer cls.Release() // session-free: the transient schedule is ours to recycle
	topo, err := ring.New(cfg.Nodes)
	if err != nil {
		return nil, err
	}
	pricer, err := optical.NewStepPricer(topo, cfg.Optical, wdm.FirstFit, defaultWidth(cfg, alg))
	if err != nil {
		return nil, err
	}

	out := make([]StepOutline, 0, cls.NumSteps())
	var specs []optical.TransferSpec
	for si := 0; si < cls.NumSteps(); si++ {
		specs = specs[:0]
		cls.ForEachTransfer(si, func(tr collective.Transfer) {
			specs = append(specs, optical.TransferSpec{
				Arc:   tr.Arc(topo),
				Bytes: int64(tr.Region.Len) * int64(cfg.BytesPerElem),
				Width: tr.Width,
			})
		})
		sr, err := pricer.Price(specs)
		if err != nil {
			return nil, fmt.Errorf("wrht: step %d (%s): %w", si, cls.StepLabel(si), err)
		}
		o := StepOutline{
			Index:       si + 1,
			Label:       cls.StepLabel(si),
			Transfers:   cls.StepTransfers(si),
			Wavelengths: sr.WavelengthsUsed,
			Seconds:     sr.Duration,
		}
		for _, tr := range sr.Active[:min(len(sr.Active), 64)] {
			o.Arcs = append(o.Arcs, fmt.Sprintf("%d->%d[x%d]", tr.Arc.Src, tr.Arc.Dst, tr.Width))
		}
		out = append(out, o)
	}
	return out, nil
}
