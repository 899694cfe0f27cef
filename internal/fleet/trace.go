package fleet

import (
	"fmt"
	"math"
	"math/rand"
)

// Trace kinds for TraceSpec.Kind.
const (
	// Poisson (the default) draws i.i.d. exponential inter-arrival gaps
	// with mean MeanGapSec.
	Poisson = "poisson"
	// Diurnal modulates the Poisson rate sinusoidally with period
	// PeriodSec and relative amplitude Amplitude (day/night load swing).
	Diurnal = "diurnal"
	// HeavyTail draws Pareto(alpha=TailAlpha) gaps with mean MeanGapSec
	// and, with probability BurstProb per arrival, lands BurstSize jobs on
	// the same instant (correlated burst arrivals).
	HeavyTail = "heavy-tail"
)

// MaxTraceJobs bounds generated trace length: traces materialize as a
// slice before simulation, so an absurd count would allocate gigabytes
// instead of erroring.
const MaxTraceJobs = 1_000_000

// TraceSpec parameterizes a seeded synthetic arrival trace. Generation is
// fully deterministic in the spec: the same spec yields the byte-identical
// job slice regardless of GOMAXPROCS or call site.
type TraceSpec struct {
	// Kind is Poisson (default), Diurnal or HeavyTail.
	Kind string
	// Jobs is the trace length (10^5-10^6 is the intended regime).
	Jobs int
	Seed int64
	// MeanGapSec is the mean inter-arrival gap. Must be > 0 and finite.
	MeanGapSec float64
	// NumShapes is how many distinct workload shapes the trace draws from
	// (shared runtime curves — keep small relative to Jobs). Must be >= 1.
	NumShapes int
	// NumFabrics bounds the affinity draw: each job gets a home fabric in
	// [0, NumFabrics). Must be >= 1.
	NumFabrics int
	// MaxWidth bounds each job's MaxWavelengths draw (default 8).
	MaxWidth int
	// Priorities is the number of priority levels (default 3).
	Priorities int
	// PeriodSec is the diurnal period (Diurnal only; default 86400).
	PeriodSec float64
	// Amplitude is the relative diurnal swing in [0, 1) (Diurnal only;
	// default 0.8).
	Amplitude float64
	// TailAlpha is the Pareto shape (HeavyTail only; must be > 1 so the
	// mean exists; default 1.5).
	TailAlpha float64
	// BurstProb is the per-arrival probability of a burst (HeavyTail
	// only; default 0.05).
	BurstProb float64
	// BurstSize is the number of jobs sharing a burst instant (HeavyTail
	// only; default 8).
	BurstSize int
}

// withDefaults fills zero-valued optional fields.
func (s TraceSpec) withDefaults() TraceSpec {
	if s.Kind == "" {
		s.Kind = Poisson
	}
	if s.MaxWidth == 0 {
		s.MaxWidth = 8
	}
	if s.Priorities == 0 {
		s.Priorities = 3
	}
	if s.PeriodSec == 0 {
		s.PeriodSec = 86400
	}
	if s.Amplitude == 0 {
		s.Amplitude = 0.8
	}
	if s.TailAlpha == 0 {
		s.TailAlpha = 1.5
	}
	if s.BurstProb == 0 {
		s.BurstProb = 0.05
	}
	if s.BurstSize == 0 {
		s.BurstSize = 8
	}
	return s
}

// Validate rejects unusable specs with field-naming errors, mirroring
// FabricSpec.Validate. It validates the spec as Gen will see it, i.e.
// after defaults.
func (s TraceSpec) Validate() error {
	s = s.withDefaults()
	switch s.Kind {
	case Poisson, Diurnal, HeavyTail:
	default:
		return fmt.Errorf("fleet: unknown trace kind %q", s.Kind)
	}
	if s.Jobs < 1 {
		return fmt.Errorf("fleet: trace job count %d (need >= 1)", s.Jobs)
	}
	if s.Jobs > MaxTraceJobs {
		return fmt.Errorf("fleet: trace job count %d (max %d)", s.Jobs, MaxTraceJobs)
	}
	if s.MeanGapSec <= 0 || math.IsNaN(s.MeanGapSec) || math.IsInf(s.MeanGapSec, 0) {
		return fmt.Errorf("fleet: trace mean gap %v (need > 0)", s.MeanGapSec)
	}
	if s.NumShapes < 1 {
		return fmt.Errorf("fleet: trace shape count %d (need >= 1)", s.NumShapes)
	}
	if s.NumFabrics < 1 {
		return fmt.Errorf("fleet: trace fabric count %d (need >= 1)", s.NumFabrics)
	}
	if s.MaxWidth < 1 {
		return fmt.Errorf("fleet: trace max width %d (need >= 1)", s.MaxWidth)
	}
	if s.Priorities < 1 {
		return fmt.Errorf("fleet: trace priority count %d (need >= 1)", s.Priorities)
	}
	if s.PeriodSec <= 0 || math.IsNaN(s.PeriodSec) || math.IsInf(s.PeriodSec, 0) {
		return fmt.Errorf("fleet: trace diurnal period %v (need > 0)", s.PeriodSec)
	}
	if s.Amplitude < 0 || s.Amplitude >= 1 || math.IsNaN(s.Amplitude) {
		return fmt.Errorf("fleet: trace diurnal amplitude %v (need [0, 1))", s.Amplitude)
	}
	if s.TailAlpha <= 1 || math.IsNaN(s.TailAlpha) || math.IsInf(s.TailAlpha, 0) {
		return fmt.Errorf("fleet: trace tail alpha %v (need > 1)", s.TailAlpha)
	}
	if s.BurstProb < 0 || s.BurstProb > 1 || math.IsNaN(s.BurstProb) {
		return fmt.Errorf("fleet: trace burst probability %v (need [0, 1])", s.BurstProb)
	}
	if s.BurstSize < 1 {
		return fmt.Errorf("fleet: trace burst size %d (need >= 1)", s.BurstSize)
	}
	return nil
}

// Gen generates the trace. Job names are left empty (Simulate fills them
// only in full-stats mode), affinities are drawn in [0, NumFabrics), and
// shapes in [0, NumShapes).
func (s TraceSpec) Gen() ([]Job, error) {
	s = s.withDefaults()
	if err := s.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(s.Seed))
	jobs := make([]Job, 0, s.Jobs)
	t := 0.0
	// Pareto gaps with mean MeanGapSec: xm * alpha/(alpha-1) = mean.
	xm := s.MeanGapSec * (s.TailAlpha - 1) / s.TailAlpha
	for len(jobs) < s.Jobs {
		switch s.Kind {
		case Poisson:
			t += rng.ExpFloat64() * s.MeanGapSec
		case Diurnal:
			rate := 1 + s.Amplitude*math.Sin(2*math.Pi*t/s.PeriodSec)
			t += rng.ExpFloat64() * s.MeanGapSec / rate
		case HeavyTail:
			// 1-u keeps the draw in (0, 1] so the power never divides by
			// zero.
			t += xm / math.Pow(1-rng.Float64(), 1/s.TailAlpha)
		}
		n := 1
		if s.Kind == HeavyTail && rng.Float64() < s.BurstProb {
			n = s.BurstSize
		}
		for ; n > 0 && len(jobs) < s.Jobs; n-- {
			jobs = append(jobs, Job{
				ArrivalSec:     t,
				Priority:       rng.Intn(s.Priorities),
				MinWavelengths: 1,
				MaxWavelengths: 1 + rng.Intn(s.MaxWidth),
				Iterations:     1 + rng.Intn(3),
				Shape:          rng.Intn(s.NumShapes),
				Affinity:       rng.Intn(s.NumFabrics),
			})
		}
	}
	return jobs, nil
}
