package fleet

import (
	"math"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
)

func TestTraceSpecValidation(t *testing.T) {
	ok := TraceSpec{Kind: Poisson, Jobs: 10, MeanGapSec: 1, NumShapes: 2, NumFabrics: 2}
	if err := ok.Validate(); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		mutate func(*TraceSpec)
		want   string
	}{
		{"bad kind", func(s *TraceSpec) { s.Kind = "uniform" }, "trace kind"},
		{"zero jobs", func(s *TraceSpec) { s.Jobs = 0 }, "job count"},
		{"negative gap", func(s *TraceSpec) { s.MeanGapSec = -1 }, "mean gap"},
		{"nan gap", func(s *TraceSpec) { s.MeanGapSec = math.NaN() }, "mean gap"},
		{"zero shapes", func(s *TraceSpec) { s.NumShapes = 0 }, "shape count"},
		{"zero fabrics", func(s *TraceSpec) { s.NumFabrics = 0 }, "fabric count"},
		{"negative width", func(s *TraceSpec) { s.MaxWidth = -1 }, "max width"},
		{"negative priorities", func(s *TraceSpec) { s.Priorities = -1 }, "priority count"},
		{"negative period", func(s *TraceSpec) { s.PeriodSec = -1 }, "diurnal period"},
		{"amplitude one", func(s *TraceSpec) { s.Amplitude = 1 }, "diurnal amplitude"},
		{"alpha one", func(s *TraceSpec) { s.TailAlpha = 1 }, "tail alpha"},
		{"burst prob", func(s *TraceSpec) { s.BurstProb = 1.5 }, "burst probability"},
		{"burst size", func(s *TraceSpec) { s.BurstSize = -1 }, "burst size"},
	}
	for _, c := range cases {
		s := ok
		c.mutate(&s)
		err := s.Validate()
		if err == nil {
			t.Fatalf("%s: expected error", c.name)
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Fatalf("%s: error %q does not mention %q", c.name, err, c.want)
		}
		if _, err := s.Gen(); err == nil {
			t.Fatalf("%s: Gen accepted an invalid spec", c.name)
		}
	}
}

// TestTraceDeterministicBySeed pins that the same spec regenerates the
// identical trace, that different seeds differ, and that generation is
// byte-stable under concurrency (no hidden global randomness or
// GOMAXPROCS dependence).
func TestTraceDeterministicBySeed(t *testing.T) {
	spec := TraceSpec{
		Kind: HeavyTail, Jobs: 2000, Seed: 7, MeanGapSec: 0.05,
		NumShapes: 5, NumFabrics: 4,
	}
	ref, err := spec.Gen()
	if err != nil {
		t.Fatal(err)
	}
	workers := 2 * runtime.GOMAXPROCS(0)
	got := make([][]Job, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i], _ = spec.Gen()
		}(i)
	}
	wg.Wait()
	for i, g := range got {
		if !reflect.DeepEqual(g, ref) {
			t.Fatalf("worker %d: concurrent regeneration diverged", i)
		}
	}
	other := spec
	other.Seed = 8
	alt, err := other.Gen()
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(alt, ref) {
		t.Fatal("different seeds produced the identical trace")
	}
	for i, j := range ref {
		if j.Shape < 0 || j.Shape >= spec.NumShapes ||
			j.Affinity < 0 || j.Affinity >= spec.NumFabrics ||
			j.MaxWavelengths < 1 || j.MaxWavelengths > 8 ||
			j.ArrivalSec < 0 {
			t.Fatalf("job %d out of spec bounds: %+v", i, j)
		}
		if i > 0 && j.ArrivalSec < ref[i-1].ArrivalSec {
			t.Fatalf("job %d arrivals not monotone: %v after %v", i, j.ArrivalSec, ref[i-1].ArrivalSec)
		}
	}
}

// gaps returns the positive inter-arrival gaps of a trace (zero gaps are
// burst co-arrivals).
func gaps(jobs []Job) (pos []float64, zeros int) {
	for i := 1; i < len(jobs); i++ {
		g := jobs[i].ArrivalSec - jobs[i-1].ArrivalSec
		if g == 0 {
			zeros++
		} else {
			pos = append(pos, g)
		}
	}
	return pos, zeros
}

// TestTracePoissonMeanGap pins the generated mean inter-arrival gap to the
// spec within 5% on a 20k-job trace (the standard error of the mean is
// ~0.7%).
func TestTracePoissonMeanGap(t *testing.T) {
	const mean = 0.04
	jobs, err := TraceSpec{
		Kind: Poisson, Jobs: 20000, Seed: 11, MeanGapSec: mean,
		NumShapes: 3, NumFabrics: 4,
	}.Gen()
	if err != nil {
		t.Fatal(err)
	}
	pos, zeros := gaps(jobs)
	if zeros != 0 {
		t.Fatalf("poisson trace produced %d zero gaps", zeros)
	}
	sum := 0.0
	for _, g := range pos {
		sum += g
	}
	got := sum / float64(len(pos))
	if math.Abs(got-mean)/mean > 0.05 {
		t.Fatalf("poisson mean gap %v, want %v within 5%%", got, mean)
	}
}

// TestTraceHeavyTailMass pins the two defining features of the bursty
// trace: burst co-arrivals (zero gaps) and a Pareto tail heavier than the
// exponential (far more >5x-mean gaps than a Poisson trace would show),
// with every gap at least the Pareto scale xm.
func TestTraceHeavyTailMass(t *testing.T) {
	const mean, alpha = 0.05, 1.5
	jobs, err := TraceSpec{
		Kind: HeavyTail, Jobs: 20000, Seed: 13, MeanGapSec: mean,
		NumShapes: 3, NumFabrics: 4, TailAlpha: alpha,
	}.Gen()
	if err != nil {
		t.Fatal(err)
	}
	pos, zeros := gaps(jobs)
	if zeros == 0 {
		t.Fatal("heavy-tail trace produced no burst co-arrivals")
	}
	xm := mean * (alpha - 1) / alpha
	tail := 0
	for _, g := range pos {
		if g < xm*(1-1e-12) {
			t.Fatalf("gap %v below the Pareto scale %v", g, xm)
		}
		if g > 5*mean {
			tail++
		}
	}
	// Pareto(1.5): P(gap > 5*mean) = (xm/(5*mean))^1.5 ~= 1.7%;
	// exponential: e^-5 ~= 0.67%. Split the difference as the floor.
	if frac := float64(tail) / float64(len(pos)); frac < 0.012 {
		t.Fatalf("tail mass %v: heavy-tail gaps are not heavy (want > 1.2%% beyond 5x mean)", frac)
	}
}

// TestTraceDiurnalModulation pins that the diurnal trace is denser in the
// high-rate half-period than the low-rate half.
func TestTraceDiurnalModulation(t *testing.T) {
	const period = 10.0
	jobs, err := TraceSpec{
		Kind: Diurnal, Jobs: 20000, Seed: 17, MeanGapSec: 0.01,
		NumShapes: 3, NumFabrics: 4, PeriodSec: period, Amplitude: 0.8,
	}.Gen()
	if err != nil {
		t.Fatal(err)
	}
	high, low := 0, 0
	for _, j := range jobs {
		if math.Mod(j.ArrivalSec, period) < period/2 {
			high++
		} else {
			low++
		}
	}
	if float64(high) < 1.5*float64(low) {
		t.Fatalf("diurnal modulation too weak: %d high-phase vs %d low-phase arrivals", high, low)
	}
}
