package fabric

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"wrht/internal/faults"
	"wrht/internal/obs"
)

// The incremental tier-indexed elastic solver must be bit-identical to the
// reference from-scratch solver: same event trace, same per-job stats, same
// aggregates, and byte-identical Perfetto exports. These tests are the
// proof obligation for every skip the tier index takes.

// churnLikeMix mirrors report.ChurnMix in-package: a burst of short capped
// jobs fills the pool, then a long uncapped straggler arrives while the
// fabric is full — the canonical departure-heavy elastic scenario.
func churnLikeMix() []Job {
	var jobs []Job
	for i := 0; i < 8; i++ {
		jobs = append(jobs, Job{
			Name:           fmt.Sprintf("burst%d", i),
			ArrivalSec:     float64(i) * 1e-4,
			MaxWavelengths: 8,
			Iterations:     1 + i%3,
			Runtime:        perfectScaling(0.02),
		})
	}
	jobs = append(jobs, Job{
		Name: "straggler", ArrivalSec: 2e-3, Iterations: 2,
		Runtime: perfectScaling(0.4),
	})
	return jobs
}

// tieMix quantizes arrivals and work so that many arrivals and departures
// land on the same simulated instant: the solver coalescing path
// (solvePending) and the due-member exclusion get exercised hard.
func tieMix(seed int64, n, budget int) []Job {
	rng := rand.New(rand.NewSource(seed))
	var jobs []Job
	for i := 0; i < n; i++ {
		min := 1 + rng.Intn(2)
		jobs = append(jobs, Job{
			Name:           fmt.Sprintf("t%02d", i),
			ArrivalSec:     float64(rng.Intn(8)) * 0.25,
			Priority:       rng.Intn(3),
			MinWavelengths: min,
			MaxWavelengths: min + rng.Intn(budget-min+1),
			Iterations:     1 + rng.Intn(2),
			Runtime:        perfectScaling(float64(1+rng.Intn(6)) * 0.5),
		})
	}
	return jobs
}

// stripVolatile zeroes the field the two solvers legitimately differ in:
// the solver-work counters (the whole point of the incremental solver is
// doing less work).
func stripVolatile(r Result) Result {
	r.Solver = SolverStats{}
	return r
}

func assertEquivalent(t *testing.T, name string, budget int, jobs []Job, delay float64) {
	t.Helper()
	pol := Policy{Kind: ElasticReallocate, ReconfigDelaySec: delay}
	inc, err := simulateSolver(false, budget, jobs, pol, faults.Plan{}, SchedOpts{})
	if err != nil {
		t.Fatalf("%s: incremental: %v", name, err)
	}
	full, err := simulateSolver(true, budget, jobs, pol, faults.Plan{}, SchedOpts{})
	if err != nil {
		t.Fatalf("%s: full solve: %v", name, err)
	}
	assertSameResult(t, name, inc, full)
}

// assertSameResult fails unless the incremental and full-solve results
// agree event for event, job for job and in every aggregate.
func assertSameResult(t *testing.T, name string, inc, full Result) {
	t.Helper()
	if !reflect.DeepEqual(inc.Events, full.Events) {
		n := len(inc.Events)
		if len(full.Events) < n {
			n = len(full.Events)
		}
		for i := 0; i < n; i++ {
			if inc.Events[i] != full.Events[i] {
				t.Fatalf("%s: event %d diverges:\n  incremental %+v\n  full        %+v",
					name, i, inc.Events[i], full.Events[i])
			}
		}
		t.Fatalf("%s: event counts diverge: incremental %d, full %d", name, len(inc.Events), len(full.Events))
	}
	if !reflect.DeepEqual(inc.Jobs, full.Jobs) {
		for i := range inc.Jobs {
			if !reflect.DeepEqual(inc.Jobs[i], full.Jobs[i]) {
				t.Fatalf("%s: job %q stats diverge:\n  incremental %+v\n  full        %+v",
					name, inc.Jobs[i].Name, inc.Jobs[i], full.Jobs[i])
			}
		}
	}
	if !reflect.DeepEqual(stripVolatile(inc), stripVolatile(full)) {
		t.Fatalf("%s: aggregates diverge:\n  incremental %+v\n  full        %+v",
			name, stripVolatile(inc), stripVolatile(full))
	}
}

func TestElasticIncrementalMatchesFullSolveChurn(t *testing.T) {
	for _, delay := range []float64{0, 2e-6, 1e-3} {
		assertEquivalent(t, fmt.Sprintf("churn/delay=%g", delay), 64, churnLikeMix(), delay)
	}
}

func TestElasticIncrementalMatchesFullSolveHeavy(t *testing.T) {
	for _, delay := range []float64{0, 0.03, 0.5} {
		assertEquivalent(t, fmt.Sprintf("heavy/delay=%g", delay), 8, heavyMix(), delay)
	}
}

// TestElasticIncrementalMatchesFullSolveProperty is the property test over
// arrival/departure interleavings: seeded random mixes across budgets and
// reconfiguration delays, plus tie-quantized mixes where many arrivals and
// departures collide on the same instant.
func TestElasticIncrementalMatchesFullSolveProperty(t *testing.T) {
	for seed := int64(1); seed <= 15; seed++ {
		for _, budget := range []int{4, 8, 16} {
			for _, delay := range []float64{0, 0.03, 0.5} {
				name := fmt.Sprintf("rand/seed=%d/budget=%d/delay=%g", seed, budget, delay)
				assertEquivalent(t, name, budget, randomMix(seed, 12, budget), delay)
			}
		}
	}
	for seed := int64(1); seed <= 10; seed++ {
		for _, delay := range []float64{0, 0.1} {
			name := fmt.Sprintf("ties/seed=%d/delay=%g", seed, delay)
			assertEquivalent(t, name, 8, tieMix(seed, 14, 8), delay)
		}
	}
}

// deepMix streams jobs into a small fabric far faster than it drains them,
// so the wait queue runs past a hundred jobs: admission takes prefixes off
// a deep sorted queue and enqueue reclaims its front slots many times
// over. Half the jobs share three runtime curves; the rest price privately.
func deepMix(seed int64, n int) []Job {
	rng := rand.New(rand.NewSource(seed))
	shapeWork := []float64{0, 0.5, 1, 2}
	jobs := make([]Job, n)
	at := 0.0
	for i := range jobs {
		at += rng.ExpFloat64() * 0.05
		shape := 0
		if rng.Intn(2) == 0 {
			shape = 1 + rng.Intn(3)
		}
		work := shapeWork[shape]
		if shape == 0 {
			work = 0.2 + 2*rng.Float64()
		}
		minW := 1 + rng.Intn(2)
		jobs[i] = Job{
			Name:               fmt.Sprintf("d%03d", i),
			ArrivalSec:         at,
			Priority:           rng.Intn(4),
			MinWavelengths:     minW,
			MaxWavelengths:     minW + rng.Intn(5),
			Iterations:         1 + rng.Intn(3),
			Shape:              shape,
			CheckpointEverySec: 0.2,
			Runtime:            perfectScaling(work),
		}
	}
	return jobs
}

// maxQueueDepth reads the deepest "queue depth" counter sample from a
// Perfetto export.
func maxQueueDepth(t *testing.T, trace []byte) float64 {
	t.Helper()
	var doc struct {
		TraceEvents []struct {
			Name string
			Ph   string
			Args map[string]any
		}
	}
	if err := json.Unmarshal(trace, &doc); err != nil {
		t.Fatal(err)
	}
	depth := 0.0
	for _, ev := range doc.TraceEvents {
		if v, ok := ev.Args["value"].(float64); ok && ev.Ph == "C" && ev.Name == "queue depth" {
			depth = math.Max(depth, v)
		}
	}
	return depth
}

// TestElasticIncrementalMatchesFullSolveDeepQueue pins the two solvers bit
// for bit, Perfetto bytes included, on mixes whose wait queue reaches a
// depth of 100 or more, with no faults and with wavelength and job faults.
func TestElasticIncrementalMatchesFullSolveDeepQueue(t *testing.T) {
	const budget = 8
	for seed := int64(1); seed <= 3; seed++ {
		jobs := deepMix(seed, 300)
		span := jobs[len(jobs)-1].ArrivalSec
		faulty := faults.Plan{
			Seed: seed, HorizonSec: 4 * span,
			WavelengthMTBFSec: span / 4, WavelengthMTTRSec: span / 20,
			JobFaultMTBFSec: span / 8,
		}
		for _, plan := range []faults.Plan{{}, faulty} {
			for _, delay := range []float64{0, 0.03} {
				name := fmt.Sprintf("deep/seed=%d/faults=%v/delay=%g", seed, !plan.Empty(), delay)
				run := func(full bool) (Result, []byte) {
					rec := obs.New()
					pol := Policy{Kind: ElasticReallocate, ReconfigDelaySec: delay}
					res, err := simulateSolver(full, budget, jobs, pol, plan, SchedOpts{Rec: rec, Proc: "deep"})
					if err != nil {
						t.Fatalf("%s (full solve %v): %v", name, full, err)
					}
					var buf bytes.Buffer
					if err := rec.WriteTrace(&buf); err != nil {
						t.Fatal(err)
					}
					return res, buf.Bytes()
				}
				inc, incTrace := run(false)
				full, fullTrace := run(true)
				assertSameResult(t, name, inc, full)
				if !bytes.Equal(incTrace, fullTrace) {
					t.Fatalf("%s: perfetto traces diverge: incremental %d bytes, full %d bytes",
						name, len(incTrace), len(fullTrace))
				}
				if d := maxQueueDepth(t, incTrace); d < 100 {
					t.Fatalf("%s: deepest wait queue %v, want >= 100", name, d)
				}
				if !plan.Empty() && inc.Evictions+inc.JobFaults == 0 {
					t.Fatalf("%s: faults did not bite", name)
				}
			}
		}
	}
}

// TestElasticIncrementalPerfettoByteIdentical pins the strongest form of
// equivalence: the flight-recorder export (every span, instant, lane
// segment, and counter sample, in order) is byte-identical between the two
// solvers.
func TestElasticIncrementalPerfettoByteIdentical(t *testing.T) {
	run := func(full bool) []byte {
		rec := obs.New()
		pol := Policy{Kind: ElasticReallocate, ReconfigDelaySec: 2e-6}
		if _, err := simulateSolver(full, 64, churnLikeMix(), pol, faults.Plan{}, SchedOpts{Rec: rec, Proc: "equiv"}); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := rec.WriteTrace(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	inc, full := run(false), run(true)
	if !bytes.Equal(inc, full) {
		t.Fatalf("perfetto traces diverge: incremental %d bytes, full %d bytes", len(inc), len(full))
	}
}

// TestElasticIncrementalSkipsTiers guards the point of the refactor: on a
// churn-heavy mix with several priority tiers, the incremental solver must
// actually skip tiers (not just match the full solver by filling
// everything every time).
func TestElasticIncrementalSkipsTiers(t *testing.T) {
	var jobs []Job
	for i := 0; i < 12; i++ {
		jobs = append(jobs, Job{
			Name:           fmt.Sprintf("p%d", i),
			ArrivalSec:     float64(i) * 0.3,
			Priority:       i % 3,
			MinWavelengths: 1,
			MaxWavelengths: 4,
			Iterations:     1 + i%2,
			Runtime:        perfectScaling(4),
		})
	}
	res, err := Simulate(16, jobs, Policy{Kind: ElasticReallocate}, faults.Plan{}, SchedOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Solver.Solves == 0 {
		t.Fatal("no solves recorded")
	}
	if res.Solver.TiersSkipped == 0 {
		t.Fatalf("incremental solver never skipped a tier: %+v", res.Solver)
	}
	if res.Solver.JobsRepriced == 0 || res.Solver.TiersTouched == 0 {
		t.Fatalf("solver work counters empty: %+v", res.Solver)
	}
}
