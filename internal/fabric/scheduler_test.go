package fabric

import (
	"fmt"
	"testing"

	"wrht/internal/sim"
	"wrht/internal/stats"
)

// runLite co-simulates jobs through the external-engine Scheduler API with
// aggregate-only stats.
func runLite(t *testing.T, budget int, jobs []Job, pol Policy) Result {
	t.Helper()
	var eng sim.Engine
	sch, err := NewScheduler(&eng, budget, pol, SchedOpts{Lite: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := range jobs {
		if err := sch.Submit(&jobs[i]); err != nil {
			t.Fatal(err)
		}
	}
	eng.Run()
	res, err := sch.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestLiteAggregatesMatchFull pins that Lite mode (no events, no per-job
// stats, recycled records) reproduces the full mode's aggregates exactly,
// and that the full mode's aggregates are, bit for bit, the slice summaries
// of its per-job stats.
func TestLiteAggregatesMatchFull(t *testing.T) {
	mixes := []struct {
		name   string
		budget int
		jobs   []Job
	}{
		{"heavy8", 8, heavyMix()},
		{"churn64", 64, churnLikeMix()},
		{"rand16", 16, randomMix(3, 12, 16)},
	}
	pols := []Policy{
		{Kind: FirstFitShare},
		{Kind: PriorityPreempt},
		{Kind: ElasticReallocate, ReconfigDelaySec: 0.03},
		{Kind: StaticPartition},
	}
	for _, mix := range mixes {
		for _, pol := range pols {
			name := fmt.Sprintf("%s/%s", mix.name, pol.Kind)
			full := mustSimulate(t, mix.budget, mix.jobs, pol)
			lite := runLite(t, mix.budget, mix.jobs, pol)
			if lite.Jobs != nil || lite.Events != nil {
				t.Fatalf("%s: lite result retained per-job state", name)
			}
			if lite.CompletedJobs != full.CompletedJobs ||
				lite.RejectedJobs != full.RejectedJobs ||
				lite.Preemptions != full.Preemptions ||
				lite.Reconfigs != full.Reconfigs ||
				lite.PeakWavelengths != full.PeakWavelengths {
				t.Fatalf("%s: counts diverge:\n  lite %+v\n  full %+v", name, lite, full)
			}
			floats := []struct {
				what string
				l, f float64
			}{
				{"makespan", lite.MakespanSec, full.MakespanSec},
				{"mean queue", lite.MeanQueueSec, full.MeanQueueSec},
				{"max queue", lite.MaxQueueSec, full.MaxQueueSec},
				{"mean slowdown", lite.MeanSlowdown, full.MeanSlowdown},
				{"fairness", lite.Fairness, full.Fairness},
				{"utilization", lite.Utilization, full.Utilization},
				{"slowdown sum", lite.SlowdownSum, full.SlowdownSum},
				{"slowdown sumsq", lite.SlowdownSumSq, full.SlowdownSumSq},
			}
			for _, fl := range floats {
				if !approx(fl.l, fl.f) {
					t.Fatalf("%s: %s diverges: lite %v, full %v", name, fl.what, fl.l, fl.f)
				}
			}
			var queues, slowdowns []float64
			for _, st := range full.Jobs {
				if !st.Rejected && !st.Failed {
					queues = append(queues, st.QueueSec)
					slowdowns = append(slowdowns, st.Slowdown)
				}
			}
			if full.CompletedJobs != len(slowdowns) ||
				full.MeanQueueSec != stats.Mean(queues) ||
				full.MaxQueueSec != stats.Max(queues) ||
				full.MeanSlowdown != stats.Mean(slowdowns) ||
				full.Fairness != stats.JainIndex(slowdowns) {
				t.Fatalf("%s: full aggregates differ from the per-job summaries: %+v", name, full)
			}
		}
	}
}

// TestShapeCurveCache pins that shape-sharing jobs price each (shape,
// width) pair through the runtime function at most once per scheduler, and
// that sharing a shape does not change results.
func TestShapeCurveCache(t *testing.T) {
	calls := map[int]int{}
	shaped := func(w int) (float64, error) {
		calls[w]++
		return 2.0 / float64(w), nil
	}
	var jobs, plain []Job
	for i := 0; i < 6; i++ {
		j := Job{
			Name:           fmt.Sprintf("s%d", i),
			ArrivalSec:     float64(i) * 0.1,
			MaxWavelengths: 4,
			Iterations:     1 + i%3,
		}
		p := j
		j.Shape = 7
		j.Runtime = shaped
		p.Runtime = perfectScaling(2.0)
		jobs = append(jobs, j)
		plain = append(plain, p)
	}
	pol := Policy{Kind: ElasticReallocate, ReconfigDelaySec: 0.01}
	res := mustSimulate(t, 8, jobs, pol)
	for w, n := range calls {
		if n > 1 {
			t.Fatalf("width %d priced %d times despite shared shape", w, n)
		}
	}
	if res.Solver.CurveHits == 0 || res.Solver.CurveBuilds == 0 {
		t.Fatalf("curve cache counters empty: %+v", res.Solver)
	}
	ref := mustSimulate(t, 8, plain, pol)
	for i := range res.Jobs {
		if !approx(res.Jobs[i].DoneSec, ref.Jobs[i].DoneSec) ||
			res.Jobs[i].Width != ref.Jobs[i].Width {
			t.Fatalf("shaped job %q diverges from shape-0 twin: %+v vs %+v",
				res.Jobs[i].Name, res.Jobs[i], ref.Jobs[i])
		}
	}
}

// TestSchedulerSubmitValidation mirrors the historical Simulate validation
// through the incremental Submit path.
func TestSchedulerSubmitValidation(t *testing.T) {
	var eng sim.Engine
	sch, err := NewScheduler(&eng, 8, Policy{Kind: FirstFitShare}, SchedOpts{})
	if err != nil {
		t.Fatal(err)
	}
	ok := Job{Name: "a", Runtime: perfectScaling(1)}
	if err := sch.Submit(&ok); err != nil {
		t.Fatal(err)
	}
	bad := []Job{
		{Name: "a", Runtime: perfectScaling(1)},                 // duplicate
		{Name: "b", ArrivalSec: -1, Runtime: perfectScaling(1)}, // negative arrival
		{Name: "c", MinWavelengths: 4, MaxWavelengths: 2, Runtime: perfectScaling(1)},
		{Name: "d", Iterations: -1, Runtime: perfectScaling(1)},
		{Name: "e"}, // no runtime
	}
	for _, j := range bad {
		if err := sch.Submit(&j); err == nil {
			t.Fatalf("job %q: expected validation error", j.Name)
		}
	}
	if _, err := NewScheduler(&eng, 0, Policy{}, SchedOpts{}); err == nil {
		t.Fatal("budget 0: expected error")
	}
}
