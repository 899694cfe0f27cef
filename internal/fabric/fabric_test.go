package fabric

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"wrht/internal/faults"
)

// perfectScaling returns a Runtime pricing `work` wavelength-seconds with
// ideal speedup: runtime(w) = work/w. It makes expected times exact.
func perfectScaling(work float64) func(int) (float64, error) {
	return func(w int) (float64, error) { return work / float64(w), nil }
}

func approx(a, b float64) bool { return math.Abs(a-b) <= 1e-9*(1+math.Abs(b)) }

func mustSimulate(t *testing.T, budget int, jobs []Job, pol Policy) Result {
	t.Helper()
	res, err := Simulate(budget, jobs, pol, faults.Plan{}, SchedOpts{})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func jobByName(t *testing.T, res Result, name string) JobStats {
	t.Helper()
	for _, j := range res.Jobs {
		if j.Name == name {
			return j
		}
	}
	t.Fatalf("no job %q in result", name)
	return JobStats{}
}

func TestSingleJobGetsWholeBudget(t *testing.T) {
	for _, pol := range []Policy{{Kind: FirstFitShare}, {Kind: PriorityPreempt}} {
		res := mustSimulate(t, 8, []Job{{Name: "a", Runtime: perfectScaling(8)}}, pol)
		a := jobByName(t, res, "a")
		if a.Width != 8 || a.QueueSec != 0 || !approx(a.DoneSec, 1.0) {
			t.Fatalf("%v: %+v", pol.Kind, a)
		}
		if !approx(a.Slowdown, 1.0) || !approx(res.Utilization, 1.0) {
			t.Fatalf("%v: slowdown %v utilization %v", pol.Kind, a.Slowdown, res.Utilization)
		}
	}
}

func TestStaticPartitionShares(t *testing.T) {
	// Budget 8 split 4 ways: each tenant gets exactly 2 wavelengths.
	jobs := []Job{
		{Name: "a", Runtime: perfectScaling(2)},
		{Name: "b", Runtime: perfectScaling(2)},
		{Name: "c", Runtime: perfectScaling(2)},
	}
	res := mustSimulate(t, 8, jobs, Policy{Kind: StaticPartition, Partitions: 4})
	for _, name := range []string{"a", "b", "c"} {
		j := jobByName(t, res, name)
		if j.Width != 2 || j.QueueSec != 0 || !approx(j.DoneSec, 1.0) {
			t.Fatalf("%s: %+v", name, j)
		}
	}
	if res.PeakWavelengths != 6 {
		t.Fatalf("peak %d, want 6", res.PeakWavelengths)
	}
}

func TestStaticPartitionQueues(t *testing.T) {
	// Five equal jobs on four shares: the fifth waits for the first finisher.
	var jobs []Job
	for _, n := range []string{"a", "b", "c", "d", "e"} {
		jobs = append(jobs, Job{Name: n, Runtime: perfectScaling(2)})
	}
	res := mustSimulate(t, 8, jobs, Policy{Kind: StaticPartition, Partitions: 4})
	e := jobByName(t, res, "e")
	if !approx(e.QueueSec, 1.0) || !approx(e.DoneSec, 2.0) {
		t.Fatalf("queued job: %+v", e)
	}
	if !approx(res.MaxQueueSec, 1.0) || !approx(res.MakespanSec, 2.0) {
		t.Fatalf("aggregates: %+v", res)
	}
}

func TestStaticPartitionRespectsMaxWavelengths(t *testing.T) {
	// Shares are 2 wide but the job only accepts 1 wavelength: it must run
	// at width 1 (the share's second wavelength stays dark), and it still
	// occupies a whole tenant share.
	jobs := []Job{
		{Name: "narrow", MaxWavelengths: 1, Runtime: perfectScaling(2)},
	}
	res := mustSimulate(t, 8, jobs, Policy{Kind: StaticPartition, Partitions: 4})
	j := jobByName(t, res, "narrow")
	if j.Width != 1 || !approx(j.DoneSec, 2.0) {
		t.Fatalf("narrow job: %+v", j)
	}
}

func TestStaticPartitionCapsTenants(t *testing.T) {
	// Five width-1 tenants on four shares: even though wavelengths remain
	// free, static isolation admits at most Partitions concurrent tenants.
	var jobs []Job
	for _, n := range []string{"a", "b", "c", "d", "e"} {
		jobs = append(jobs, Job{Name: n, MaxWavelengths: 1, Runtime: perfectScaling(1)})
	}
	res := mustSimulate(t, 8, jobs, Policy{Kind: StaticPartition, Partitions: 4})
	if res.PeakWavelengths != 4 {
		t.Fatalf("peak %d, want 4 (one per share)", res.PeakWavelengths)
	}
	e := jobByName(t, res, "e")
	if !approx(e.QueueSec, 1.0) {
		t.Fatalf("fifth tenant should wait for a share: %+v", e)
	}
}

func TestStaticPartitionDefaultClampsToSmallBudget(t *testing.T) {
	// Unset Partitions defaults to 4, clamped to the budget: a 2-wavelength
	// fabric still supports the static policy with two 1-wide shares.
	jobs := []Job{
		{Name: "a", Runtime: perfectScaling(1)},
		{Name: "b", Runtime: perfectScaling(1)},
		{Name: "c", Runtime: perfectScaling(1)},
	}
	res := mustSimulate(t, 2, jobs, Policy{Kind: StaticPartition})
	a, c := jobByName(t, res, "a"), jobByName(t, res, "c")
	if a.Width != 1 || !approx(a.DoneSec, 1.0) {
		t.Fatalf("a: %+v", a)
	}
	if !approx(c.QueueSec, 1.0) {
		t.Fatalf("third tenant should queue on two shares: %+v", c)
	}
}

func TestAloneSecUsesJobWidthCap(t *testing.T) {
	// A job capped at 2 wavelengths alone on an 8-wavelength fabric is not
	// "slowed down" by its own cap: alone time is priced at its cap.
	res := mustSimulate(t, 8,
		[]Job{{Name: "capped", MaxWavelengths: 2, Runtime: perfectScaling(8)}},
		Policy{Kind: FirstFitShare})
	j := jobByName(t, res, "capped")
	if !approx(j.AloneSec, 4.0) || !approx(j.Slowdown, 1.0) {
		t.Fatalf("capped solo job: alone %v slowdown %v", j.AloneSec, j.Slowdown)
	}
}

func TestFirstFitSharesPool(t *testing.T) {
	// a takes the whole pool; b must wait; when a finishes, b and c start
	// together and split what they ask for.
	jobs := []Job{
		{Name: "a", Runtime: perfectScaling(8)}, // runs 0..1 at width 8
		{Name: "b", ArrivalSec: 0.25, MinWavelengths: 4, Runtime: perfectScaling(8)},
		{Name: "c", ArrivalSec: 0.5, MaxWavelengths: 2, Runtime: perfectScaling(2)},
	}
	res := mustSimulate(t, 8, jobs, Policy{Kind: FirstFitShare})
	b, c := jobByName(t, res, "b"), jobByName(t, res, "c")
	if !approx(b.StartSec, 1.0) || b.Width != 8 {
		t.Fatalf("b: %+v", b)
	}
	// b grabbed everything free at t=1 (its max defaults to the budget), so
	// c waits for b despite asking for only 2 wavelengths.
	if !approx(c.StartSec, 2.0) || c.Width != 2 {
		t.Fatalf("c: %+v", c)
	}
}

func TestFirstFitSmallJobOvertakes(t *testing.T) {
	// a holds 6 of 8; b needs 4 and blocks; c needs 2 and overtakes b.
	jobs := []Job{
		{Name: "a", MaxWavelengths: 6, Runtime: perfectScaling(6)},
		{Name: "b", ArrivalSec: 0.1, MinWavelengths: 4, Runtime: perfectScaling(4)},
		{Name: "c", ArrivalSec: 0.2, MaxWavelengths: 2, Runtime: perfectScaling(1)},
	}
	res := mustSimulate(t, 8, jobs, Policy{Kind: FirstFitShare})
	b, c := jobByName(t, res, "b"), jobByName(t, res, "c")
	if !approx(c.StartSec, 0.2) || c.Width != 2 {
		t.Fatalf("small job should start immediately: %+v", c)
	}
	if !approx(b.StartSec, 1.0) {
		t.Fatalf("wide job should wait for a: %+v", b)
	}
}

func TestPriorityPreemption(t *testing.T) {
	// Low-priority a owns the fabric; high-priority b arrives halfway and
	// needs everything, so a is preempted and resumes pro-rata after b.
	jobs := []Job{
		{Name: "a", Priority: 0, Runtime: perfectScaling(8)},
		{Name: "b", Priority: 1, ArrivalSec: 0.5, MinWavelengths: 8, Runtime: perfectScaling(8)},
	}
	res := mustSimulate(t, 8, jobs, Policy{Kind: PriorityPreempt})
	a, b := jobByName(t, res, "a"), jobByName(t, res, "b")
	if !approx(b.StartSec, 0.5) || !approx(b.QueueSec, 0) || !approx(b.DoneSec, 1.5) {
		t.Fatalf("high priority should run immediately: %+v", b)
	}
	if a.Preemptions != 1 || !approx(a.DoneSec, 2.0) || !approx(a.ServiceSec, 1.0) {
		t.Fatalf("preempted job: %+v", a)
	}
	var kinds []EventKind
	for _, ev := range res.Events {
		if ev.Job == "a" {
			kinds = append(kinds, ev.Kind)
		}
	}
	want := []EventKind{EvArrive, EvStart, EvPreempt, EvResume, EvFinish}
	if !reflect.DeepEqual(kinds, want) {
		t.Fatalf("a's trace %v, want %v", kinds, want)
	}
}

func TestPriorityArrivalAtExactCompletionDoesNotPreempt(t *testing.T) {
	// v's completion is due at exactly t=1.0, the same instant the
	// high-priority job arrives. The arrival event fires first (lower
	// sequence number), but v's finished run must not be discarded as a
	// preemption: v completes at 1.0 and h starts at 1.0.
	jobs := []Job{
		{Name: "v", Priority: 0, Runtime: perfectScaling(8)},
		{Name: "h", Priority: 5, ArrivalSec: 1.0, MinWavelengths: 8, Runtime: perfectScaling(8)},
	}
	res := mustSimulate(t, 8, jobs, Policy{Kind: PriorityPreempt})
	v, h := jobByName(t, res, "v"), jobByName(t, res, "h")
	if v.Preemptions != 0 || !approx(v.DoneSec, 1.0) || !approx(v.Slowdown, 1.0) {
		t.Fatalf("finished job spuriously preempted: %+v", v)
	}
	if !approx(h.StartSec, 1.0) || !approx(h.QueueSec, 0) {
		t.Fatalf("arrival at completion instant should start immediately: %+v", h)
	}
}

func TestPriorityEqualDoesNotPreempt(t *testing.T) {
	jobs := []Job{
		{Name: "a", Priority: 1, Runtime: perfectScaling(8)},
		{Name: "b", Priority: 1, ArrivalSec: 0.5, Runtime: perfectScaling(8)},
	}
	res := mustSimulate(t, 8, jobs, Policy{Kind: PriorityPreempt})
	a, b := jobByName(t, res, "a"), jobByName(t, res, "b")
	if a.Preemptions != 0 || !approx(b.StartSec, 1.0) {
		t.Fatalf("equal priority must not preempt: a=%+v b=%+v", a, b)
	}
}

func TestStaticPartitionDistributesRemainder(t *testing.T) {
	// Budget 10 split 4 ways used to leave 10%4 = 2 wavelengths permanently
	// dark (every share was 10/4 = 2 wide). The remainder is now spread
	// round-robin: shares are 3,3,2,2 — every wavelength belongs to a share.
	jobs := []Job{
		{Name: "a", Runtime: perfectScaling(6)},
		{Name: "b", Runtime: perfectScaling(6)},
		{Name: "c", Runtime: perfectScaling(6)},
		{Name: "d", Runtime: perfectScaling(6)},
	}
	res := mustSimulate(t, 10, jobs, Policy{Kind: StaticPartition, Partitions: 4})
	widths := map[string]int{}
	for _, j := range res.Jobs {
		widths[j.Name] = j.Width
	}
	want := map[string]int{"a": 3, "b": 3, "c": 2, "d": 2}
	if !reflect.DeepEqual(widths, want) {
		t.Fatalf("share widths %v, want %v", widths, want)
	}
	// Old behavior gap (golden): with all shares 2 wide, peak was 8 of 10
	// and every job took 3.0s; now the fabric lights all 10 wavelengths and
	// the two wide-share tenants finish at 2.0s.
	if res.PeakWavelengths != 10 {
		t.Fatalf("peak %d, want 10 (remainder no longer dark)", res.PeakWavelengths)
	}
	if a := jobByName(t, res, "a"); !approx(a.DoneSec, 2.0) {
		t.Fatalf("wide-share tenant: %+v", a)
	}
	if d := jobByName(t, res, "d"); !approx(d.DoneSec, 3.0) {
		t.Fatalf("base-share tenant: %+v", d)
	}
}

func TestStaticPartitionCappedJobTakesNarrowShare(t *testing.T) {
	// Shares are 3,3,2,2. A width-capped job (Max 2) must take a narrow
	// share, leaving the wide remainder shares for tenants that can use
	// them: the min-3 job arriving right after it gets a wide share at once.
	jobs := []Job{
		{Name: "capped", MaxWavelengths: 2, Runtime: perfectScaling(4)},
		{Name: "wide", ArrivalSec: 0.1, MinWavelengths: 3, Runtime: perfectScaling(3)},
	}
	res := mustSimulate(t, 10, jobs, Policy{Kind: StaticPartition, Partitions: 4})
	capped, wide := jobByName(t, res, "capped"), jobByName(t, res, "wide")
	if capped.Width != 2 || !approx(capped.DoneSec, 2.0) {
		t.Fatalf("capped job: %+v", capped)
	}
	if wide.Width != 3 || !approx(wide.StartSec, 0.1) {
		t.Fatalf("wide-minimum job should get a wide share immediately: %+v", wide)
	}
}

func TestStaticPartitionRemainderAdmitsWiderMinimum(t *testing.T) {
	// A job whose minimum exceeds the base share but fits a remainder share
	// used to be rejected outright; now it waits for (or takes) a wide share.
	jobs := []Job{
		{Name: "wide", MinWavelengths: 3, Runtime: perfectScaling(3)},
	}
	res := mustSimulate(t, 10, jobs, Policy{Kind: StaticPartition, Partitions: 4})
	j := jobByName(t, res, "wide")
	if j.Rejected || j.Width != 3 || !approx(j.DoneSec, 1.0) {
		t.Fatalf("wide-minimum tenant on a remainder share: %+v", j)
	}
	// Head-of-line semantics: when both wide shares are busy, a
	// wide-minimum head job waits even though narrow shares sit free.
	mix := []Job{
		{Name: "w1", MinWavelengths: 3, Runtime: perfectScaling(3)},
		{Name: "w2", MinWavelengths: 3, Runtime: perfectScaling(3)},
		{Name: "w3", ArrivalSec: 0.1, MinWavelengths: 3, Runtime: perfectScaling(3)},
	}
	res = mustSimulate(t, 10, mix, Policy{Kind: StaticPartition, Partitions: 4})
	if w3 := jobByName(t, res, "w3"); !approx(w3.StartSec, 1.0) {
		t.Fatalf("third wide tenant should wait for a wide share: %+v", w3)
	}
}

func TestAdmissionControlRejects(t *testing.T) {
	// Static shares are 2 wide; a job demanding 3 can never be placed.
	jobs := []Job{
		{Name: "ok", Runtime: perfectScaling(2)},
		{Name: "wide", MinWavelengths: 3, Runtime: perfectScaling(3)},
	}
	res := mustSimulate(t, 8, jobs, Policy{Kind: StaticPartition, Partitions: 4})
	if res.RejectedJobs != 1 || !jobByName(t, res, "wide").Rejected {
		t.Fatalf("want one rejection: %+v", res)
	}
	if jobByName(t, res, "ok").Rejected {
		t.Fatal("feasible job rejected")
	}
}

func TestAdmissionControlRejectsUnderPooledPolicies(t *testing.T) {
	// A minimum beyond the whole budget rejects that job at arrival; the
	// feasible tenants still run and produce results.
	for _, pol := range []Policy{{Kind: FirstFitShare}, {Kind: PriorityPreempt}} {
		jobs := []Job{
			{Name: "ok", Runtime: perfectScaling(2)},
			{Name: "greedy", MinWavelengths: 9, Runtime: perfectScaling(2)},
		}
		res := mustSimulate(t, 8, jobs, pol)
		if res.RejectedJobs != 1 || !jobByName(t, res, "greedy").Rejected {
			t.Fatalf("%v: want one rejection: %+v", pol.Kind, res)
		}
		if ok := jobByName(t, res, "ok"); ok.Rejected || ok.DoneSec <= 0 {
			t.Fatalf("%v: feasible job did not complete: %+v", pol.Kind, ok)
		}
	}
}

func TestSimulateValidation(t *testing.T) {
	ok := Job{Name: "a", Runtime: perfectScaling(1)}
	cases := []struct {
		name   string
		budget int
		jobs   []Job
		pol    Policy
	}{
		{"zero budget", 0, []Job{ok}, Policy{Kind: FirstFitShare}},
		{"no jobs", 8, nil, Policy{Kind: FirstFitShare}},
		{"bad policy kind", 8, []Job{ok}, Policy{Kind: PolicyKind(99)}},
		{"too many partitions", 8, []Job{ok}, Policy{Kind: StaticPartition, Partitions: 9}},
		{"negative partitions", 8, []Job{ok}, Policy{Kind: StaticPartition, Partitions: -1}},
		{"duplicate names", 8, []Job{ok, ok}, Policy{Kind: FirstFitShare}},
		{"negative arrival", 8, []Job{{Name: "a", ArrivalSec: -1, Runtime: perfectScaling(1)}}, Policy{Kind: FirstFitShare}},
		{"NaN arrival", 8, []Job{{Name: "a", ArrivalSec: math.NaN(), Runtime: perfectScaling(1)}}, Policy{Kind: FirstFitShare}},
		{"inverted range", 8, []Job{{Name: "a", MinWavelengths: 4, MaxWavelengths: 2, Runtime: perfectScaling(1)}}, Policy{Kind: FirstFitShare}},
		{"negative iterations", 8, []Job{{Name: "a", Iterations: -1, Runtime: perfectScaling(1)}}, Policy{Kind: FirstFitShare}},
		{"nil runtime", 8, []Job{{Name: "a"}}, Policy{Kind: FirstFitShare}},
		{"all rejected", 8, []Job{{Name: "a", MinWavelengths: 5, Runtime: perfectScaling(1)}}, Policy{Kind: StaticPartition}},
	}
	for _, tc := range cases {
		if _, err := Simulate(tc.budget, tc.jobs, tc.pol, faults.Plan{}, SchedOpts{}); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

func TestRuntimeErrorsPropagate(t *testing.T) {
	bad := func(w int) (float64, error) { return 0, errTest }
	if _, err := Simulate(8, []Job{{Name: "a", Runtime: bad}}, Policy{Kind: FirstFitShare}, faults.Plan{}, SchedOpts{}); err == nil {
		t.Fatal("runtime error swallowed")
	}
	negative := func(w int) (float64, error) { return -1, nil }
	if _, err := Simulate(8, []Job{{Name: "a", Runtime: negative}}, Policy{Kind: FirstFitShare}, faults.Plan{}, SchedOpts{}); err == nil {
		t.Fatal("non-positive runtime accepted")
	}
}

var errTest = &testError{}

type testError struct{}

func (*testError) Error() string { return "synthetic runtime failure" }

// heavyMix is a deterministic 9-job heterogeneous workload used by the
// property tests below.
func heavyMix() []Job {
	var jobs []Job
	works := []float64{8, 2, 16, 4, 1, 12, 3, 6, 2}
	for i, w := range works {
		jobs = append(jobs, Job{
			Name:           "j" + string(rune('0'+i)),
			ArrivalSec:     float64(i) * 0.15,
			Priority:       i % 3,
			MinWavelengths: 1 + i%2,
			MaxWavelengths: 2 + (i*3)%7,
			Iterations:     1 + i%2,
			Runtime:        perfectScaling(w),
		})
	}
	return jobs
}

// TestBudgetNeverExceeded replays the event trace and checks the core
// physical invariant: the sum of allocated wavelengths never exceeds the
// budget, and PeakWavelengths reports the true maximum.
func TestBudgetNeverExceeded(t *testing.T) {
	for _, pol := range []Policy{
		{Kind: StaticPartition, Partitions: 4},
		{Kind: FirstFitShare},
		{Kind: PriorityPreempt},
		{Kind: ElasticReallocate},
		{Kind: ElasticReallocate, ReconfigDelaySec: 0.05},
	} {
		const budget = 8
		res := mustSimulate(t, budget, heavyMix(), pol)
		held := map[string]int{}
		total, peak := 0, 0
		for _, ev := range res.Events {
			switch ev.Kind {
			case EvStart, EvResume:
				if held[ev.Job] != 0 {
					t.Fatalf("%v: %s started while holding %d wavelengths", pol.Kind, ev.Job, held[ev.Job])
				}
				held[ev.Job] = ev.Wavelengths
				total += ev.Wavelengths
			case EvReconfig:
				if held[ev.Job] == 0 {
					t.Fatalf("%v: %s reconfigured while not running", pol.Kind, ev.Job)
				}
				total += ev.Wavelengths - held[ev.Job]
				held[ev.Job] = ev.Wavelengths
			case EvPreempt, EvFinish:
				total -= held[ev.Job]
				held[ev.Job] = 0
			}
			if total > budget || total < 0 {
				t.Fatalf("%v: %d wavelengths allocated at t=%v (budget %d)", pol.Kind, total, ev.TimeSec, budget)
			}
			if total > peak {
				peak = total
			}
		}
		if total != 0 {
			t.Fatalf("%v: %d wavelengths still held at end", pol.Kind, total)
		}
		if peak != res.PeakWavelengths {
			t.Fatalf("%v: replayed peak %d, reported %d", pol.Kind, peak, res.PeakWavelengths)
		}
		if res.Utilization <= 0 || res.Utilization > 1 {
			t.Fatalf("%v: utilization %v", pol.Kind, res.Utilization)
		}
		if res.Fairness <= 0 || res.Fairness > 1 {
			t.Fatalf("%v: fairness %v", pol.Kind, res.Fairness)
		}
		for _, j := range res.Jobs {
			if j.Rejected {
				continue
			}
			if j.Slowdown < 1-1e-9 {
				t.Fatalf("%v: job %s finished faster than alone (slowdown %v)", pol.Kind, j.Name, j.Slowdown)
			}
			if j.QueueSec < 0 || j.ServiceSec <= 0 || j.DoneSec < j.StartSec {
				t.Fatalf("%v: inconsistent stats %+v", pol.Kind, j)
			}
		}
	}
}

// TestWorkConservation checks that under perfect scaling, every job receives
// exactly its work in wavelength-seconds across all run segments, even
// through preemptions (priority) and mid-flight stripe changes (elastic at
// zero settling delay — a nonzero delay adds stall wavelength-seconds on
// top of the work by design).
func TestWorkConservation(t *testing.T) {
	for _, pol := range []Policy{{Kind: PriorityPreempt}, {Kind: ElasticReallocate}} {
		jobs := heavyMix()
		want := map[string]float64{}
		for i, w := range []float64{8, 2, 16, 4, 1, 12, 3, 6, 2} {
			want[jobs[i].Name] = w * float64(jobs[i].Iterations)
		}
		res := mustSimulate(t, 8, jobs, pol)
		got := map[string]float64{}
		holdW := map[string]int{}
		holdT := map[string]float64{}
		for _, ev := range res.Events {
			switch ev.Kind {
			case EvStart, EvResume:
				holdW[ev.Job] = ev.Wavelengths
				holdT[ev.Job] = ev.TimeSec
			case EvReconfig:
				got[ev.Job] += float64(holdW[ev.Job]) * (ev.TimeSec - holdT[ev.Job])
				holdW[ev.Job] = ev.Wavelengths
				holdT[ev.Job] = ev.TimeSec
			case EvPreempt, EvFinish:
				got[ev.Job] += float64(holdW[ev.Job]) * (ev.TimeSec - holdT[ev.Job])
				holdW[ev.Job] = 0
			}
		}
		for name, w := range want {
			if !approx(got[name], w) {
				t.Fatalf("%v: job %s did %v wavelength-seconds of work, want %v",
					pol.Kind, name, got[name], w)
			}
		}
	}
}

// TestDeterminism runs the same heavy workload twice per policy and requires
// bit-identical results (the sim engine breaks ties deterministically).
func TestDeterminism(t *testing.T) {
	for _, pol := range []Policy{
		{Kind: StaticPartition, Partitions: 4},
		{Kind: FirstFitShare},
		{Kind: PriorityPreempt},
		{Kind: ElasticReallocate, ReconfigDelaySec: 0.02},
	} {
		a := mustSimulate(t, 8, heavyMix(), pol)
		b := mustSimulate(t, 8, heavyMix(), pol)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%v: two runs differ", pol.Kind)
		}
	}
}

func TestIterationsScaleRuntime(t *testing.T) {
	one := mustSimulate(t, 8,
		[]Job{{Name: "a", Runtime: perfectScaling(8)}}, Policy{Kind: FirstFitShare})
	three := mustSimulate(t, 8,
		[]Job{{Name: "a", Iterations: 3, Runtime: perfectScaling(8)}}, Policy{Kind: FirstFitShare})
	if !approx(three.MakespanSec, 3*one.MakespanSec) {
		t.Fatalf("3 iterations took %v, one took %v", three.MakespanSec, one.MakespanSec)
	}
}

func TestPolicyAndEventStrings(t *testing.T) {
	if StaticPartition.String() != "static" || FirstFitShare.String() != "first-fit" ||
		PriorityPreempt.String() != "priority" || ElasticReallocate.String() != "elastic" {
		t.Fatal("policy names changed")
	}
	for _, k := range []EventKind{EvArrive, EvReject, EvStart, EvPreempt, EvResume, EvFinish, EvReconfig} {
		if k.String() == "" {
			t.Fatalf("event kind %d has no name", int(k))
		}
	}
}

func TestElasticWidensOnDeparture(t *testing.T) {
	// a (work 8) and b (work 4) split the pool 4/4 at t=0. b departs at
	// t=1; elastic re-solves and widens a to the full budget, so its
	// remaining half runs at 8 wide: done at 1.5 instead of 2.0.
	jobs := []Job{
		{Name: "a", Runtime: perfectScaling(8)},
		{Name: "b", Runtime: perfectScaling(4)},
	}
	res := mustSimulate(t, 8, jobs, Policy{Kind: ElasticReallocate})
	a, b := jobByName(t, res, "a"), jobByName(t, res, "b")
	if a.Width != 8 || a.Reconfigs != 1 || !approx(a.DoneSec, 1.5) {
		t.Fatalf("widened job: %+v", a)
	}
	if !approx(b.DoneSec, 1.0) || b.Reconfigs != 0 {
		t.Fatalf("departing job: %+v", b)
	}
	var sawReconfig bool
	for _, ev := range res.Events {
		if ev.Kind == EvReconfig {
			if ev.Job != "a" || ev.Wavelengths != 8 || !approx(ev.TimeSec, 1.0) {
				t.Fatalf("unexpected reconfig event: %+v", ev)
			}
			sawReconfig = true
		}
	}
	if !sawReconfig {
		t.Fatal("no reconfig event in the trace")
	}
}

func TestElasticAdmitsQueuedOnDeparture(t *testing.T) {
	// a needs the whole budget; b queues behind it and is admitted at the
	// full width the moment a departs.
	jobs := []Job{
		{Name: "a", MinWavelengths: 8, Runtime: perfectScaling(8)},
		{Name: "b", ArrivalSec: 0.5, Runtime: perfectScaling(4)},
	}
	res := mustSimulate(t, 8, jobs, Policy{Kind: ElasticReallocate})
	b := jobByName(t, res, "b")
	if !approx(b.StartSec, 1.0) || b.Width != 8 || !approx(b.DoneSec, 1.5) {
		t.Fatalf("queued job after departure: %+v", b)
	}
	if !approx(b.QueueSec, 0.5) {
		t.Fatalf("queue time %v, want 0.5", b.QueueSec)
	}
}

func TestElasticShrinksInsteadOfPreempting(t *testing.T) {
	// Low-priority a owns the fabric when high-priority b (min 6) arrives.
	// Priority preemption would evict a entirely; elastic shrinks it to its
	// 2-wavelength minimum so both make progress, then widens it back after
	// b departs.
	jobs := []Job{
		{Name: "a", Priority: 0, MinWavelengths: 2, Runtime: perfectScaling(8)},
		{Name: "b", Priority: 5, ArrivalSec: 0.5, MinWavelengths: 6, MaxWavelengths: 6,
			Runtime: perfectScaling(6)},
	}
	res := mustSimulate(t, 8, jobs, Policy{Kind: ElasticReallocate})
	a, b := jobByName(t, res, "a"), jobByName(t, res, "b")
	if b.QueueSec != 0 || !approx(b.DoneSec, 1.5) || b.Width != 6 {
		t.Fatalf("high-priority arrival: %+v", b)
	}
	// a: runs 8-wide 0..0.5 (half done), 2-wide 0.5..1.5 (quarter more),
	// then widens back to 8 at b's departure: remaining quarter in 0.25s.
	if a.Preemptions != 0 {
		t.Fatalf("elastic must never fully preempt: %+v", a)
	}
	if a.Reconfigs != 2 || !approx(a.DoneSec, 1.75) {
		t.Fatalf("shrunk-then-widened job: %+v", a)
	}
}

func TestElasticReconfigPenaltyAndWidenGuard(t *testing.T) {
	// Same departure as TestElasticWidensOnDeparture. With a 0.25s settling
	// delay the widening still pays (1 + 0.25 + 0.5 = 1.75 < 2.0); with a
	// 0.6s delay it would finish later than just staying at width 4, so the
	// solver must skip it.
	mk := func() []Job {
		return []Job{
			{Name: "a", Runtime: perfectScaling(8)},
			{Name: "b", Runtime: perfectScaling(4)},
		}
	}
	res := mustSimulate(t, 8, mk(), Policy{Kind: ElasticReallocate, ReconfigDelaySec: 0.25})
	a := jobByName(t, res, "a")
	if a.Reconfigs != 1 || !approx(a.DoneSec, 1.75) {
		t.Fatalf("paying widen: %+v", a)
	}
	res = mustSimulate(t, 8, mk(), Policy{Kind: ElasticReallocate, ReconfigDelaySec: 0.6})
	a = jobByName(t, res, "a")
	if a.Reconfigs != 0 || !approx(a.DoneSec, 2.0) || a.Width != 4 {
		t.Fatalf("widen guard should keep the narrow stripe: %+v", a)
	}
	// The guarded run still reports a valid utilization (stalls hold
	// wavelengths, so utilization can exceed the pure-work level but not 1).
	if res.Utilization <= 0 || res.Utilization > 1 {
		t.Fatalf("utilization %v", res.Utilization)
	}
}

func TestElasticVetoedSurplusFlowsToOtherJobs(t *testing.T) {
	// X, Y, Z water-fill to 4 λ each at t=0. X departs at t=1, freeing 4 λ.
	// The even re-split (Y, Z → 6 each) fails the widen guard for Y — with
	// a 1.3s settling stall, 1 + 1.3 + 0.75·(16/6) = 4.3 > its current 4.0
	// finish — so Y is re-capped at 4 and the re-solved fill hands the whole
	// freed stripe to Z (4 → 8), whose widening does pay:
	// 1 + 1.3 + (5/6)·(24/8) = 4.8 < 6.0. Without the re-solve the 4 λ
	// would sit dark until the next event and Z would finish at 5.63.
	jobs := []Job{
		{Name: "x", MaxWavelengths: 4, Runtime: perfectScaling(4)},
		{Name: "y", MaxWavelengths: 8, Runtime: perfectScaling(16)},
		{Name: "z", MaxWavelengths: 12, Runtime: perfectScaling(24)},
	}
	res := mustSimulate(t, 12, jobs, Policy{Kind: ElasticReallocate, ReconfigDelaySec: 1.3})
	y, z := jobByName(t, res, "y"), jobByName(t, res, "z")
	if y.Reconfigs != 0 || y.Width != 4 || !approx(y.DoneSec, 4.0) {
		t.Fatalf("vetoed job must keep its stripe untouched: %+v", y)
	}
	if z.Reconfigs != 1 || z.Width != 8 || !approx(z.DoneSec, 4.8) {
		t.Fatalf("freed stripe should flow past the vetoed job: %+v", z)
	}
}

func TestElasticPinsNearlyDoneJobInsteadOfShrinking(t *testing.T) {
	// a holds the whole fabric and is due to finish at t=1.0 when b arrives
	// at t=0.999 with a 0.5s settling delay. Shrinking a to admit b would
	// stall a's last millisecond of work behind the full delay (finishing
	// at ~1.5 and pushing makespan to ~2.0, strictly worse than first-fit's
	// 1.5). The solver must pin a at its current width; b then starts at
	// a's natural departure with the whole budget, matching first-fit.
	jobs := []Job{
		{Name: "a", Runtime: perfectScaling(8)},
		{Name: "b", ArrivalSec: 0.999, Runtime: perfectScaling(4)},
	}
	res := mustSimulate(t, 8, jobs, Policy{Kind: ElasticReallocate, ReconfigDelaySec: 0.5})
	a, b := jobByName(t, res, "a"), jobByName(t, res, "b")
	if a.Reconfigs != 0 || !approx(a.DoneSec, 1.0) {
		t.Fatalf("nearly-done job must not be shrunk: %+v", a)
	}
	if b.Width != 8 || !approx(b.StartSec, 1.0) || !approx(b.DoneSec, 1.5) {
		t.Fatalf("arrival should wait for the natural departure: %+v", b)
	}
	if !approx(res.MakespanSec, 1.5) {
		t.Fatalf("makespan %v, want first-fit-equivalent 1.5", res.MakespanSec)
	}
}

func TestElasticSoloMatchesDedicated(t *testing.T) {
	// A lone tenant gets the whole budget immediately and never
	// reconfigures, so elastic reproduces the dedicated-ring time exactly.
	res := mustSimulate(t, 8,
		[]Job{{Name: "solo", Runtime: perfectScaling(8)}},
		Policy{Kind: ElasticReallocate, ReconfigDelaySec: 0.1})
	j := jobByName(t, res, "solo")
	if j.Width != 8 || j.Reconfigs != 0 || !approx(j.DoneSec, 1.0) || !approx(j.Slowdown, 1.0) {
		t.Fatalf("solo elastic tenant: %+v", j)
	}
}

func TestElasticDoesNotStarveBlockedHighPriority(t *testing.T) {
	// Two low-priority min-4 tenants hold the fabric when a high-priority
	// full-width job H arrives, followed by a steady stream of low-priority
	// min-4 jobs. Backfilling admission would slip each arrival into the
	// half freed by every departure and starve H forever; head-of-line
	// admission must start H at the first instant both halves are free.
	jobs := []Job{
		{Name: "low0", Priority: 0, MinWavelengths: 4, MaxWavelengths: 4, Runtime: perfectScaling(4)},
		{Name: "low1", Priority: 0, MinWavelengths: 4, MaxWavelengths: 4, Runtime: perfectScaling(8)},
		{Name: "H", Priority: 9, ArrivalSec: 0.1, MinWavelengths: 8, Runtime: perfectScaling(8)},
	}
	for i := 0; i < 6; i++ {
		jobs = append(jobs, Job{
			Name:           fmt.Sprintf("late%d", i),
			Priority:       0,
			ArrivalSec:     0.2 + 0.1*float64(i),
			MinWavelengths: 4, MaxWavelengths: 4,
			Runtime: perfectScaling(4),
		})
	}
	res := mustSimulate(t, 8, jobs, Policy{Kind: ElasticReallocate})
	h := jobByName(t, res, "H")
	// low0 departs at 1.0, low1 at 2.0; H must start at 2.0, before any of
	// the later low-priority arrivals run.
	if !approx(h.StartSec, 2.0) {
		t.Fatalf("blocked high-priority job started at %v, want 2.0: %+v", h.StartSec, h)
	}
	for i := 0; i < 6; i++ {
		if late := jobByName(t, res, fmt.Sprintf("late%d", i)); late.StartSec < h.StartSec {
			t.Fatalf("low-priority late%d overtook the blocked high-priority job: %+v", i, late)
		}
	}
}

func TestElasticValidation(t *testing.T) {
	ok := []Job{{Name: "a", Runtime: perfectScaling(1)}}
	for _, bad := range []float64{-1, math.NaN(), math.Inf(1)} {
		if _, err := Simulate(8, ok, Policy{Kind: ElasticReallocate, ReconfigDelaySec: bad}, faults.Plan{}, SchedOpts{}); err == nil {
			t.Errorf("reconfig delay %v accepted", bad)
		}
	}
}

// TestPriorityTieBreakByAdmissionIndex: two jobs with identical priority and
// arrival time must start in admission (spec) order, every run.
func TestPriorityTieBreakByAdmissionIndex(t *testing.T) {
	mk := func() []Job {
		var jobs []Job
		for _, n := range []string{"first", "second", "third"} {
			jobs = append(jobs, Job{
				Name: n, Priority: 3, MinWavelengths: 8, Runtime: perfectScaling(8),
			})
		}
		return jobs
	}
	want := mustSimulate(t, 8, mk(), Policy{Kind: PriorityPreempt})
	for i, name := range []string{"first", "second", "third"} {
		j := jobByName(t, want, name)
		if !approx(j.StartSec, float64(i)) {
			t.Fatalf("tied job %s started at %v, want admission order (t=%d)", name, j.StartSec, i)
		}
	}
	for run := 0; run < 5; run++ {
		if got := mustSimulate(t, 8, mk(), Policy{Kind: PriorityPreempt}); !reflect.DeepEqual(got, want) {
			t.Fatalf("run %d: tied-priority schedule not stable", run)
		}
	}
}

// randomMix builds a seeded random job mix for the property tests: bursty
// arrivals, mixed priorities, stripe appetites, and iteration counts, with
// a mildly non-ideal (but monotone) speedup curve.
func randomMix(seed int64, n, budget int) []Job {
	rng := rand.New(rand.NewSource(seed))
	var jobs []Job
	for i := 0; i < n; i++ {
		work := 0.5 + rng.Float64()*15
		min := 1 + rng.Intn(3)
		max := min + rng.Intn(budget-min+1)
		jobs = append(jobs, Job{
			Name:           fmt.Sprintf("r%02d", i),
			ArrivalSec:     rng.Float64() * 3,
			Priority:       rng.Intn(4),
			MinWavelengths: min,
			MaxWavelengths: max,
			Iterations:     1 + rng.Intn(3),
			Runtime: func(w int) (float64, error) {
				return work/float64(w) + 0.01, nil
			},
		})
	}
	return jobs
}

// TestPreemptionAccountingInvariants property-tests the per-job accounting
// through preemptions (priority) and mid-flight reconfigurations (elastic,
// with and without settling delay) over seeded random mixes: queue time is
// non-negative, service time fits inside the job's span, no job beats its
// contention-free alone time, and slowdowns are >= 1.
func TestPreemptionAccountingInvariants(t *testing.T) {
	const budget = 8
	const eps = 1e-9
	preempts, reconfigs := 0, 0
	for seed := int64(1); seed <= 8; seed++ {
		for _, pol := range []Policy{
			{Kind: PriorityPreempt},
			{Kind: ElasticReallocate},
			{Kind: ElasticReallocate, ReconfigDelaySec: 0.03},
		} {
			res := mustSimulate(t, budget, randomMix(seed, 10, budget), pol)
			for _, j := range res.Jobs {
				if j.Rejected {
					t.Fatalf("seed %d %v: unexpected rejection %+v", seed, pol, j)
				}
				preempts += j.Preemptions
				reconfigs += j.Reconfigs
				if j.QueueSec < -eps || j.StartSec < j.ArrivalSec-eps {
					t.Fatalf("seed %d %v: negative queue time %+v", seed, pol, j)
				}
				if j.ServiceSec <= 0 || j.DoneSec < j.StartSec-eps {
					t.Fatalf("seed %d %v: inconsistent service span %+v", seed, pol, j)
				}
				if j.ServiceSec > j.DoneSec-j.ArrivalSec+eps {
					t.Fatalf("seed %d %v: service exceeds span %+v", seed, pol, j)
				}
				if j.DoneSec-j.ArrivalSec < j.AloneSec-eps {
					t.Fatalf("seed %d %v: job beat its alone time %+v", seed, pol, j)
				}
				if j.Slowdown < 1-eps {
					t.Fatalf("seed %d %v: slowdown %v < 1 %+v", seed, pol, j.Slowdown, j)
				}
				if pol.Kind == ElasticReallocate && j.Preemptions != 0 {
					t.Fatalf("seed %d: elastic preempted %+v", seed, j)
				}
			}
		}
	}
	// The mixes are contended enough to exercise the machinery somewhere.
	if preempts == 0 || reconfigs == 0 {
		t.Fatalf("property mixes exercised %d preemptions, %d reconfigs; want both > 0",
			preempts, reconfigs)
	}
}
