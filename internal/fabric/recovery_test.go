package fabric

import (
	"reflect"
	"testing"

	"wrht/internal/faults"
	"wrht/internal/sim"
)

// TestJobFaultCheckpointReplay pins the checkpoint arithmetic: a crash
// loses exactly the service since the last checkpoint and replays only
// that tail, while a checkpoint-free job replays from scratch.
func TestJobFaultCheckpointReplay(t *testing.T) {
	cases := []struct {
		name     string
		ckpt     float64
		wantDone float64
		wantLost float64
	}{
		// Crash at t=0.5 of a 1s run with checkpoints every 0.3 service
		// seconds: the k=1 checkpoint at 0.3 survives, 0.2 is lost, and the
		// 0.7 tail replays -> done at 1.2.
		{"ckpt0.3", 0.3, 1.2, 0.2},
		// No checkpointing: the whole 0.5 is lost, full restart -> 1.5.
		{"none", 0, 1.5, 0.5},
	}
	for _, tc := range cases {
		plan := faults.Plan{Scripted: []faults.Event{{TimeSec: 0.5, Kind: faults.JobFault}}}
		jobs := []Job{{
			Name: "solo", MaxWavelengths: 1, CheckpointEverySec: tc.ckpt,
			Runtime: perfectScaling(1.0),
		}}
		res, err := Simulate(1, jobs, Policy{Kind: FirstFitShare}, plan, SchedOpts{})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if res.JobFaults != 1 || res.CompletedJobs != 1 {
			t.Fatalf("%s: faults %d completed %d, want 1/1", tc.name, res.JobFaults, res.CompletedJobs)
		}
		st := res.Jobs[0]
		if !approx(st.DoneSec, tc.wantDone) || !approx(st.LostWorkSec, tc.wantLost) {
			t.Fatalf("%s: done %v lost %v, want %v / %v",
				tc.name, st.DoneSec, st.LostWorkSec, tc.wantDone, tc.wantLost)
		}
		if !approx(res.LostWorkSec, tc.wantLost) || !approx(st.ServiceSec, tc.wantDone) {
			t.Fatalf("%s: aggregate lost %v service %v", tc.name, res.LostWorkSec, st.ServiceSec)
		}
		if res.Availability != 1 {
			t.Fatalf("%s: job faults darken nothing, availability %v", tc.name, res.Availability)
		}
	}
}

// TestJobFaultInReconfigStallPinsReplay: a crash inside a reconfiguration
// stall replays the tail without the stall, so the replayed segment ends
// before the one it cut. The elastic tier index must still see the job as
// due within the settling delay, pin it, and keep an arrival that no
// longer fits queued; both solvers must agree.
//
// Construction: budget 3, ReconfigDelaySec 1. High-priority b (width 2,
// done at 1) squeezes a (min 1, max 2, R(w) = 8/w, checkpoints every 0.5)
// to width 1. At t=1 a widens to 2: a checkpoint lands at the cut
// (remaining 7/8), and the stalled segment would end at 1+1+3.5 = 5.5. A
// crash at 1.5 loses nothing and replays 3.5 s from 1.5, ending at 5. At
// t=4.25, c (width 2) arrives: a is pinned at 2 (0.75 s left), so c waits
// for a's departure at 5 and runs to 6.
func TestJobFaultInReconfigStallPinsReplay(t *testing.T) {
	jobs := []Job{
		{Name: "a", MinWavelengths: 1, MaxWavelengths: 2, CheckpointEverySec: 0.5, Runtime: perfectScaling(8)},
		{Name: "b", Priority: 1, MinWavelengths: 2, MaxWavelengths: 2, Runtime: perfectScaling(2)},
		{Name: "c", ArrivalSec: 4.25, MinWavelengths: 2, MaxWavelengths: 2, Runtime: perfectScaling(2)},
	}
	plan := faults.Plan{Scripted: []faults.Event{{TimeSec: 1.5, Kind: faults.JobFault, Job: "a"}}}
	pol := Policy{Kind: ElasticReallocate, ReconfigDelaySec: 1}
	inc, err := simulateSolver(false, 3, jobs, pol, plan, SchedOpts{})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := simulateSolver(true, 3, jobs, pol, plan, SchedOpts{})
	if err != nil {
		t.Fatal(err)
	}
	assertSameResult(t, "stall crash", inc, ref)
	a, c := inc.Jobs[0], inc.Jobs[2]
	if inc.JobFaults != 1 || a.LostWorkSec != 0 || a.DoneSec != 5 {
		t.Fatalf("a: faults %d lost %v done %v, want 1 / 0 / 5", inc.JobFaults, a.LostWorkSec, a.DoneSec)
	}
	if c.StartSec != 5 || c.DoneSec != 6 {
		t.Fatalf("c: start %v done %v, want 5 / 6 (queued behind pinned a)", c.StartSec, c.DoneSec)
	}
}

// TestWavelengthDarkElasticShrinkRestore: darkening wavelengths mid-run
// shrinks elastic tenants, restoring re-widens them, the lost capacity
// shows up in Availability, and the whole run is deterministic.
func TestWavelengthDarkElasticShrinkRestore(t *testing.T) {
	run := func() Result {
		plan := faults.Plan{Scripted: []faults.Event{
			{TimeSec: 0.5, Kind: faults.WavelengthDown, Count: 2},
			{TimeSec: 1.0, Kind: faults.WavelengthUp, Count: 2},
		}}
		jobs := []Job{
			{Name: "a", MaxWavelengths: 4, Runtime: perfectScaling(4)},
			{Name: "b", ArrivalSec: 1e-9, MaxWavelengths: 4, Runtime: perfectScaling(4)},
		}
		res, err := Simulate(4, jobs, Policy{Kind: ElasticReallocate}, plan, SchedOpts{})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	base := mustSimulate(t, 4, []Job{
		{Name: "a", MaxWavelengths: 4, Runtime: perfectScaling(4)},
		{Name: "b", ArrivalSec: 1e-9, MaxWavelengths: 4, Runtime: perfectScaling(4)},
	}, Policy{Kind: ElasticReallocate})
	res := run()
	if res.CompletedJobs != 2 {
		t.Fatalf("completed %d, want 2", res.CompletedJobs)
	}
	if res.MakespanSec <= base.MakespanSec {
		t.Fatalf("dark wavelengths should stretch the makespan: %v <= %v",
			res.MakespanSec, base.MakespanSec)
	}
	if !(res.Availability > 0 && res.Availability < 1) {
		t.Fatalf("availability %v, want in (0,1)", res.Availability)
	}
	var downs, ups int
	for _, ev := range res.Events {
		switch ev.Kind {
		case EvWavelengthDown:
			downs++
		case EvWavelengthUp:
			ups++
		}
	}
	if downs != 1 || ups != 1 {
		t.Fatalf("trace has %d down / %d up events, want 1/1", downs, ups)
	}
	if again := run(); !reflect.DeepEqual(res, again) {
		t.Fatalf("faulty run is not deterministic")
	}
}

// TestDarkEvictionParkRetry: under a grant-once pool policy a darkened
// wavelength evicts its tenant into the backoff parking lot; the tenant
// retries (several times while the fabric is still short) and completes
// after restore, with its pro-rata progress preserved — eviction is
// graceful, so no work is lost.
func TestDarkEvictionParkRetry(t *testing.T) {
	plan := faults.Plan{Scripted: []faults.Event{
		{TimeSec: 0.2, Kind: faults.WavelengthDown, Count: 1},
		{TimeSec: 0.3, Kind: faults.WavelengthUp, Count: 1},
	}}
	jobs := []Job{{Name: "wide", MinWavelengths: 2, MaxWavelengths: 2, Runtime: perfectScaling(2)}}
	res, err := Simulate(2, jobs, Policy{Kind: FirstFitShare}, plan, SchedOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if res.CompletedJobs != 1 || res.FailedJobs != 0 {
		t.Fatalf("completed %d failed %d, want 1/0", res.CompletedJobs, res.FailedJobs)
	}
	st := res.Jobs[0]
	if st.Evictions < 1 || st.Retries < 1 {
		t.Fatalf("evictions %d retries %d, want >= 1 each", st.Evictions, st.Retries)
	}
	if res.Evictions != st.Evictions || res.Retries != st.Retries {
		t.Fatalf("aggregates (%d,%d) diverge from job stats (%d,%d)",
			res.Evictions, res.Retries, st.Evictions, st.Retries)
	}
	if res.LostWorkSec != 0 {
		t.Fatalf("graceful eviction lost %v seconds of work, want 0", res.LostWorkSec)
	}
	// 0.2s of the 1s run survived the eviction pro rata: the replayed tail
	// is 0.8, so completion lands at first-fitting-retry + 0.8.
	if st.DoneSec >= 0.3+1.0 || st.DoneSec <= 0.3+0.8 {
		t.Fatalf("done %v, want in (1.1, 1.3): pro-rata progress preserved", st.DoneSec)
	}
}

// TestDarkRetryBudgetExhausted: a job whose floor never fits the darkened
// budget burns its retry budget and fails permanently, with all its service
// charged as lost work.
func TestDarkRetryBudgetExhausted(t *testing.T) {
	plan := faults.Plan{
		Scripted: []faults.Event{{TimeSec: 0.2, Kind: faults.WavelengthDown, Count: 1}},
		Retry:    faults.Retry{MaxRetries: 3},
	}
	jobs := []Job{{Name: "wide", MinWavelengths: 2, MaxWavelengths: 2, Runtime: perfectScaling(2)}}
	res, err := Simulate(2, jobs, Policy{Kind: FirstFitShare}, plan, SchedOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if res.CompletedJobs != 0 || res.FailedJobs != 1 {
		t.Fatalf("completed %d failed %d, want 0/1", res.CompletedJobs, res.FailedJobs)
	}
	if len(res.Jobs) != 1 || !res.Jobs[0].Failed {
		t.Fatalf("failed job missing from per-job stats: %+v", res.Jobs)
	}
	st := res.Jobs[0]
	if !approx(st.LostWorkSec, st.ServiceSec) || st.ServiceSec <= 0 {
		t.Fatalf("a failed job's service is all lost: lost %v of %v", st.LostWorkSec, st.ServiceSec)
	}
	if st.Retries != 3 {
		t.Fatalf("retries %d, want the full budget of 3", st.Retries)
	}
}

// TestOutageCheckpointResume drives an outage through the external
// scheduler API the way internal/fleet does: the resident job is evicted
// mid-run, rolls back to its last checkpoint, and SubmitResumed replays
// exactly the unsaved tail after repair.
func TestOutageCheckpointResume(t *testing.T) {
	var eng sim.Engine
	sch, err := NewScheduler(&eng, 1, Policy{Kind: FirstFitShare}, SchedOpts{})
	if err != nil {
		t.Fatal(err)
	}
	err = sch.Submit(&Job{
		Name: "a", MaxWavelengths: 1, CheckpointEverySec: 0.25,
		Runtime: perfectScaling(1.0),
	})
	if err != nil {
		t.Fatal(err)
	}
	var out []Resubmit
	outage := eng.Register(func(int32) { out = sch.Outage() })
	restore := eng.Register(func(int32) {
		sch.Restore()
		if len(out) != 1 {
			t.Errorf("outage evicted %d jobs, want 1", len(out))
			return
		}
		rs := out[0]
		rs.Job.ArrivalSec = 0.85
		if err := sch.SubmitResumed(&rs); err != nil {
			t.Error(err)
		}
	})
	eng.Schedule(0.6, outage, 0)
	eng.Schedule(0.8, restore, 0)
	eng.Run()
	res, err := sch.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	if res.CompletedJobs != 1 || res.Evictions != 1 || res.Retries != 1 {
		t.Fatalf("completed/evictions/retries %d/%d/%d, want 1/1/1",
			res.CompletedJobs, res.Evictions, res.Retries)
	}
	// Crash at 0.6 with checkpoints every 0.25: the 0.5 checkpoint holds,
	// 0.1 is lost, and the resumed job replays the remaining half from
	// t=0.85 -> done at 1.35.
	var done JobStats
	for _, st := range res.Jobs {
		if !st.Rejected && st.DoneSec > 0 {
			done = st
		}
	}
	if !approx(done.DoneSec, 1.35) || !approx(done.LostWorkSec, 0.1) {
		t.Fatalf("done %v lost %v, want 1.35 / 0.1", done.DoneSec, done.LostWorkSec)
	}
	if done.ArrivalSec != 0 {
		t.Fatalf("resumed stats must keep the original arrival, got %v", done.ArrivalSec)
	}
	// The outage blacked out the whole 1-wavelength fabric for 0.2s of a
	// 1.35s makespan.
	want := 1 - 0.2/1.35
	if !approx(res.Availability, want) {
		t.Fatalf("availability %v, want %v", res.Availability, want)
	}
}

// TestOutageRejectedWithoutFleet pins that single-fabric fault plans cannot
// script whole-fabric outages (recovery needs a fleet above), and that
// wavelength faults are rejected under StaticPartition.
func TestOutageRejectedWithoutFleet(t *testing.T) {
	jobs := []Job{{Name: "a", Runtime: perfectScaling(1)}}
	plan := faults.Plan{Scripted: []faults.Event{{TimeSec: 0.1, Kind: faults.FabricDown}}}
	if _, err := Simulate(2, jobs, Policy{Kind: FirstFitShare}, plan, SchedOpts{}); err == nil {
		t.Fatal("fabric outage accepted without a fleet")
	}
	plan = faults.Plan{Scripted: []faults.Event{{TimeSec: 0.1, Kind: faults.WavelengthDown}}}
	if _, err := Simulate(2, jobs, Policy{Kind: StaticPartition}, plan, SchedOpts{}); err == nil {
		t.Fatal("wavelength fault accepted under StaticPartition")
	}
}

// TestGeneratedFaultPlanDeterministic: a seeded MTBF/MTTR plan produces the
// byte-identical result on every run.
func TestGeneratedFaultPlanDeterministic(t *testing.T) {
	run := func() Result {
		plan := faults.Plan{
			Seed: 42, HorizonSec: 2,
			WavelengthMTBFSec: 0.3, WavelengthMTTRSec: 0.1,
			JobFaultMTBFSec: 0.5,
		}
		res, err := Simulate(8, heavyMix(), Policy{Kind: ElasticReallocate, ReconfigDelaySec: 1e-3}, plan, SchedOpts{})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("seeded faulty run is not deterministic:\n  a %+v\n  b %+v", a, b)
	}
	if a.JobFaults == 0 && a.Evictions == 0 && a.Availability == 1 {
		t.Fatalf("plan injected nothing: %+v", a)
	}
}
