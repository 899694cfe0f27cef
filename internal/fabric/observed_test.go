package fabric

import (
	"reflect"
	"testing"

	"wrht/internal/faults"
	"wrht/internal/obs"
)

// churnJobs is a small elastic scenario with queueing, preemption-free width
// changes, and lane churn: two capped jobs fill the pool, then an uncapped
// straggler arrives and widens as they drain.
func churnJobs() []Job {
	return []Job{
		{Name: "a", MaxWavelengths: 4, Runtime: perfectScaling(8)},
		{Name: "b", MaxWavelengths: 4, Runtime: perfectScaling(8)},
		{Name: "c", ArrivalSec: 0.5, Runtime: perfectScaling(16)},
	}
}

// TestSimulateObservedBitIdentical: attaching a recorder never changes the
// simulated outcome, and the recorder captures the run's event stream,
// lane occupancy, and totals.
func TestSimulateObservedBitIdentical(t *testing.T) {
	pol := Policy{Kind: ElasticReallocate, ReconfigDelaySec: 1e-3}
	want, err := Simulate(8, churnJobs(), pol, faults.Plan{}, SchedOpts{})
	if err != nil {
		t.Fatal(err)
	}
	rec := obs.New()
	got, err := Simulate(8, churnJobs(), pol, faults.Plan{}, SchedOpts{Rec: rec, Proc: "fabric test"})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("observed fabric result diverges\n got %+v\nwant %+v", got, want)
	}

	// Every engine event appears as an instant on its job's track, and the
	// per-kind counters partition the event stream.
	snap := rec.Snapshot()
	if snap.Instants != len(want.Events) {
		t.Fatalf("recorded %d instants, want %d events", snap.Instants, len(want.Events))
	}
	var byKind int64
	for _, k := range []string{"arrive", "reject", "start", "preempt", "resume", "finish", "reconfig"} {
		byKind += rec.Counter("fabric.events." + k)
	}
	if byKind != int64(len(want.Events)) {
		t.Fatalf("per-kind event counters sum to %d, want %d", byKind, len(want.Events))
	}
	if n := rec.Counter("fabric.sims"); n != 1 {
		t.Fatalf("fabric.sims = %d, want 1", n)
	}

	// Lane busy time integrates to the run's utilization: busy λ·s equals
	// utilization × budget × makespan.
	var busy float64
	for _, ln := range snap.Lanes {
		busy += ln.BusySec
	}
	wantBusy := want.Utilization * float64(want.Budget) * want.MakespanSec
	if !approx(busy, wantBusy) {
		t.Fatalf("lane busy %.9f λ·s, want utilization·budget·makespan = %.9f", busy, wantBusy)
	}
	if v := rec.FloatCounter("fabric.lambda_busy_seconds"); !approx(v, wantBusy) {
		t.Fatalf("fabric.lambda_busy_seconds = %.9f, want %.9f", v, wantBusy)
	}

	// Peak-width gauge agrees with the result.
	var peak float64
	for _, g := range snap.Gauges {
		if g.Name == "fabric.peak_wavelengths" {
			peak = g.Max
		}
	}
	if int(peak) != want.PeakWavelengths {
		t.Fatalf("fabric.peak_wavelengths = %v, want %d", peak, want.PeakWavelengths)
	}
}

// TestSimulateObservedNilRecorder: a nil recorder — even with a process
// name set — is inert: the run is exactly a recorded run.
func TestSimulateObservedNilRecorder(t *testing.T) {
	pol := Policy{Kind: PriorityPreempt}
	want, err := Simulate(8, churnJobs(), pol, faults.Plan{}, SchedOpts{Rec: obs.New(), Proc: "fabric test"})
	if err != nil {
		t.Fatal(err)
	}
	got, err := Simulate(8, churnJobs(), pol, faults.Plan{}, SchedOpts{Proc: "fabric test"})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("nil-recorder observed fabric result diverges")
	}
}
