package fleet

import (
	"reflect"
	"testing"

	"wrht/internal/fabric"
	"wrht/internal/faults"
)

// outagePlan takes fabric 0 down for [0.3, 0.5) and fabric 1 down for
// [0.8, 1.0) — early enough that both still hold live jobs from the
// 60-job, ~1.2s-arrival-span test trace.
func outagePlan() faults.Plan {
	return faults.Plan{Scripted: []faults.Event{
		{TimeSec: 0.3, Kind: faults.FabricDown, Fabric: 0},
		{TimeSec: 0.5, Kind: faults.FabricUp, Fabric: 0},
		{TimeSec: 0.8, Kind: faults.FabricDown, Fabric: 1},
		{TimeSec: 1.0, Kind: faults.FabricUp, Fabric: 1},
	}}
}

// TestFleetEmptyFaultPlanBitIdentical pins the fleet layer's zero-fault
// guarantee: passing an explicitly empty plan (with recovery knobs set)
// leaves every field bit-identical to a run without one.
func TestFleetEmptyFaultPlanBitIdentical(t *testing.T) {
	jobs := smallTrace(t, 60)
	for _, lite := range []bool{false, true} {
		base := mustFleet(t, smallFleet(), jobs, Options{
			Placement: BestFit, Policy: fabric.ElasticReallocate, Lite: lite,
		})
		armed := mustFleet(t, smallFleet(), jobs, Options{
			Placement: BestFit, Policy: fabric.ElasticReallocate, Lite: lite,
			Faults:   faults.Plan{Retry: faults.Retry{MaxRetries: 3}},
			Recovery: MigrateOnFailure,
		})
		if !reflect.DeepEqual(base, armed) {
			t.Fatalf("lite=%v: empty fault plan perturbs the result:\n  base  %+v\n  armed %+v",
				lite, base, armed)
		}
		if armed.Availability != 1 {
			t.Fatalf("lite=%v: fault-free availability %v, want 1", lite, armed.Availability)
		}
	}
}

// TestFleetOutageRecoveryPolicies drives the same scripted double outage
// through all three recovery policies and pins their contracts: FailFast
// kills the caught jobs, RetrySameFabric and MigrateOnFailure save them,
// and every policy keeps the fleet-wide job accounting identity.
func TestFleetOutageRecoveryPolicies(t *testing.T) {
	jobs := smallTrace(t, 60)
	results := map[RecoveryPolicy]Result{}
	for _, rp := range []RecoveryPolicy{FailFast, RetrySameFabric, MigrateOnFailure} {
		res := mustFleet(t, smallFleet(), jobs, Options{
			Placement: BestFit, Policy: fabric.ElasticReallocate,
			Faults: outagePlan(), Recovery: rp,
		})
		results[rp] = res
		if res.Outages != 2 {
			t.Fatalf("%v: %d outages, want 2", rp, res.Outages)
		}
		if got := res.Completed + res.Rejected + res.Killed + res.FailedJobs; got != res.Jobs {
			t.Fatalf("%v: %d completed + %d rejected + %d killed + %d failed != %d jobs",
				rp, res.Completed, res.Rejected, res.Killed, res.FailedJobs, res.Jobs)
		}
		if !(res.Availability > 0 && res.Availability < 1) {
			t.Fatalf("%v: availability %v, want in (0,1) under outages", rp, res.Availability)
		}
	}
	ff, rsf, mig := results[FailFast], results[RetrySameFabric], results[MigrateOnFailure]
	if ff.Killed == 0 {
		t.Fatalf("fail-fast killed nothing: %+v", ff)
	}
	if ff.Retries != 0 {
		t.Fatalf("fail-fast retried %d jobs, want 0", ff.Retries)
	}
	if rsf.Killed != 0 || mig.Killed != 0 {
		t.Fatalf("non-fail-fast policies killed jobs: retry %d, migrate %d", rsf.Killed, mig.Killed)
	}
	if rsf.Retries == 0 || mig.Retries == 0 {
		t.Fatalf("recovery never retried: retry-same %d, migrate %d", rsf.Retries, mig.Retries)
	}
	if mig.Completed < ff.Completed {
		t.Fatalf("migration completed %d < fail-fast %d", mig.Completed, ff.Completed)
	}
}

// TestFleetMigrationAccountingUnderRetries is the satellite-3 accounting
// test: under MigrateOnFailure with repeated outages, every completed job's
// end-to-end latency still dominates its alone time (slowdown >= 1 even
// through evictions, cross-fabric restarts, and backoff), lost work is
// consistently non-negative, and the whole faulty run — retry counts
// included — is byte-stable across repeated simulations.
func TestFleetMigrationAccountingUnderRetries(t *testing.T) {
	jobs := smallTrace(t, 60)
	opt := Options{
		Placement: BestFit, Policy: fabric.ElasticReallocate,
		Faults: outagePlan(), Recovery: MigrateOnFailure,
	}
	opt.Faults.Retry = faults.Retry{BackoffSec: 0.002, MaxRetries: 8}
	res := mustFleet(t, smallFleet(), jobs, opt)
	if res.Retries == 0 || res.Evictions == 0 {
		t.Fatalf("outage plan exercised no recovery: %+v", res)
	}
	checked := 0
	for _, pj := range res.PerJob {
		st := pj.Stats
		if st.Rejected || st.Failed || st.DoneSec == 0 {
			continue
		}
		checked++
		if st.DoneSec-st.ArrivalSec < st.AloneSec-1e-9 {
			t.Fatalf("job %s: latency %v < alone %v (arrival %v done %v, retries %d)",
				pj.Name, st.DoneSec-st.ArrivalSec, st.AloneSec, st.ArrivalSec, st.DoneSec, st.Retries)
		}
		if st.LostWorkSec < 0 || st.ServiceSec < st.LostWorkSec-1e-9 {
			t.Fatalf("job %s: lost %v of %v service seconds", pj.Name, st.LostWorkSec, st.ServiceSec)
		}
	}
	if checked == 0 {
		t.Fatal("no completed jobs to check")
	}
	if again := mustFleet(t, smallFleet(), jobs, opt); !reflect.DeepEqual(res, again) {
		t.Fatal("faulty fleet run is not byte-stable across repeated simulations")
	}
}

// TestFleetGeneratedFaultsDeterministic pins determinism for a generated
// (MTBF/MTTR-seeded) fault plan spanning all three fault classes, in both
// stats modes.
func TestFleetGeneratedFaultsDeterministic(t *testing.T) {
	jobs := smallTrace(t, 80)
	plan := faults.Plan{
		Seed: 7, HorizonSec: 2,
		WavelengthMTBFSec: 0.4, WavelengthMTTRSec: 0.05,
		JobFaultMTBFSec: 0.6,
		FabricMTBFSec:   1.0, FabricMTTRSec: 0.1,
	}
	for _, lite := range []bool{false, true} {
		opt := Options{
			Placement: LeastLoaded, Policy: fabric.ElasticReallocate, Lite: lite,
			Faults: plan, Recovery: MigrateOnFailure,
		}
		a := mustFleet(t, smallFleet(), jobs, opt)
		b := mustFleet(t, smallFleet(), jobs, opt)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("lite=%v: seeded faulty fleet run not deterministic", lite)
		}
		if a.JobFaults == 0 && a.Outages == 0 && a.Evictions == 0 {
			t.Fatalf("lite=%v: plan injected nothing: %+v", lite, a)
		}
	}
}
