package fleet

import (
	"testing"

	"wrht/internal/fabric"
	"wrht/internal/faults"
)

// allocsPerSimulate measures allocations per fleet.Simulate over an n-job
// heavy-tail trace in Lite mode under the elastic policy, with seeded
// wavelength, job and fabric faults and migration recovery.
func allocsPerSimulate(t *testing.T, n int) float64 {
	t.Helper()
	jobs, err := TraceSpec{
		Kind: HeavyTail, Jobs: n, Seed: 5, MeanGapSec: 0.05,
		NumShapes: 4, NumFabrics: 3, MaxWidth: 8,
	}.Gen()
	if err != nil {
		t.Fatal(err)
	}
	span := 0.0
	for i := range jobs {
		jobs[i].CheckpointEverySec = 0.05
		if jobs[i].ArrivalSec > span {
			span = jobs[i].ArrivalSec
		}
	}
	opt := Options{
		Placement: BestFit, Policy: fabric.ElasticReallocate, Lite: true,
		Faults: faults.Plan{
			Seed: 1, HorizonSec: span,
			WavelengthMTBFSec: span / 100, WavelengthMTTRSec: span / 1000,
			JobFaultMTBFSec: span / 50,
			FabricMTBFSec:   span / 10, FabricMTTRSec: span / 500,
		},
		Recovery: MigrateOnFailure,
	}
	var res Result
	allocs := testing.AllocsPerRun(3, func() {
		if res, err = Simulate(smallFleet(), testFloors, jobs, testRT, opt); err != nil {
			t.Fatal(err)
		}
	})
	if res.Outages == 0 || res.Retries == 0 || res.JobFaults == 0 {
		t.Fatalf("%d jobs: faults did not fire: outages %d, retries %d, job faults %d",
			n, res.Outages, res.Retries, res.JobFaults)
	}
	t.Logf("%d jobs: %.0f allocs, %d engine events", n, allocs, res.EngineEvents)
	return allocs
}

// TestSimulateAllocationSlope pins the per-job allocation cost of a faulty
// co-simulation: the marginal allocations from 2000 to 8000 jobs must stay
// under one per job. Fixed set-up cost (schedulers, fault expansion, slab
// growth to the live-job peak) does not count; anything allocated per
// event or per job does.
func TestSimulateAllocationSlope(t *testing.T) {
	a2, a8 := allocsPerSimulate(t, 2000), allocsPerSimulate(t, 8000)
	if slope := (a8 - a2) / 6000; slope >= 1 {
		t.Fatalf("%.2f allocations per additional job (2k jobs: %.0f, 8k jobs: %.0f), want < 1",
			slope, a2, a8)
	}
}
