package fleet

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"wrht/internal/fabric"
)

// testRT prices shape s on fabric f as (0.1*(1+s))/w, slightly slowed on
// higher-index fabrics so placements are not all symmetric.
func testRT(fab, shape, w int) (float64, error) {
	return 0.1 * float64(1+shape) * (1 + 0.05*float64(fab)) / float64(w), nil
}

func smallFleet() []FabricSpec {
	return []FabricSpec{
		{Name: "big", Nodes: 64, Wavelengths: 16, ReconfigDelaySec: 0.001, MigrationCostSec: 0.5},
		{Name: "mid", Nodes: 32, Wavelengths: 8, ReconfigDelaySec: 0.002, MigrationCostSec: 0.3},
		{Name: "small", Nodes: 16, Wavelengths: 4, ReconfigDelaySec: 0.005, MigrationCostSec: 0.1},
	}
}

// testFloors gives smallTrace's four shapes no structural floor.
var testFloors = []int{1, 1, 1, 1}

func smallTrace(t *testing.T, n int) []Job {
	t.Helper()
	jobs, err := TraceSpec{
		Kind: Poisson, Jobs: n, Seed: 42, MeanGapSec: 0.02,
		NumShapes: 4, NumFabrics: 3, MaxWidth: 8,
	}.Gen()
	if err != nil {
		t.Fatal(err)
	}
	return jobs
}

func mustFleet(t *testing.T, specs []FabricSpec, jobs []Job, opt Options) Result {
	t.Helper()
	res, err := Simulate(specs, testFloors, jobs, testRT, opt)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestFleetValidation(t *testing.T) {
	ok := smallFleet()
	jobs := smallTrace(t, 10)
	cases := []struct {
		name  string
		specs []FabricSpec
		jobs  []Job
		rt    RuntimeFunc
		opt   Options
		want  string
	}{
		{"empty fleet", nil, jobs, testRT, Options{}, "empty fleet"},
		{"no jobs", ok, nil, testRT, Options{}, "no jobs"},
		{"nil runtime", ok, jobs, nil, Options{}, "no runtime"},
		{"bad placement", ok, jobs, testRT, Options{Placement: PlacementKind(9)}, "placement kind"},
		{"zero budget", []FabricSpec{{Name: "x", Nodes: 8, Wavelengths: 0}}, jobs, testRT, Options{},
			"wavelength budget 0"},
		{"one node", []FabricSpec{{Name: "x", Nodes: 1, Wavelengths: 4}}, jobs, testRT, Options{},
			"node count 1"},
		{"negative reconfig", []FabricSpec{{Name: "x", Nodes: 8, Wavelengths: 4, ReconfigDelaySec: -1}},
			jobs, testRT, Options{}, "reconfiguration delay"},
		{"negative migration", []FabricSpec{{Name: "x", Nodes: 8, Wavelengths: 4, MigrationCostSec: -2}},
			jobs, testRT, Options{}, "migration cost"},
		{"nan migration", []FabricSpec{{Name: "x", Nodes: 8, Wavelengths: 4, MigrationCostSec: math.NaN()}},
			jobs, testRT, Options{}, "migration cost"},
		{"negative arrival", ok, []Job{{ArrivalSec: -1}}, testRT, Options{}, "arrival"},
		{"bad range", ok, []Job{{MinWavelengths: 5, MaxWavelengths: 2}}, testRT, Options{}, "wavelength range"},
		{"negative minimum", ok, []Job{{MinWavelengths: -5}}, testRT, Options{}, "wavelength range"},
		{"bad shape", ok, []Job{{Shape: -1}}, testRT, Options{}, "shape"},
		{"shape past floors", ok, []Job{{Name: "x", Shape: 4}}, testRT, Options{}, "shape 4 with 4 shapes"},
		{"bad affinity", ok, []Job{{Affinity: 3}}, testRT, Options{}, "affinity"},
		{"bad affinity low", ok, []Job{{Affinity: -2}}, testRT, Options{}, "affinity"},
		{"bad iterations", ok, []Job{{Iterations: -1}}, testRT, Options{}, "iterations"},
		{"negative checkpoint", ok, []Job{{CheckpointEverySec: -3}}, testRT, Options{}, "checkpoint interval"},
		{"inf checkpoint", ok, []Job{{CheckpointEverySec: math.Inf(1)}}, testRT, Options{}, "checkpoint interval"},
	}
	for _, c := range cases {
		_, err := Simulate(c.specs, testFloors, c.jobs, c.rt, c.opt)
		if err == nil {
			t.Fatalf("%s: expected error", c.name)
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Fatalf("%s: error %q does not mention %q", c.name, err, c.want)
		}
	}
}

// TestFleetDeterministic pins that two identical runs produce identical
// results, per placement policy and in both stats modes.
func TestFleetDeterministic(t *testing.T) {
	jobs := smallTrace(t, 60)
	for _, pk := range []PlacementKind{LeastLoaded, BestFit, PriorityAware} {
		for _, lite := range []bool{false, true} {
			opt := Options{Placement: pk, Lite: lite}
			a := mustFleet(t, smallFleet(), jobs, opt)
			b := mustFleet(t, smallFleet(), jobs, opt)
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("%v lite=%v: non-deterministic fleet result", pk, lite)
			}
		}
	}
}

// TestFleetLiteMatchesFullAggregates pins that Lite mode reproduces the
// full mode's fleet aggregates.
func TestFleetLiteMatchesFullAggregates(t *testing.T) {
	jobs := smallTrace(t, 80)
	for _, pk := range []PlacementKind{LeastLoaded, BestFit, PriorityAware} {
		full := mustFleet(t, smallFleet(), jobs, Options{Placement: pk})
		lite := mustFleet(t, smallFleet(), jobs, Options{Placement: pk, Lite: true})
		if lite.PerJob != nil {
			t.Fatalf("%v: lite retained per-job placements", pk)
		}
		if lite.Completed != full.Completed || lite.Rejected != full.Rejected ||
			lite.Migrations != full.Migrations || lite.Reconfigs != full.Reconfigs ||
			lite.Preemptions != full.Preemptions {
			t.Fatalf("%v: counts diverge:\n  lite %+v\n  full %+v", pk, lite, full)
		}
		approx := func(a, b float64) bool {
			return math.Abs(a-b) <= 1e-9*(1+math.Abs(a)+math.Abs(b))
		}
		if !approx(lite.MakespanSec, full.MakespanSec) ||
			!approx(lite.MeanSlowdown, full.MeanSlowdown) ||
			!approx(lite.Fairness, full.Fairness) ||
			!approx(lite.Utilization, full.Utilization) {
			t.Fatalf("%v: aggregates diverge:\n  lite %+v\n  full %+v", pk, lite, full)
		}
	}
}

// TestFleetPlacementSpreads pins that least-loaded actually spreads an
// affinity-free burst across fabrics rather than piling onto one.
func TestFleetPlacementSpreads(t *testing.T) {
	var jobs []Job
	for i := 0; i < 12; i++ {
		jobs = append(jobs, Job{
			ArrivalSec: float64(i) * 1e-4, MaxWavelengths: 4,
			Iterations: 1, Shape: 0, Affinity: -1,
		})
	}
	res := mustFleet(t, smallFleet(), jobs, Options{Placement: LeastLoaded})
	used := 0
	for _, f := range res.PerFabric {
		if f.Placed > 0 {
			used++
		}
	}
	if used < 2 {
		t.Fatalf("least-loaded piled all 12 jobs onto one fabric: %+v", res.PerFabric)
	}
	if res.Migrations != 0 {
		t.Fatalf("affinity-free jobs counted as migrations: %d", res.Migrations)
	}
}

// TestFleetMigrationAccounting pins that off-affinity placements pay the
// target fabric's migration cost and are counted, and that priority-aware
// placement keeps a job home when migration is expensive.
func TestFleetMigrationAccounting(t *testing.T) {
	specs := []FabricSpec{
		{Name: "home", Nodes: 16, Wavelengths: 2, MigrationCostSec: 5},
		{Name: "away", Nodes: 16, Wavelengths: 16, MigrationCostSec: 5},
	}
	// One job with affinity 0; least-loaded will move it to the empty big
	// fabric... but both are empty, so load is 0 on both; the tie-break
	// keeps it home. Add a blocker on home first so home is loaded.
	jobs := []Job{
		{Name: "blocker", ArrivalSec: 0, MaxWavelengths: 2, Affinity: 0},
		{Name: "mover", ArrivalSec: 1e-3, MaxWavelengths: 2, Affinity: 0},
	}
	res := mustFleet(t, specs, jobs, Options{Placement: LeastLoaded})
	if res.Migrations != 1 {
		t.Fatalf("expected exactly 1 migration, got %d (%+v)", res.Migrations, res.PerFabric)
	}
	if res.MigrationSec != 5 {
		t.Fatalf("migration delay %v, want 5", res.MigrationSec)
	}
	var mover PlacedJob
	for _, p := range res.PerJob {
		if p.Name == "mover" {
			mover = p
		}
	}
	if !mover.Migrated || mover.Fabric != 1 || mover.MigrationSec != 5 {
		t.Fatalf("mover placement: %+v", mover)
	}
	// Priority-aware weighs the 5 s migration against a sub-second queue
	// wait and keeps the mover home.
	res = mustFleet(t, specs, jobs, Options{Placement: PriorityAware})
	if res.Migrations != 0 {
		t.Fatalf("priority-aware migrated despite 5s cost: %+v", res.PerFabric)
	}
}

// TestFleetUnplaceable pins the fleet-level rejection of jobs whose
// minimum exceeds every budget.
func TestFleetUnplaceable(t *testing.T) {
	specs := []FabricSpec{{Name: "tiny", Nodes: 8, Wavelengths: 2}}
	jobs := []Job{
		{Name: "fits", MaxWavelengths: 2},
		{Name: "huge", MinWavelengths: 4, MaxWavelengths: 8},
	}
	res := mustFleet(t, specs, jobs, Options{})
	if res.Unplaceable != 1 || res.Rejected != 1 || res.Completed != 1 {
		t.Fatalf("unplaceable accounting: %+v", res)
	}
}

// TestFleetSolverStatsAggregate pins that per-fabric solver-work counters
// roll up into the fleet result.
func TestFleetSolverStatsAggregate(t *testing.T) {
	res := mustFleet(t, smallFleet(), smallTrace(t, 60), Options{
		Placement: BestFit, Policy: fabric.ElasticReallocate, Lite: true,
	})
	if res.Solver.Solves == 0 || res.Solver.JobsRepriced == 0 {
		t.Fatalf("fleet solver counters empty: %+v", res.Solver)
	}
	if res.Solver.CurveHits == 0 {
		t.Fatalf("shape curve cache never hit on a 60-job 4-shape trace: %+v", res.Solver)
	}
}

// TestFleetStructuralFloor pins that a shape's floor raises every job's
// minimum grant: under elastic reallocation, which shrinks tenants to
// their minimums, no job of a floor-3 shape ever starts, or is priced,
// below three wavelengths. A cap below the floor is rejected up front.
func TestFleetStructuralFloor(t *testing.T) {
	floors := []int{3}
	rt := func(fab, shape, w int) (float64, error) {
		if w < floors[shape] {
			return 0, fmt.Errorf("shape %d priced at width %d", shape, w)
		}
		return testRT(fab, shape, w)
	}
	jobs, err := TraceSpec{
		Kind: Poisson, Jobs: 60, Seed: 42, MeanGapSec: 0.02,
		NumShapes: 1, NumFabrics: 3, MaxWidth: 8,
	}.Gen()
	if err != nil {
		t.Fatal(err)
	}
	for i := range jobs {
		jobs[i].MaxWavelengths = max(jobs[i].MaxWavelengths, 3)
	}
	res, err := Simulate(smallFleet(), floors, jobs, rt, Options{
		Placement: BestFit, Policy: fabric.ElasticReallocate,
	})
	if err != nil {
		t.Fatal(err)
	}
	starts := 0
	for _, f := range res.PerFabric {
		for _, ev := range f.Result.Events {
			if ev.Kind == fabric.EvStart {
				starts++
				if ev.Wavelengths < 3 {
					t.Fatalf("fabric %q started %q on %d wavelengths", f.Name, ev.Job, ev.Wavelengths)
				}
			}
		}
	}
	if starts == 0 || res.Completed == 0 || len(res.PerJob) != len(jobs) {
		t.Fatalf("%d starts, %d completed, %d per-job records", starts, res.Completed, len(res.PerJob))
	}
	for _, p := range res.PerJob {
		if !p.Stats.Rejected && p.Stats.Width < 3 {
			t.Fatalf("job %q ran on %d wavelengths", p.Name, p.Stats.Width)
		}
	}

	jobs[7].MaxWavelengths = 2
	if _, err := Simulate(smallFleet(), floors, jobs, rt, Options{}); err == nil ||
		!strings.Contains(err.Error(), "job 7") || !strings.Contains(err.Error(), "floor") {
		t.Fatalf("cap below the floor: error %v", err)
	}
}
