package wrht

import (
	"reflect"
	"strings"
	"testing"
)

func fleetTestFabrics() []FleetFabricSpec {
	return []FleetFabricSpec{
		{Name: "big", Nodes: 16, Wavelengths: 16, ReconfigDelaySec: 2e-6, MigrationCostSec: 0.01},
		{Name: "mid", Nodes: 16, Wavelengths: 8, ReconfigDelaySec: 2e-6, MigrationCostSec: 0.005},
		{Name: "small", Nodes: 8, Wavelengths: 4, ReconfigDelaySec: 5e-6, MigrationCostSec: 0.002},
	}
}

func fleetTestShapes() []FleetShape {
	return []FleetShape{
		{Model: "AlexNet"},
		{Model: "ResNet50"},
		{Bytes: 1 << 20},
	}
}

func fleetTestTrace(t *testing.T, n int) []FleetJob {
	t.Helper()
	jobs, err := GenerateFleetTrace(FleetTraceSpec{
		Kind: "poisson", Jobs: n, Seed: 9, MeanGapSec: 2e-3,
		NumShapes: 3, NumFabrics: 3, MaxWidth: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	return jobs
}

// TestSimulateFleetDeterministic pins that a fleet co-simulation is
// reproducible and structurally sane across placement policies.
func TestSimulateFleetDeterministic(t *testing.T) {
	cfg := fabricTestConfig()
	jobs := fleetTestTrace(t, 40)
	for _, placement := range []string{FleetLeastLoaded, FleetBestFit, FleetPriorityAware} {
		opt := FleetOptions{Placement: placement, Lite: true}
		a, err := SimulateFleet(cfg, fleetTestFabrics(), fleetTestShapes(), jobs, opt)
		if err != nil {
			t.Fatalf("%s: %v", placement, err)
		}
		b, err := SimulateFleet(cfg, fleetTestFabrics(), fleetTestShapes(), jobs, opt)
		if err != nil {
			t.Fatalf("%s: %v", placement, err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%s: fleet result not deterministic", placement)
		}
		if a.Completed+a.Rejected != a.Jobs {
			t.Fatalf("%s: %d completed + %d rejected != %d jobs", placement, a.Completed, a.Rejected, a.Jobs)
		}
		placed := 0
		for _, f := range a.PerFabric {
			placed += f.Placed
		}
		if placed+a.Unplaceable != a.Jobs {
			t.Fatalf("%s: %d placed + %d unplaceable != %d jobs", placement, placed, a.Unplaceable, a.Jobs)
		}
		if a.SolverSolves == 0 || a.CurveBuilds == 0 {
			t.Fatalf("%s: solver counters empty: %+v", placement, a)
		}
		if a.CurveHits == 0 {
			t.Fatalf("%s: 40 jobs over 3 shapes never hit the shape curve cache", placement)
		}
	}
}

// TestSimulateFleetSessionCurveSharing pins the session-level promise:
// fabrics with equal ring sizes share runtime-curve cache entries, and a
// second run on the same session prices fully warm.
func TestSimulateFleetSessionCurveSharing(t *testing.T) {
	cfg := fabricTestConfig()
	jobs := fleetTestTrace(t, 40)
	ss := NewSweepSession()
	if _, err := ss.SimulateFleet(cfg, fleetTestFabrics(), fleetTestShapes(), jobs, FleetOptions{Lite: true}); err != nil {
		t.Fatal(err)
	}
	first := ss.Stats()
	if first.FabricRuntimeBuilds == 0 {
		t.Fatal("first run built no runtime curves")
	}
	if _, err := ss.SimulateFleet(cfg, fleetTestFabrics(), fleetTestShapes(), jobs, FleetOptions{Lite: true}); err != nil {
		t.Fatal(err)
	}
	second := ss.Stats()
	if second.FabricRuntimeBuilds != first.FabricRuntimeBuilds {
		t.Fatalf("second identical run built %d new curves",
			second.FabricRuntimeBuilds-first.FabricRuntimeBuilds)
	}
	if second.FabricRuntimeHits <= first.FabricRuntimeHits {
		t.Fatal("second identical run hit no cached curves")
	}
}

// TestSimulateFleetValidation covers the public-layer rejections on top of
// internal/fleet's.
func TestSimulateFleetValidation(t *testing.T) {
	cfg := fabricTestConfig()
	fabs := fleetTestFabrics()
	shapes := fleetTestShapes()
	jobs := fleetTestTrace(t, 5)
	cases := []struct {
		name string
		run  func() error
		want string
	}{
		{"empty fleet", func() error {
			_, err := SimulateFleet(cfg, nil, shapes, jobs, FleetOptions{})
			return err
		}, "empty fleet"},
		{"no shapes", func() error {
			_, err := SimulateFleet(cfg, fabs, nil, jobs, FleetOptions{})
			return err
		}, "no workload shapes"},
		{"bad placement", func() error {
			_, err := SimulateFleet(cfg, fabs, shapes, jobs, FleetOptions{Placement: "round-robin"})
			return err
		}, "placement"},
		{"bad policy", func() error {
			_, err := SimulateFleet(cfg, fabs, shapes, jobs, FleetOptions{Policy: FabricPolicy{Kind: "torus"}})
			return err
		}, "unknown fabric policy"},
		{"electrical shape", func() error {
			bad := []FleetShape{{Bytes: 1 << 20, Algorithm: AlgERing}}
			_, err := SimulateFleet(cfg, fabs, bad, jobs, FleetOptions{})
			return err
		}, "electrical"},
		{"bad shape index", func() error {
			bad := append([]FleetJob(nil), jobs...)
			bad[0].Shape = 99
			_, err := SimulateFleet(cfg, fabs, shapes, bad, FleetOptions{})
			return err
		}, "shape 99"},
		{"negative minimum", func() error {
			bad := append([]FleetJob(nil), jobs...)
			bad[1].Name, bad[1].MinWavelengths = "neg-min", -5
			_, err := SimulateFleet(cfg, fabs, shapes, bad, FleetOptions{})
			return err
		}, `job 1 ("neg-min") wavelength range`},
		{"negative checkpoint interval", func() error {
			bad := append([]FleetJob(nil), jobs...)
			bad[2].Name, bad[2].CheckpointEverySec = "neg-ckpt", -3
			_, err := SimulateFleet(cfg, fabs, shapes, bad, FleetOptions{})
			return err
		}, `job 2 ("neg-ckpt") checkpoint interval`},
		{"cap below the structural floor", func() error {
			// m=8 needs four wavelengths; only job 3 is capped below that.
			cfgM := cfg
			cfgM.WrhtGroupSize = 8
			bad := append([]FleetJob(nil), jobs...)
			for i := range bad {
				bad[i].MaxWavelengths = 0
			}
			bad[3].Name, bad[3].MaxWavelengths = "narrow", 2
			_, err := SimulateFleet(cfgM, fabs, shapes, bad, FleetOptions{})
			return err
		}, `job 3 ("narrow") MaxWavelengths 2 below`},
		{"bad budget", func() error {
			badFabs := append([]FleetFabricSpec(nil), fabs...)
			badFabs[1].Wavelengths = -4
			_, err := SimulateFleet(cfg, badFabs, shapes, jobs, FleetOptions{})
			return err
		}, "wavelength budget"},
		{"negative migration", func() error {
			badFabs := append([]FleetFabricSpec(nil), fabs...)
			badFabs[2].MigrationCostSec = -1
			_, err := SimulateFleet(cfg, badFabs, shapes, jobs, FleetOptions{})
			return err
		}, "migration cost"},
		{"bad trace kind", func() error {
			_, err := GenerateFleetTrace(FleetTraceSpec{Kind: "uniform", Jobs: 1, MeanGapSec: 1, NumShapes: 1, NumFabrics: 1})
			return err
		}, "trace kind"},
		{"bad trace gap", func() error {
			_, err := GenerateFleetTrace(FleetTraceSpec{Jobs: 1, MeanGapSec: -1, NumShapes: 1, NumFabrics: 1})
			return err
		}, "mean gap"},
	}
	for _, c := range cases {
		err := c.run()
		if err == nil {
			t.Fatalf("%s: expected error", c.name)
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Fatalf("%s: error %q does not mention %q", c.name, err, c.want)
		}
	}
}

// TestSimulateFleetSoloMatchesFabric is the bridge invariant one layer up:
// a single job on a one-fabric fleet reproduces SimulateFabric's numbers
// for the same tenant.
func TestSimulateFleetSoloMatchesFabric(t *testing.T) {
	cfg := fabricTestConfig()
	fabs := []FleetFabricSpec{{Name: "only", Nodes: cfg.Nodes, Wavelengths: cfg.Optical.Wavelengths, ReconfigDelaySec: 2e-6}}
	shapes := []FleetShape{{Bytes: 1 << 20}}
	res, err := SimulateFleet(cfg, fabs, shapes,
		[]FleetJob{{Name: "solo", Affinity: -1}}, FleetOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := SimulateFabric(cfg, []JobSpec{{Name: "solo", Bytes: 1 << 20}},
		FabricPolicy{Kind: FabricElastic, ReconfigDelaySec: 2e-6})
	if err != nil {
		t.Fatal(err)
	}
	if res.MakespanSec != ref.MakespanSec {
		t.Fatalf("fleet solo makespan %v != fabric %v", res.MakespanSec, ref.MakespanSec)
	}
	if res.Completed != 1 || res.Migrations != 0 {
		t.Fatalf("fleet solo outcome: %+v", res)
	}
}

// TestSimulateFleetLeavesInputsUnwritten pins that a fleet co-simulation
// never writes the caller's fabric and job slices, even when it fills in
// default names, records per-job results and migrates jobs off failed
// fabrics.
func TestSimulateFleetLeavesInputsUnwritten(t *testing.T) {
	cfg := fabricTestConfig()
	fabs := fleetTestFabrics()
	for i := range fabs {
		fabs[i].Name = ""
	}
	jobs := fleetTestTrace(t, 40)
	for i := range jobs {
		jobs[i].CheckpointEverySec = 1e-3
	}
	wantFabs := append([]FleetFabricSpec(nil), fabs...)
	wantJobs := append([]FleetJob(nil), jobs...)
	res, err := SimulateFleet(cfg, fabs, fleetTestShapes(), jobs, FleetOptions{
		Placement: FleetBestFit,
		Faults: FaultPlan{Seed: 3, HorizonSec: 0.08, JobFaultMTBFSec: 5e-3, Scripted: []FaultEvent{
			{TimeSec: 0.02, Kind: FaultFabricDown, Fabric: 0},
			{TimeSec: 0.05, Kind: FaultFabricUp, Fabric: 0},
		}},
		Recovery: RecoveryMigrateOnFailure,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Outages != 1 || res.Evictions == 0 || res.PerFabric[0].Name != "fabric0" {
		t.Fatalf("outage not exercised or default names missing: %+v", res)
	}
	if !reflect.DeepEqual(fabs, wantFabs) {
		t.Fatalf("fabric specs written:\n  got  %+v\n  want %+v", fabs, wantFabs)
	}
	if !reflect.DeepEqual(jobs, wantJobs) {
		t.Fatal("jobs written by SimulateFleet")
	}
}
