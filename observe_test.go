package wrht

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"wrht/internal/electrical"
	"wrht/internal/exp"
	"wrht/internal/obs"
	"wrht/internal/runner"
)

func observeTestJobs() []JobSpec {
	return []JobSpec{
		{Name: "a", Model: "AlexNet", MaxWavelengths: 8},
		{Name: "b", Model: "AlexNet", ArrivalSec: 1e-4, MaxWavelengths: 8, Iterations: 2},
		{Name: "c", Model: "VGG16", ArrivalSec: 2e-3},
	}
}

// TestObservedSessionBitIdentical: enabling the flight recorder changes no
// priced number — CommunicationTime and SimulateFabric results on an
// observed session are deep-equal to an unobserved one.
func TestObservedSessionBitIdentical(t *testing.T) {
	plain := NewSweepSession()
	observed := NewSweepSession()
	observed.Observe()

	for _, nodes := range []int{16, 64} {
		cfg := DefaultConfig(nodes)
		for _, alg := range PaperAlgorithms() {
			want, err1 := plain.CommunicationTime(cfg, alg, 4<<20)
			got, err2 := observed.CommunicationTime(cfg, alg, 4<<20)
			if (err1 == nil) != (err2 == nil) {
				t.Fatalf("N=%d %s: error divergence: plain=%v observed=%v", nodes, alg, err1, err2)
			}
			if err1 == nil && !reflect.DeepEqual(got, want) {
				t.Fatalf("N=%d %s: observed pricing diverges\n got %+v\nwant %+v", nodes, alg, got, want)
			}
		}
	}

	cfg := DefaultConfig(64)
	for _, pol := range FabricPolicies() {
		want, err1 := plain.SimulateFabric(cfg, observeTestJobs(), pol)
		got, err2 := observed.SimulateFabric(cfg, observeTestJobs(), pol)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("%s: fabric error divergence: plain=%v observed=%v", pol.Kind, err1, err2)
		}
		if err1 == nil && !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: observed fabric result diverges", pol.Kind)
		}
	}
}

// observedSweepTrace runs a fixed mixed grid (communication cells plus a
// fabric mix) on a fresh observed session at the given parallelism and
// returns the exported trace bytes.
func observedSweepTrace(t *testing.T, parallelism int) []byte {
	t.Helper()
	ss := NewSweepSession()
	ob := ss.Observe()
	res, err := ss.RunSweep(SweepSpec{
		Base:         DefaultConfig(16),
		Wavelengths:  []int{8, 16},
		MessageBytes: []int64{1 << 20, 4 << 20},
		Algorithms:   []Algorithm{AlgWrht, AlgHD, AlgERing},
		Parallelism:  parallelism,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Err(); err != nil {
		t.Fatal(err)
	}
	fres, err := ss.RunSweep(SweepSpec{
		Base:        DefaultConfig(16),
		FabricMixes: []FabricMix{{Name: "mix", Jobs: observeTestJobs()}},
		Parallelism: parallelism,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := fres.Err(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ob.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestTraceBytesDeterministicAcrossParallelism: the exported Perfetto trace
// is a pure function of the work priced, not of the worker interleaving —
// serial and 8-way sweeps of the same grid export identical bytes.
func TestTraceBytesDeterministicAcrossParallelism(t *testing.T) {
	serial := observedSweepTrace(t, 1)
	for _, par := range []int{4, 8} {
		if got := observedSweepTrace(t, par); !bytes.Equal(got, serial) {
			t.Fatalf("trace bytes differ between Parallelism=1 and Parallelism=%d", par)
		}
	}
	if len(serial) < 1000 {
		t.Fatalf("trace suspiciously small (%d bytes) — did the sweep record anything?", len(serial))
	}
}

// TestCacheStatsFabricRuntime: the fabric layer's runtime-curve cache is
// surfaced through CacheStats — a policy comparison prices each distinct
// (tenant, width) curve point once and serves every later policy from cache.
func TestCacheStatsFabricRuntime(t *testing.T) {
	ss := NewSweepSession()
	if _, err := ss.CompareFabricPolicies(DefaultConfig(64), observeTestJobs(), FabricPolicies()); err != nil {
		t.Fatal(err)
	}
	st := ss.Stats()
	if st.FabricRuntimeBuilds == 0 {
		t.Fatal("FabricRuntimeBuilds = 0 after a fabric comparison")
	}
	if st.FabricRuntimeHits == 0 {
		t.Fatal("FabricRuntimeHits = 0 — policies are not sharing the runtime cache")
	}
	// A repeated comparison is served entirely from cache.
	builds := st.FabricRuntimeBuilds
	if _, err := ss.CompareFabricPolicies(DefaultConfig(64), observeTestJobs(), FabricPolicies()); err != nil {
		t.Fatal(err)
	}
	st2 := ss.Stats()
	if st2.FabricRuntimeBuilds != builds {
		t.Fatalf("second comparison rebuilt runtime curves: %d → %d builds", builds, st2.FabricRuntimeBuilds)
	}
	if st2.FabricRuntimeHits <= st.FabricRuntimeHits {
		t.Fatal("second comparison did not hit the runtime cache")
	}
}

// TestMetricsSnapshotRenders: the snapshot renders the same sections and
// cell values in markdown and CSV, carries the pricing counters an observed
// run must produce, and degrades to cache-stats-only on unobserved sessions.
func TestMetricsSnapshotRenders(t *testing.T) {
	ss := NewSweepSession()
	ss.Observe()
	if _, err := ss.CommunicationTime(DefaultConfig(16), AlgWrht, 1<<20); err != nil {
		t.Fatal(err)
	}
	if _, err := ss.SimulateFabric(DefaultConfig(64), observeTestJobs(), FabricPolicy{Kind: FabricElastic}); err != nil {
		t.Fatal(err)
	}
	snap := ss.Snapshot()
	counters := map[string]float64{}
	for _, c := range snap.Counters {
		counters[c.Name] = c.Value
	}
	for _, name := range []string{
		"collective.schedules.built", "pricer.optical.runs",
		"fabric.sims", "fabric.events.finish",
	} {
		if counters[name] == 0 {
			t.Errorf("counter %s missing or zero in snapshot (have %v)", name, counters)
		}
	}
	if len(snap.Wavelengths) == 0 {
		t.Error("snapshot has no wavelength occupancy rows after a fabric run")
	}
	if snap.Spans == 0 || snap.Instants == 0 {
		t.Errorf("snapshot stream counts empty: %d spans, %d instants", snap.Spans, snap.Instants)
	}

	md, csv := snap.Markdown(), snap.CSV()
	for _, section := range []string{"Cache layers", "Counters", "Gauges", "Wavelength occupancy"} {
		if !strings.Contains(md, section) {
			t.Errorf("markdown snapshot missing %q section:\n%s", section, md)
		}
		if !strings.Contains(csv, section) {
			t.Errorf("CSV snapshot missing %q section", section)
		}
	}
	if !strings.Contains(md, "fabric.sims") || !strings.Contains(csv, "fabric.sims") {
		t.Error("snapshot formats disagree on fabric.sims")
	}

	// Unobserved sessions still snapshot (cache stats only).
	bare := NewSweepSession()
	if _, err := bare.CommunicationTime(DefaultConfig(16), AlgWrht, 1<<20); err != nil {
		t.Fatal(err)
	}
	bsnap := bare.Snapshot()
	if len(bsnap.Counters) != 0 || bsnap.Spans != 0 {
		t.Fatalf("unobserved snapshot carries recorder state: %+v", bsnap)
	}
	if bsnap.Cache.ScheduleBuilds == 0 {
		t.Fatal("unobserved snapshot missing cache stats")
	}
	if out := bsnap.Markdown(); !strings.Contains(out, "Cache layers") {
		t.Fatalf("unobserved snapshot markdown broken:\n%s", out)
	}
}

// TestMetricsSnapshotFleetSolverCounters pins the observability contract of
// the incremental elastic solver and the fleet layer: an observed fleet
// simulation must surface the solver work counters (fabric.solver.*) and the
// fleet counters in MetricsSnapshot, so dashboards and the CI smoke grep can
// rely on the names.
func TestMetricsSnapshotFleetSolverCounters(t *testing.T) {
	ss := NewSweepSession()
	ss.Observe()
	jobs := fleetTestTrace(t, 40)
	res, err := ss.SimulateFleet(DefaultConfig(32), fleetTestFabrics(), fleetTestShapes(), jobs, FleetOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.SolverSolves == 0 {
		t.Fatal("elastic fleet run reported zero solver invocations")
	}

	snap := ss.Snapshot()
	counters := map[string]float64{}
	for _, c := range snap.Counters {
		counters[c.Name] = c.Value
	}
	// Guaranteed non-zero after an elastic fleet run of this size.
	for _, name := range []string{
		"fabric.solver.solves", "fabric.solver.tiers_touched",
		"fabric.solver.jobs_repriced", "fabric.solver.curve_builds",
		"fabric.solver.curve_hits",
		"fleet.sims", "fleet.jobs", "fleet.engine.events",
	} {
		if counters[name] == 0 {
			t.Errorf("counter %s missing or zero after an observed fleet run", name)
		}
	}
	// Registered even when zero — presence is the contract.
	for _, name := range []string{"fabric.solver.tiers_skipped", "fleet.migrations"} {
		if _, ok := counters[name]; !ok {
			t.Errorf("counter %s not registered in snapshot", name)
		}
	}
	// The recorder's counters must agree with the result's own accounting.
	if got, want := counters["fabric.solver.solves"], float64(res.SolverSolves); got != want {
		t.Errorf("fabric.solver.solves = %v, result reports %v", got, want)
	}
	if got, want := counters["fleet.jobs"], float64(len(jobs)); got != want {
		t.Errorf("fleet.jobs = %v, submitted %v", got, want)
	}
}

// TestInspectScheduleClasses: the public certificate inspector agrees with
// the schedule's structure — the paper algorithms at N=1024 certify their
// symmetric steps, and the partition invariants hold everywhere.
func TestInspectScheduleClasses(t *testing.T) {
	cfg := DefaultConfig(16)
	st, err := InspectScheduleClasses(cfg, AlgWrht, 4<<20)
	if err != nil {
		t.Fatal(err)
	}
	if st.Steps == 0 || st.Transfers == 0 {
		t.Fatalf("empty inspection: %+v", st)
	}
	if st.CertifiedSteps+st.MaterializedSteps != st.Steps {
		t.Fatalf("certified %d + materialized %d != steps %d",
			st.CertifiedSteps, st.MaterializedSteps, st.Steps)
	}
	if st.DemotedSteps > st.MaterializedSteps {
		t.Fatalf("demoted %d exceeds materialized %d", st.DemotedSteps, st.MaterializedSteps)
	}

	// The ring at N=1024 is fully certified (one class per step).
	rst, err := InspectScheduleClasses(DefaultConfig(1024), AlgORing, 4<<20)
	if err != nil {
		t.Fatal(err)
	}
	if rst.CertifiedSteps != rst.Steps || rst.MaterializedSteps != 0 {
		t.Fatalf("O-Ring at N=1024 not fully certified: %+v", rst)
	}

	if _, err := InspectScheduleClasses(cfg, AlgWrht, 0); err == nil {
		t.Fatal("non-positive size accepted")
	}
}

// TestSimProcNamesStable pins the recorder process names of two simulation
// keys byte for byte: exported traces name every simulation by a hash of
// its key, so a change to the hashed text moves every trace.
func TestSimProcNamesStable(t *testing.T) {
	s := newSession()
	s.rec.Store(obs.New())
	elec := exp.SimKey{
		Sched:      exp.ScheduleKey{Algorithm: "rd", N: 64, Elems: 1 << 20},
		Electrical: true,
		ElecOpts:   runner.ElectricalOptions{Params: electrical.DefaultParams(), BytesPerElem: 4},
	}
	opt := exp.SimKey{Sched: exp.ScheduleKey{N: 64, Elems: 1 << 20}, OptOpts: runner.DefaultOpticalOptions()}
	for key, want := range map[exp.SimKey]string{
		elec: "price electrical rd N=64 elems=1048576 · key ecc87ce2c2d9cf8a",
		opt:  "price optical wrht N=64 elems=1048576 · key d5fcece8492ad270",
	} {
		if got := s.simProc(key); got != want {
			t.Errorf("simProc = %q, want %q", got, want)
		}
	}
}
