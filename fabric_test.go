package wrht

import (
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"
)

// fabricTestConfig keeps fabric tests fast: 16 nodes, 16 wavelengths.
func fabricTestConfig() Config {
	cfg := DefaultConfig(16)
	cfg.Optical.Wavelengths = 16
	return cfg
}

// TestFabricSingleJobMatchesCommunicationTime is the bridge invariant: one
// tenant alone on the fabric must reproduce the dedicated single-ring path
// exactly (same simulator, full budget, zero queueing).
func TestFabricSingleJobMatchesCommunicationTime(t *testing.T) {
	cfg := fabricTestConfig()
	for _, alg := range []Algorithm{AlgWrht, AlgORing, AlgORingStriped} {
		want, err := CommunicationTime(cfg, alg, 1<<20)
		if err != nil {
			t.Fatal(err)
		}
		res, err := SimulateFabric(cfg,
			[]JobSpec{{Name: "solo", Bytes: 1 << 20, Algorithm: alg}},
			FabricPolicy{Kind: FabricFirstFit})
		if err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		j := res.Jobs[0]
		if j.QueueSec != 0 || j.Width != cfg.Optical.Wavelengths {
			t.Fatalf("%s: solo job queued or narrowed: %+v", alg, j)
		}
		if j.DoneSec != want.Seconds {
			t.Fatalf("%s: fabric %v != single-ring %v", alg, j.DoneSec, want.Seconds)
		}
		if math.Abs(j.Slowdown-1) > 1e-12 {
			t.Fatalf("%s: solo slowdown %v", alg, j.Slowdown)
		}
	}
}

// fabricTestJobs is a heterogeneous 8-job mix over the catalog models.
func fabricTestJobs() []JobSpec {
	models := []string{"AlexNet", "VGG16", "ResNet50", "GoogLeNet"}
	var jobs []JobSpec
	for i := 0; i < 8; i++ {
		jobs = append(jobs, JobSpec{
			Model:          models[i%len(models)],
			ArrivalSec:     float64(i) * 2e-3,
			Priority:       i % 3,
			MaxWavelengths: 4 + (i%3)*6,
		})
	}
	return jobs
}

func TestFabricPoliciesOnHeterogeneousMix(t *testing.T) {
	cfg := fabricTestConfig()
	results, err := CompareFabricPolicies(cfg, fabricTestJobs(), FabricPolicies())
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 4 {
		t.Fatalf("%d results", len(results))
	}
	for _, res := range results {
		if res.RejectedJobs != 0 {
			t.Fatalf("%s: rejected %d jobs", res.Policy, res.RejectedJobs)
		}
		if len(res.Jobs) != 8 {
			t.Fatalf("%s: %d jobs", res.Policy, len(res.Jobs))
		}
		if res.PeakWavelengths > res.Budget {
			t.Fatalf("%s: peak %d exceeds budget %d", res.Policy, res.PeakWavelengths, res.Budget)
		}
		if res.Utilization <= 0 || res.Utilization > 1 {
			t.Fatalf("%s: utilization %v", res.Policy, res.Utilization)
		}
		if res.Fairness <= 0 || res.Fairness > 1 {
			t.Fatalf("%s: fairness %v", res.Policy, res.Fairness)
		}
		for _, j := range res.Jobs {
			if j.Slowdown < 1-1e-9 {
				t.Fatalf("%s: job %s slowdown %v < 1", res.Policy, j.Name, j.Slowdown)
			}
			if len(j.Wavelengths) != j.Width || j.Width > res.Budget {
				t.Fatalf("%s: job %s wavelength set %v width %d", res.Policy, j.Name, j.Wavelengths, j.Width)
			}
		}
	}
}

func TestFabricDeterministic(t *testing.T) {
	cfg := fabricTestConfig()
	a, err := SimulateFabric(cfg, fabricTestJobs(), FabricPolicy{Kind: FabricPriority})
	if err != nil {
		t.Fatal(err)
	}
	b, err := SimulateFabric(cfg, fabricTestJobs(), FabricPolicy{Kind: FabricPriority})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("two identical fabric simulations differ")
	}
}

func TestFabricPriorityFavorsHighPriority(t *testing.T) {
	cfg := fabricTestConfig()
	jobs := []JobSpec{
		{Name: "bg", Model: "VGG16", Priority: 0, MinWavelengths: 16},
		{Name: "urgent", Model: "AlexNet", Priority: 5, ArrivalSec: 1e-3, MinWavelengths: 16},
	}
	res, err := SimulateFabric(cfg, jobs, FabricPolicy{Kind: FabricPriority})
	if err != nil {
		t.Fatal(err)
	}
	var bg, urgent FabricJobResult
	for _, j := range res.Jobs {
		switch j.Name {
		case "bg":
			bg = j
		case "urgent":
			urgent = j
		}
	}
	if urgent.QueueSec != 0 || bg.Preemptions == 0 {
		t.Fatalf("urgent should preempt bg: urgent=%+v bg=%+v", urgent, bg)
	}
	if bg.DoneSec <= urgent.DoneSec {
		t.Fatalf("preempted job finished first: bg=%v urgent=%v", bg.DoneSec, urgent.DoneSec)
	}
}

func TestFabricFixedGroupSizeRaisesMinimumGrant(t *testing.T) {
	// A fixed Wrht group size m structurally needs ⌊m/2⌋ wavelengths. A
	// tenant with the default minimum must not be dispatched at a narrower
	// width (which would abort the whole co-simulation mid-run).
	cfg := fabricTestConfig()
	cfg.WrhtGroupSize = 8
	jobs := []JobSpec{
		{Name: "wide", Bytes: 1 << 20, MaxWavelengths: 14},
		{Name: "late", Bytes: 1 << 20, ArrivalSec: 1e-6},
	}
	res, err := SimulateFabric(cfg, jobs, FabricPolicy{Kind: FabricFirstFit})
	if err != nil {
		t.Fatal(err)
	}
	late := res.Jobs[1]
	if late.Width < 4 {
		t.Fatalf("late tenant dispatched below the structural floor: %+v", late)
	}
	// A cap below the floor is impossible and reported up front.
	if _, err := SimulateFabric(cfg,
		[]JobSpec{{Name: "impossible", Model: "AlexNet", MaxWavelengths: 2}},
		FabricPolicy{Kind: FabricFirstFit}); err == nil {
		t.Fatal("cap below the structural floor accepted")
	}
}

func TestCompareFabricPoliciesSharesRuntimeCache(t *testing.T) {
	// The cached sweep must produce results identical to independent runs.
	cfg := fabricTestConfig()
	swept, err := CompareFabricPolicies(cfg, fabricTestJobs(), FabricPolicies())
	if err != nil {
		t.Fatal(err)
	}
	for i, pol := range FabricPolicies() {
		solo, err := SimulateFabric(cfg, fabricTestJobs(), pol)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(swept[i], solo) {
			t.Fatalf("%s: cached sweep differs from standalone run", pol)
		}
	}
}

// TestFabricCacheMemoizesRuntimeError: a runtime-curve point that fails to
// price is memoized as its error, like any other point. Concurrent requests
// for it build once, every later request is a hit returning the same error,
// and no request after the first reaches the plan cache again.
func TestFabricCacheMemoizesRuntimeError(t *testing.T) {
	cfg := fabricTestConfig()
	cfg.WrhtGroupSize = 9 // needs ⌊9/2⌋ = 4 wavelengths, so width 1 fails
	sess := newSession()
	curve := sess.runtime(cfg, AlgWrht, 1<<20)
	_, first := curve(1)
	if first == nil {
		t.Fatal("width 1 priced a group size that needs 4 wavelengths")
	}
	planHits, planBuilds := sess.plans.Stats()
	const callers = 16
	errs := make([]error, callers)
	var wg sync.WaitGroup
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = curve(1)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != first {
			t.Fatalf("caller %d got %v, want the memoized %v", i, err, first)
		}
	}
	if hits, builds := sess.fabric.Stats(); hits != callers || builds != 1 {
		t.Fatalf("fabric cache stats = (%d hits, %d builds), want (%d, 1)", hits, builds, callers)
	}
	if h, b := sess.plans.Stats(); h != planHits || b != planBuilds {
		t.Fatalf("memoized error re-planned: plan stats (%d, %d) → (%d, %d)", planHits, planBuilds, h, b)
	}
}

func TestFabricValidation(t *testing.T) {
	cfg := fabricTestConfig()
	ok := []JobSpec{{Bytes: 1 << 20}}
	if _, err := SimulateFabric(cfg, ok, FabricPolicy{Kind: "round-robin"}); err == nil {
		t.Fatal("unknown policy accepted")
	}
	if _, err := SimulateFabric(cfg, []JobSpec{{Bytes: 1 << 20, Algorithm: AlgERing}},
		FabricPolicy{Kind: FabricFirstFit}); err == nil {
		t.Fatal("electrical algorithm accepted on the optical fabric")
	}
	if _, err := SimulateFabric(cfg, []JobSpec{{Model: "NoSuchNet"}},
		FabricPolicy{Kind: FabricFirstFit}); err == nil {
		t.Fatal("unknown model accepted")
	}
	if _, err := SimulateFabric(cfg, []JobSpec{{Bytes: -5}},
		FabricPolicy{Kind: FabricFirstFit}); err == nil {
		t.Fatal("negative bytes accepted")
	}
	if _, err := SimulateFabric(cfg, []JobSpec{{Bytes: 1 << 20, MinWavelengths: -3}},
		FabricPolicy{Kind: FabricFirstFit}); err == nil {
		t.Fatal("negative MinWavelengths accepted")
	}
	bad := cfg
	bad.Nodes = 1
	if _, err := SimulateFabric(bad, ok, FabricPolicy{Kind: FabricFirstFit}); err == nil {
		t.Fatal("invalid config accepted")
	}
}

// TestJobSpecValidate: every malformed field is rejected with a clear error
// up front instead of being silently clamped (or panicking) downstream.
func TestJobSpecValidate(t *testing.T) {
	good := JobSpec{Name: "ok", Bytes: 1 << 20, MinWavelengths: 2, MaxWavelengths: 8, Iterations: 2}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	cases := []struct {
		name string
		spec JobSpec
	}{
		{"negative bytes", JobSpec{Name: "j", Bytes: -1}},
		{"negative bytes with model", JobSpec{Name: "j", Model: "AlexNet", Bytes: -7}},
		{"negative arrival", JobSpec{Name: "j", Bytes: 1, ArrivalSec: -0.5}},
		{"NaN arrival", JobSpec{Name: "j", Bytes: 1, ArrivalSec: math.NaN()}},
		{"Inf arrival", JobSpec{Name: "j", Bytes: 1, ArrivalSec: math.Inf(1)}},
		{"negative min", JobSpec{Name: "j", Bytes: 1, MinWavelengths: -2}},
		{"negative max", JobSpec{Name: "j", Bytes: 1, MaxWavelengths: -2}},
		{"min above max", JobSpec{Name: "j", Bytes: 1, MinWavelengths: 8, MaxWavelengths: 4}},
		{"negative iterations", JobSpec{Name: "j", Bytes: 1, Iterations: -1}},
	}
	cfg := fabricTestConfig()
	for _, tc := range cases {
		if err := tc.spec.Validate(); err == nil {
			t.Errorf("%s: Validate accepted %+v", tc.name, tc.spec)
		}
		// The same rejection surfaces through SimulateFabric before any
		// simulation runs (regression: a negative Bytes used to be ignored
		// when Model was set, and an inverted range surfaced as an opaque
		// internal error).
		if _, err := SimulateFabric(cfg, []JobSpec{tc.spec}, FabricPolicy{Kind: FabricFirstFit}); err == nil {
			t.Errorf("%s: SimulateFabric accepted %+v", tc.name, tc.spec)
		}
	}
}

// churnTestJobs is a departure-heavy mix: a wide long-running job plus
// bursts of short narrow-start jobs, so capacity frees repeatedly while
// later tenants are still running at the widths they started with.
func churnTestJobs() []JobSpec {
	jobs := []JobSpec{
		{Name: "pioneer", Model: "VGG16", Iterations: 2},
	}
	for i := 0; i < 6; i++ {
		jobs = append(jobs, JobSpec{
			Name:       fmt.Sprintf("short%d", i),
			Model:      "AlexNet",
			ArrivalSec: 1e-3 + float64(i)*5e-4,
		})
	}
	return jobs
}

// TestFabricElasticImprovesOnFirstFit: on a departure-heavy mix, widening
// survivors into freed capacity must strictly beat first-fit's
// grant-once-and-hold on both makespan and mean slowdown.
func TestFabricElasticImprovesOnFirstFit(t *testing.T) {
	cfg := fabricTestConfig()
	results, err := CompareFabricPolicies(cfg, churnTestJobs(), []FabricPolicy{
		{Kind: FabricFirstFit},
		{Kind: FabricElastic, ReconfigDelaySec: 2e-6},
	})
	if err != nil {
		t.Fatal(err)
	}
	ff, el := results[0], results[1]
	if el.MakespanSec >= ff.MakespanSec {
		t.Fatalf("elastic makespan %v not better than first-fit %v", el.MakespanSec, ff.MakespanSec)
	}
	if el.MeanSlowdown >= ff.MeanSlowdown {
		t.Fatalf("elastic mean slowdown %v not better than first-fit %v", el.MeanSlowdown, ff.MeanSlowdown)
	}
	reconfigs := 0
	sawEvent := false
	for _, j := range el.Jobs {
		reconfigs += j.Reconfigs
	}
	for _, ev := range el.Events {
		if ev.Kind == "reconfig" {
			sawEvent = true
		}
	}
	if reconfigs == 0 || !sawEvent {
		t.Fatalf("elastic run reconfigured %d times, reconfig event seen: %v", reconfigs, sawEvent)
	}
}

// TestFabricElasticSoloMatchesCommunicationTime extends the bridge
// invariant to the elastic policy: a lone tenant never reconfigures, so it
// reproduces the dedicated-ring time exactly even with a settling delay.
func TestFabricElasticSoloMatchesCommunicationTime(t *testing.T) {
	cfg := fabricTestConfig()
	want, err := CommunicationTime(cfg, AlgWrht, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	res, err := SimulateFabric(cfg,
		[]JobSpec{{Name: "solo", Bytes: 1 << 20}},
		FabricPolicy{Kind: FabricElastic, ReconfigDelaySec: 2e-6})
	if err != nil {
		t.Fatal(err)
	}
	j := res.Jobs[0]
	if j.DoneSec != want.Seconds || j.Reconfigs != 0 {
		t.Fatalf("solo elastic tenant: %+v vs dedicated %v", j, want.Seconds)
	}
}

// TestFabricTiedPrioritiesStableAcrossParallelism: a mix where every job
// shares one priority and arrival time must co-simulate identically at any
// sweep parallelism (the tie is broken by admission index, not by worker
// scheduling).
func TestFabricTiedPrioritiesStableAcrossParallelism(t *testing.T) {
	var jobs []JobSpec
	for i := 0; i < 6; i++ {
		jobs = append(jobs, JobSpec{
			Name:     fmt.Sprintf("tied%d", i),
			Bytes:    int64(1+i) << 19,
			Priority: 2, // same priority, same (zero) arrival for all
		})
	}
	spec := SweepSpec{
		Base:           fabricTestConfig(),
		FabricMixes:    []FabricMix{{Name: "tied", Jobs: jobs}},
		FabricPolicies: []FabricPolicy{{Kind: FabricPriority}, {Kind: FabricElastic}},
	}
	var want *SweepResult
	for _, par := range []int{1, 4, 8} {
		spec.Parallelism = par
		got, err := RunSweep(spec)
		if err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = got
			continue
		}
		if !reflect.DeepEqual(want.Cells, got.Cells) {
			t.Fatalf("tied-priority fabric sweep differs at parallelism %d", par)
		}
	}
}

// TestSessionFabricDistinguishesConfigs: the session-scoped fabric runtime
// cache keys on the full Config, so co-simulating two different substrate
// configurations on one SweepSession never serves one configuration's
// runtimes to the other (regression: the key once held only the node count).
func TestSessionFabricDistinguishesConfigs(t *testing.T) {
	jobs := []JobSpec{
		{Name: "a", Bytes: 4 << 20},
		{Name: "b", Bytes: 2 << 20, ArrivalSec: 1e-4},
	}
	policies := []FabricPolicy{{Kind: FabricFirstFit}}
	cfgA := DefaultConfig(16)
	cfgB := DefaultConfig(16)
	cfgB.Optical.GbpsPerWavelength /= 4

	sess := NewSweepSession()
	if _, err := sess.CompareFabricPolicies(cfgA, jobs, policies); err != nil {
		t.Fatal(err)
	}
	warm, err := sess.CompareFabricPolicies(cfgB, jobs, policies)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := CompareFabricPolicies(cfgB, jobs, policies)
	if err != nil {
		t.Fatal(err)
	}
	if warm[0].MakespanSec != fresh[0].MakespanSec {
		t.Fatalf("session served stale runtimes across configs: warm %v, fresh %v",
			warm[0].MakespanSec, fresh[0].MakespanSec)
	}
}
