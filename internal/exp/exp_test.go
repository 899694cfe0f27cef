package exp

import (
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"wrht/internal/collective"
	"wrht/internal/core"
	"wrht/internal/runner"
)

func TestGridSizeAndDeterministicOrder(t *testing.T) {
	g := Grid{
		Nodes:        []int{16, 32},
		MessageBytes: []int64{1 << 10, 1 << 20, 1 << 30},
		Algorithms:   []string{"wrht", "o-ring"},
	}
	if got := g.Size(); got != 12 {
		t.Fatalf("Size() = %d, want 12", got)
	}
	pts := g.Points()
	if len(pts) != 12 {
		t.Fatalf("%d points", len(pts))
	}
	for i, p := range pts {
		if p.Index != i {
			t.Fatalf("point %d has Index %d", i, p.Index)
		}
	}
	// Fixed nesting: nodes outermost, then message sizes, then algorithms.
	want := Point{Index: 1, Nodes: 16, MessageBytes: 1 << 10, Algorithm: "o-ring"}
	if pts[1] != want {
		t.Fatalf("pts[1] = %+v, want %+v", pts[1], want)
	}
	want = Point{Index: 8, Nodes: 32, MessageBytes: 1 << 20, Algorithm: "wrht"}
	if pts[8] != want {
		t.Fatalf("pts[8] = %+v, want %+v", pts[8], want)
	}
	if !reflect.DeepEqual(pts, g.Points()) {
		t.Fatal("re-enumeration changed the point list")
	}
}

func TestGridEmptyAxesCollapse(t *testing.T) {
	pts := Grid{}.Points()
	if len(pts) != 1 || pts[0] != (Point{}) {
		t.Fatalf("empty grid: %+v", pts)
	}
}

func TestRunStableOrderAndErrorCapture(t *testing.T) {
	const n = 100
	var want []int
	for i := 0; i < n; i++ {
		want = append(want, i*i)
	}
	for _, par := range []int{0, 1, 3, 16, 200} {
		res, errs := Run(n, par, func(i int) (int, error) {
			if i%7 == 0 {
				return -1, fmt.Errorf("point %d failed", i)
			}
			return i * i, nil
		})
		for i := 0; i < n; i++ {
			if i%7 == 0 {
				if errs[i] == nil {
					t.Fatalf("par=%d: point %d error not captured", par, i)
				}
				continue
			}
			if errs[i] != nil || res[i] != want[i] {
				t.Fatalf("par=%d: point %d = (%d, %v), want (%d, nil)",
					par, i, res[i], errs[i], want[i])
			}
		}
	}
}

func TestPlanCachePointerIdentity(t *testing.T) {
	c := NewPlanCache()
	opts := core.DefaultOptions()
	p1, err := c.Plan(64, 8, opts)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := c.Plan(64, 8, opts)
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 {
		t.Fatal("repeated key did not return the pointer-identical plan")
	}
	p3, err := c.Plan(64, 16, opts)
	if err != nil {
		t.Fatal(err)
	}
	if p3 == p1 {
		t.Fatal("distinct keys share a plan")
	}
	hits, misses := c.Stats()
	if hits != 1 || misses != 2 {
		t.Fatalf("stats = (%d hits, %d misses), want (1, 2)", hits, misses)
	}
}

func TestPlanCacheConcurrentSharing(t *testing.T) {
	c := NewPlanCache()
	const workers = 64
	plans := make([]*core.Plan, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p, err := c.Plan(128, 16, core.DefaultOptions())
			if err != nil {
				t.Error(err)
				return
			}
			plans[i] = p
		}(i)
	}
	wg.Wait()
	for i := 1; i < workers; i++ {
		if plans[i] != plans[0] {
			t.Fatal("concurrent callers received different plans for one key")
		}
	}
	hits, misses := c.Stats()
	if misses != 1 || hits != workers-1 {
		t.Fatalf("stats = (%d hits, %d misses), want (%d, 1)", hits, misses, workers-1)
	}
}

func TestPlanCacheMemoizesErrors(t *testing.T) {
	c := NewPlanCache()
	opts := core.DefaultOptions()
	opts.M = 9 // ⌊9/2⌋ = 4 wavelengths needed; a budget of 1 is infeasible
	_, err1 := c.Plan(64, 1, opts)
	if err1 == nil {
		t.Fatal("infeasible key built")
	}
	_, err2 := c.Plan(64, 1, opts)
	if err2 != err1 {
		t.Fatal("error not memoized")
	}
	if _, misses := c.Stats(); misses != 1 {
		t.Fatalf("%d misses, want 1", misses)
	}
}

func TestPlanCacheSharesOptimizerCandidates(t *testing.T) {
	c := NewPlanCache()
	opts := core.DefaultOptions() // M = 0: automatic group size
	auto, err := c.Plan(24, 8, opts)
	if err != nil {
		t.Fatal(err)
	}
	// Requesting the chosen shape explicitly must be served from the
	// candidate the optimizer already built — pointer identity, no rebuild.
	explicit := opts
	explicit.M = auto.M
	explicit.Policy = auto.Policy
	before := core.PlanBuildCount()
	p, err := c.Plan(24, 8, explicit)
	if err != nil {
		t.Fatal(err)
	}
	if p != auto {
		t.Fatal("explicit-m request did not reuse the optimizer's candidate plan")
	}
	if d := core.PlanBuildCount() - before; d != 0 {
		t.Fatalf("explicit-m request issued %d BuildPlan calls, want 0", d)
	}
	// Caller-visible stats count only the two requests, each a miss (first
	// counted request per key — candidate fills don't pre-claim keys, which
	// keeps the counters deterministic under concurrency).
	hits, misses := c.Stats()
	if hits != 0 || misses != 2 {
		t.Fatalf("stats = (%d hits, %d misses), want (0, 2)", hits, misses)
	}
}

func TestScheduleCacheSharing(t *testing.T) {
	c := NewScheduleCache()
	key := ScheduleKey{Algorithm: "ring", N: 8, Elems: 64}
	builds := 0
	build := func() (*collective.ClassSchedule, error) {
		builds++
		return collective.RingAllReduceClassed(8, 64)
	}
	s1, err := c.Schedule(key, build)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := c.Schedule(key, build)
	if err != nil {
		t.Fatal(err)
	}
	if s1 != s2 || builds != 1 {
		t.Fatalf("cache did not share: builds=%d", builds)
	}
	other := key
	other.Elems = 128
	if _, err := c.Schedule(other, func() (*collective.ClassSchedule, error) {
		builds++
		return collective.RingAllReduceClassed(8, 128)
	}); err != nil {
		t.Fatal(err)
	}
	if builds != 2 {
		t.Fatalf("distinct key did not build: builds=%d", builds)
	}
	hits, misses := c.Stats()
	if hits != 1 || misses != 2 {
		t.Fatalf("stats = (%d, %d), want (1, 2)", hits, misses)
	}
}

func TestSimCacheSharing(t *testing.T) {
	cls, err := collective.RingAllReduceClassed(8, 64)
	if err != nil {
		t.Fatal(err)
	}
	c := NewSimCache()
	key := SimKey{
		Sched:   ScheduleKey{Algorithm: "ring", N: 8, Elems: 64},
		OptOpts: runner.DefaultOpticalOptions(),
	}
	runs := 0
	run := func() (runner.Result, error) {
		runs++
		return runner.RunOpticalClassedObserved(cls, runner.DefaultOpticalOptions(), nil, "")
	}
	r1, err := c.Run(key, run)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := c.Run(key, run)
	if err != nil {
		t.Fatal(err)
	}
	if runs != 1 {
		t.Fatalf("simulated %d times, want 1", runs)
	}
	if r1.TotalSec != r2.TotalSec || r1.TotalSec <= 0 {
		t.Fatalf("cached results diverge: %v vs %v", r1.TotalSec, r2.TotalSec)
	}
	// Different substrate options are distinct entries.
	wider := key
	wider.OptOpts.DefaultWidth = 8
	if _, err := c.Run(wider, func() (runner.Result, error) {
		runs++
		o := runner.DefaultOpticalOptions()
		o.DefaultWidth = 8
		return runner.RunOpticalClassedObserved(cls, o, nil, "")
	}); err != nil {
		t.Fatal(err)
	}
	if runs != 2 {
		t.Fatalf("distinct options did not rerun: runs=%d", runs)
	}
}

func TestSimCacheConcurrentSingleRun(t *testing.T) {
	cls, err := collective.RingAllReduceClassed(16, 256)
	if err != nil {
		t.Fatal(err)
	}
	c := NewSimCache()
	key := SimKey{Sched: ScheduleKey{Algorithm: "ring", N: 16, Elems: 256}, OptOpts: runner.DefaultOpticalOptions()}
	var runs int64
	var wg sync.WaitGroup
	results := make([]runner.Result, 32)
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r, err := c.Run(key, func() (runner.Result, error) {
				atomic.AddInt64(&runs, 1)
				return runner.RunOpticalClassedObserved(cls, runner.DefaultOpticalOptions(), nil, "")
			})
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = r
		}(i)
	}
	wg.Wait()
	if runs != 1 {
		t.Fatalf("concurrent callers ran %d simulations, want 1", runs)
	}
	for i := 1; i < 32; i++ {
		if results[i].TotalSec != results[0].TotalSec {
			t.Fatal("concurrent callers got different results")
		}
	}
}
