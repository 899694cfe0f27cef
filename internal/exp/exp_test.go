package exp

import (
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"wrht/internal/collective"
	"wrht/internal/core"
	"wrht/internal/runner"
)

func TestRunStableOrderAndErrorCapture(t *testing.T) {
	const n = 100
	var want []int
	for i := 0; i < n; i++ {
		want = append(want, i*i)
	}
	for _, par := range []int{0, 1, 3, 16, 200} {
		res, errs := Run(nil, n, par, func(i int) (int, error) {
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

// TestRunRepanicsOnCaller: a panicking point must not kill the process
// from a worker goroutine; Run stops handing out indices and re-panics the
// first value on the caller, where an ordinary recover catches it.
func TestRunRepanicsOnCaller(t *testing.T) {
	const n = 1000
	var ran atomic.Int64
	got := func() (r any) {
		defer func() { r = recover() }()
		Run(nil, n, 4, func(i int) (int, error) {
			ran.Add(1)
			if i == 17 {
				panic("point 17")
			}
			// Slow enough that draining every index after the panic would
			// take a third of a second on the three surviving workers.
			time.Sleep(time.Millisecond)
			return i, nil
		})
		return nil
	}()
	if got != "point 17" {
		t.Fatalf("recovered %v, want the point's panic value", got)
	}
	if ran.Load() == n {
		t.Fatal("pool kept handing out indices after the panic")
	}
}

func TestPlanCachePointerIdentity(t *testing.T) {
	var c PlanCache
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
	var c PlanCache
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
	var c PlanCache
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

func TestPlanCacheRetainsOnlyRequestedPlans(t *testing.T) {
	var c PlanCache
	opts := core.DefaultOptions() // M = 0: automatic group size
	auto, err := c.Plan(512, 64, opts)
	if err != nil {
		t.Fatal(err)
	}
	// The optimizer prices 256 candidates (m ∈ [2, 129] under both
	// policies); only the winner, under the requested key, stays in the table.
	c.m.mu.Lock()
	entries := len(c.m.entries)
	c.m.mu.Unlock()
	if entries != 1 {
		t.Fatalf("automatic request left %d memo entries, want 1", entries)
	}
	// The chosen shape requested explicitly is its own key: a counted miss
	// that rebuilds the identical plan.
	explicit := opts
	explicit.M = auto.M
	explicit.Policy = auto.Policy
	p, err := c.Plan(512, 64, explicit)
	if err != nil {
		t.Fatal(err)
	}
	if p.Sig() != auto.Sig() {
		t.Fatalf("explicit plan signature %+v, optimizer's %+v", p.Sig(), auto.Sig())
	}
	if !reflect.DeepEqual(p.ReduceLevels, auto.ReduceLevels) {
		t.Fatal("explicit plan's levels differ from the optimizer's choice")
	}
	hits, misses := c.Stats()
	if hits != 0 || misses != 2 {
		t.Fatalf("stats = (%d hits, %d misses), want (0, 2)", hits, misses)
	}
}

// TestPlanCacheCountersUnderConcurrency: with overlapping automatic and
// explicit keys requested from many goroutines, the first request per key
// is the only miss, whatever the interleaving.
func TestPlanCacheCountersUnderConcurrency(t *testing.T) {
	var c PlanCache
	var keys []core.Options
	auto := core.DefaultOptions()
	keys = append(keys, auto)
	for _, m := range []int{2, 3, 4, 5} {
		for _, policy := range []core.A2APolicy{core.A2AFormula, core.A2AGreedy} {
			o := auto
			o.M = m
			o.Policy = policy
			keys = append(keys, o)
		}
	}
	const workers, rounds = 8, 3
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for i := range keys {
					o := keys[(i+g)%len(keys)]
					for _, w := range []int{2, 4} {
						if _, err := c.Plan(48, w, o); err != nil {
							t.Error(err)
							return
						}
					}
				}
			}
		}(g)
	}
	wg.Wait()
	distinct := int64(2 * len(keys))
	requests := int64(workers * rounds * 2 * len(keys))
	hits, misses := c.Stats()
	if misses != distinct || hits != requests-distinct {
		t.Fatalf("stats = (%d hits, %d misses), want (%d, %d)",
			hits, misses, requests-distinct, distinct)
	}
}

func TestScheduleCacheSharing(t *testing.T) {
	var c Memo[ScheduleKey, *collective.ClassSchedule]
	key := ScheduleKey{Algorithm: "ring", N: 8, Elems: 64}
	builds := 0
	build := func() (*collective.ClassSchedule, error) {
		builds++
		return collective.RingAllReduceClassed(8, 64)
	}
	s1, err := c.Do(key, build)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := c.Do(key, build)
	if err != nil {
		t.Fatal(err)
	}
	if s1 != s2 || builds != 1 {
		t.Fatalf("cache did not share: builds=%d", builds)
	}
	other := key
	other.Elems = 128
	if _, err := c.Do(other, func() (*collective.ClassSchedule, error) {
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
	var c Memo[SimKey, runner.Result]
	key := SimKey{
		Sched:   ScheduleKey{Algorithm: "ring", N: 8, Elems: 64},
		OptOpts: runner.DefaultOpticalOptions(),
	}
	runs := 0
	run := func() (runner.Result, error) {
		runs++
		return runner.RunOpticalClassedObserved(cls, runner.DefaultOpticalOptions(), nil, "")
	}
	r1, err := c.Do(key, run)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := c.Do(key, run)
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
	if _, err := c.Do(wider, func() (runner.Result, error) {
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
	var c Memo[SimKey, runner.Result]
	key := SimKey{Sched: ScheduleKey{Algorithm: "ring", N: 16, Elems: 256}, OptOpts: runner.DefaultOpticalOptions()}
	var runs int64
	var wg sync.WaitGroup
	results := make([]runner.Result, 32)
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r, err := c.Do(key, func() (runner.Result, error) {
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
