package exp

import (
	"sync"

	"wrht/internal/core"
)

// memo is a mutex+once memoization table: the map is mutex-guarded, each
// entry computes under its own sync.Once, so concurrent requests for the
// same key share a single computation (and distinct keys compute in
// parallel) while every caller receives the same value. Errors are memoized
// too. A miss is the first request for a key and a hit any repeat, so the
// counters are deterministic whatever the scheduling of concurrent
// workers. It is the shared machinery behind the three cache layers
// (plan → schedule → simulation).
type memo[K comparable, V any] struct {
	mu      sync.Mutex
	entries map[K]*memoEntry[V]
	hits    int64
	misses  int64
}

type memoEntry[V any] struct {
	once sync.Once
	val  V
	err  error
}

// do returns the memoized value for key, computing it with fn on first use.
func (m *memo[K, V]) do(key K, fn func() (V, error)) (V, error) {
	m.mu.Lock()
	if m.entries == nil {
		m.entries = map[K]*memoEntry[V]{}
	}
	e, ok := m.entries[key]
	if ok {
		m.hits++
	} else {
		e = &memoEntry[V]{}
		m.entries[key] = e
		m.misses++
	}
	m.mu.Unlock()
	e.once.Do(func() {
		e.val, e.err = fn()
	})
	return e.val, e.err
}

// stats returns the hits and misses so far; both are deterministic for a
// fixed request multiset, whatever the parallelism.
func (m *memo[K, V]) stats() (hits, misses int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.hits, m.misses
}

// PlanKey identifies one Wrht plan: core.BuildPlan is a pure function of
// these fields, so equal keys always yield identical plans.
type PlanKey struct {
	N, W int
	Opts core.Options
}

// PlanCache memoizes core.BuildPlan across concurrent sweep workers. Plans
// are immutable after construction, so sharing one pointer across goroutines
// is safe; build errors are memoized too (an infeasible key fails once, not
// once per point).
//
// Only requested keys are stored. An automatic-group-size key (Opts.M == 0)
// runs core.ChooseM, which builds and discards every candidate plan; the
// winner is stored under the automatic key alone, so a later request for
// the same shape with an explicit group size is its own miss. (The schedule
// and simulation caches key on core.PlanSig, so that rebuilt plan still
// shares their entries.)
type PlanCache struct {
	m memo[PlanKey, *core.Plan]
}

// NewPlanCache returns an empty cache.
func NewPlanCache() *PlanCache {
	return &PlanCache{}
}

// Plan returns the memoized plan for (n, w, opts), building it on first use.
func (c *PlanCache) Plan(n, w int, opts core.Options) (*core.Plan, error) {
	key := PlanKey{N: n, W: w, Opts: opts}
	return c.m.do(key, func() (*core.Plan, error) {
		if opts.M == 0 && n >= 2 && w >= 1 {
			return core.ChooseM(n, w, opts)
		}
		return core.BuildPlan(n, w, opts)
	})
}

// Stats returns the number of cache hits and misses so far: a miss is the
// first Plan request for a key, a hit any repeat; both are deterministic
// for a fixed request multiset, whatever the parallelism.
func (c *PlanCache) Stats() (hits, misses int64) {
	return c.m.stats()
}
