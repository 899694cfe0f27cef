package exp

import (
	"sync"

	"wrht/internal/core"
	"wrht/internal/runner"
)

// Memo is a concurrent memoization table: the map is mutex-guarded, each
// entry computes under its own sync.Once, so concurrent requests for the
// same key share a single computation (and distinct keys compute in
// parallel) while every caller receives the same value. Errors are memoized
// too. A miss is the first request for a key and a hit any repeat, so the
// counters are deterministic whatever the scheduling of concurrent
// workers. The zero value is an empty table.
//
// It is the one memo behind every pricing cache: the plan cache below, and
// the root package's schedule, simulation and fabric runtime-curve caches.
// Cached values are shared: callers must treat them as immutable.
type Memo[K comparable, V any] struct {
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

// Do returns the memoized value for key, computing it with fn on first use.
func (m *Memo[K, V]) Do(key K, fn func() (V, error)) (V, error) {
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

// Stats returns the hits and misses (= distinct keys computed) so far; both
// are deterministic for a fixed request multiset, whatever the parallelism.
func (m *Memo[K, V]) Stats() (hits, misses int64) {
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
// shares their entries.) The zero value is an empty cache.
type PlanCache struct {
	m Memo[PlanKey, *core.Plan]
}

// Plan returns the memoized plan for (n, w, opts), building it on first use.
func (c *PlanCache) Plan(n, w int, opts core.Options) (*core.Plan, error) {
	key := PlanKey{N: n, W: w, Opts: opts}
	return c.m.Do(key, func() (*core.Plan, error) {
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
	return c.m.Stats()
}

// ScheduleKey identifies one lowered schedule. Exactly one of the two
// identity halves is set: Algorithm names a classical schedule constructor
// ("ring", "rd", "hd", "binomial" — pure functions of N and Elems), while a
// non-zero Sig identifies a planned Wrht schedule (core.PlanSig fully
// determines the lowering, so the optimizer's plan and the same plan
// requested with an explicit group size share one entry). Chunks
// distinguishes the chunked-pipeline lowering (0 = plain).
type ScheduleKey struct {
	Algorithm string
	N         int
	Elems     int
	Chunks    int
	Sig       core.PlanSig
}

// SimKey identifies one priced simulation: the schedule identity plus the
// complete substrate configuration. Both options structs are comparable
// value types; the electrical cluster itself follows from the schedule's
// host count.
type SimKey struct {
	Sched      ScheduleKey
	Electrical bool
	OptOpts    runner.OpticalOptions
	ElecOpts   runner.ElectricalOptions
}
