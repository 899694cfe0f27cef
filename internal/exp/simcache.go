package exp

import (
	"wrht/internal/collective"
	"wrht/internal/core"
	"wrht/internal/runner"
)

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

// ScheduleCache memoizes lowered classed schedules (the symmetry-aware
// pricing form) across sweep points and fabric tenants. Cached schedules are
// shared: callers must treat them as immutable and must never Release them.
type ScheduleCache struct {
	m memo[ScheduleKey, *collective.ClassSchedule]
}

// NewScheduleCache returns an empty cache.
func NewScheduleCache() *ScheduleCache {
	return &ScheduleCache{}
}

// Schedule returns the memoized schedule for key, building it on first use.
func (c *ScheduleCache) Schedule(key ScheduleKey, build func() (*collective.ClassSchedule, error)) (*collective.ClassSchedule, error) {
	return c.m.do(key, build)
}

// Stats returns cache hits and misses (= distinct keys built).
func (c *ScheduleCache) Stats() (hits, misses int64) {
	return c.m.stats()
}

// SimKey identifies one priced simulation: the schedule identity plus the
// complete substrate configuration. Both options structs are comparable
// value types (ElectricalOptions.Network must be nil — derived from the
// schedule — for the result to be cacheable; callers on the cached path
// guarantee this).
type SimKey struct {
	Sched      ScheduleKey
	Electrical bool
	OptOpts    runner.OpticalOptions
	ElecOpts   runner.ElectricalOptions
}

// SimCache memoizes substrate simulation results — the most expensive layer:
// one entry saves an entire RunOptical/RunElectrical replay. Results are
// shared; callers must not mutate the Result's slices.
type SimCache struct {
	m memo[SimKey, runner.Result]
}

// NewSimCache returns an empty cache.
func NewSimCache() *SimCache {
	return &SimCache{}
}

// Run returns the memoized result for key, simulating on first use.
func (c *SimCache) Run(key SimKey, run func() (runner.Result, error)) (runner.Result, error) {
	return c.m.do(key, run)
}

// Stats returns cache hits and misses (= distinct simulations executed).
func (c *SimCache) Stats() (hits, misses int64) {
	return c.m.stats()
}
