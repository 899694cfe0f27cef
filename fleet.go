package wrht

import (
	"fmt"
	"hash/fnv"

	"wrht/internal/fleet"
)

// FleetFabricSpec describes one fabric of a heterogeneous fleet: a ring of
// Nodes workers sharing Wavelengths optical wavelengths, with its own
// elastic reconfiguration delay and inter-fabric migration cost. All other
// substrate parameters (rates, overheads, BytesPerElem, ...) come from the
// Config passed to SimulateFleet. It is the fleet layer's own type; its
// fields are documented there.
type FleetFabricSpec = fleet.FabricSpec

// FleetShape is one workload shape of a fleet trace: jobs sharing a shape
// run the same model (or byte count) under the same algorithm, so they
// share runtime curves — the whole fleet prices each (fabric ring size,
// shape, width) triple through the single-ring simulation at most once.
type FleetShape struct {
	// Model names a catalog network; when set, its gradient size overrides
	// Bytes.
	Model string
	// Bytes is the all-reduced buffer size when Model is empty.
	Bytes int64
	// Algorithm prices the shape's all-reduce (default AlgWrht; electrical
	// algorithms are rejected).
	Algorithm Algorithm
}

// FleetJob is one trace entry: a tenant to be placed on some fabric of the
// fleet. Shape indexes SimulateFleet's shapes slice, and MinWavelengths is
// raised to the shape algorithm's structural floor. It is the fleet
// layer's own type; its fields are documented there.
type FleetJob = fleet.Job

// Fleet placement policies.
const (
	// FleetLeastLoaded places each job on the admissible fabric with the
	// lowest committed-load fraction.
	FleetLeastLoaded = "least-loaded"
	// FleetBestFit places each job on the fabric whose free wavelengths
	// most tightly fit its desired width.
	FleetBestFit = "best-fit"
	// FleetPriorityAware weighs migration cost against same-or-higher
	// priority contention, scaled by the job's solo runtime.
	FleetPriorityAware = "priority-aware"
)

// FleetOptions configures a fleet co-simulation.
type FleetOptions struct {
	// Placement is FleetLeastLoaded (default), FleetBestFit, or
	// FleetPriorityAware.
	Placement string
	// Policy is the per-fabric scheduling policy (default FabricElastic;
	// each fabric's ReconfigDelaySec comes from its spec, and FabricStatic
	// partition counts are not configurable at the fleet layer).
	Policy FabricPolicy
	// Lite drops per-job results and the per-fabric event traces, keeping
	// aggregates only — required for 10^5+ job traces.
	Lite bool
	// Faults injects seeded failures on the fleet's shared timeline; the
	// zero plan leaves every result bit-identical to a fault-free run.
	Faults FaultPlan
	// Recovery is RecoveryRetrySameFabric (default), RecoveryFailFast, or
	// RecoveryMigrateOnFailure; it governs jobs caught in fabric outages.
	Recovery string
	// MaxRetries/RetryBackoffSec/RetryBackoffMaxSec on the Faults plan
	// bound the recovery backoff at both the fabric and fleet layers.
}

// FleetFabricResult is one fabric's share of a fleet co-simulation.
type FleetFabricResult struct {
	Name   string
	Budget int
	// Placed counts jobs routed here; Migrated those that paid a migration
	// to land here.
	Placed       int
	Migrated     int
	Completed    int
	Rejected     int
	MakespanSec  float64
	MeanSlowdown float64
	Utilization  float64
	Reconfigs    int
	Preemptions  int
	// Fault shares (all zero without a FaultPlan).
	JobFaults   int
	Evictions   int
	Retries     int
	FailedJobs  int
	LostWorkSec float64
}

// FleetResult aggregates a trace-driven fleet co-simulation.
type FleetResult struct {
	Placement string
	Policy    FabricPolicy
	Fabrics   int
	Jobs      int
	Completed int
	// Rejected counts jobs that never completed; Unplaceable is its subset
	// rejected at the fleet front door (minimum grant above every budget).
	Rejected    int
	Unplaceable int
	// Migrations counts off-affinity placements; MigrationSec totals the
	// delay they paid.
	Migrations   int
	MigrationSec float64
	MakespanSec  float64
	MeanQueueSec float64
	MaxQueueSec  float64
	MeanSlowdown float64
	// Fairness is Jain's index over completed jobs' slowdowns, fleet-wide.
	Fairness float64
	// Utilization is lit wavelength-seconds over total budget x makespan.
	Utilization float64
	Reconfigs   int
	Preemptions int
	// EngineEvents counts executed events on the fleet's shared timeline.
	EngineEvents int64
	// Solver work counters, summed across fabrics: re-solve passes, tiers
	// the incremental solver filled vs. proved untouched, jobs re-priced,
	// and shape runtime-curve cache traffic.
	SolverSolves       int64
	SolverTiersTouched int64
	SolverTiersSkipped int64
	SolverJobsRepriced int64
	CurveHits          int64
	CurveBuilds        int64
	// Fault-recovery aggregates (all zero without a FaultPlan): Outages
	// counts whole-fabric failures; Killed jobs dropped by
	// RecoveryFailFast; FailedJobs exhausted retry budgets; JobFaults/
	// Evictions/Retries/LostWorkSec sum the per-fabric fault counters plus
	// work discarded by cross-fabric restarts.
	Outages     int
	Killed      int
	JobFaults   int
	Evictions   int
	Retries     int
	FailedJobs  int
	LostWorkSec float64
	// Availability is the capacity-weighted fraction of fleet
	// wavelength-second capacity not lost to dark wavelengths or outages
	// (1 without faults). P99Slowdown is the 99th-percentile completed-job
	// slowdown (nearest-rank; 0 under Lite).
	Availability float64
	P99Slowdown  float64
	PerFabric    []FleetFabricResult
}

// FleetTraceSpec parameterizes a seeded synthetic arrival trace for
// SimulateFleet: Kind is "poisson" (exponential gaps, the default),
// "diurnal" (sinusoidally rate-modulated), or "heavy-tail" (Pareto gaps
// with correlated same-instant bursts). It is the fleet layer's own type;
// its fields and defaults are documented there.
type FleetTraceSpec = fleet.TraceSpec

// GenerateFleetTrace generates a seeded synthetic arrival trace. The same
// spec yields the identical trace on every call.
func GenerateFleetTrace(spec FleetTraceSpec) ([]FleetJob, error) {
	return spec.Gen()
}

// SimulateFleet places every job of the trace onto a datacenter of
// heterogeneous optical fabrics and co-simulates all fabrics on one shared
// event timeline. Each fabric runs the per-fabric scheduling policy with
// its own wavelength budget and reconfiguration delay; the placement
// policy routes arrivals, paying migration costs for off-affinity
// placements. Pricing goes through the same single-ring simulation path as
// SimulateFabric, with runtime curves shared across every job of a shape
// and across fabrics with equal ring sizes. Deterministic: the same
// inputs produce the identical FleetResult.
func SimulateFleet(cfg Config, fabrics []FleetFabricSpec, shapes []FleetShape, jobs []FleetJob, opt FleetOptions) (FleetResult, error) {
	return simulateFleet(cfg, fabrics, shapes, jobs, opt, newSession(), nil)
}

func simulateFleet(cfg Config, fabrics []FleetFabricSpec, shapes []FleetShape, jobs []FleetJob, opt FleetOptions, sess *session, cancel func() error) (FleetResult, error) {
	if err := cfg.Validate(); err != nil {
		return FleetResult{}, err
	}
	if len(shapes) == 0 {
		return FleetResult{}, fmt.Errorf("wrht: no workload shapes")
	}

	var placement fleet.PlacementKind
	switch opt.Placement {
	case "", FleetLeastLoaded:
		placement = fleet.LeastLoaded
	case FleetBestFit:
		placement = fleet.BestFit
	case FleetPriorityAware:
		placement = fleet.PriorityAware
	default:
		return FleetResult{}, fmt.Errorf("wrht: unknown fleet placement %q", opt.Placement)
	}
	policy := opt.Policy
	if policy.Kind == "" {
		policy.Kind = FabricElastic
	}
	pol, err := policy.internal()
	if err != nil {
		return FleetResult{}, err
	}

	// Resolve each shape once, then give it one runtime closure per
	// fabric (the session cache keys on the full config, so fabrics with
	// equal Nodes share curves).
	tenants := make([]tenant, len(shapes))
	floors := make([]int, len(shapes))
	for si, sh := range shapes {
		t, err := opticalTenant(cfg, sh.Algorithm, "an optical fabric")
		if err != nil {
			return FleetResult{}, fmt.Errorf("wrht: shape %d: %w", si, err)
		}
		if t.bytes, err = jobBytes(cfg, JobSpec{Name: fmt.Sprintf("shape%d", si), Model: sh.Model, Bytes: sh.Bytes}); err != nil {
			return FleetResult{}, fmt.Errorf("wrht: shape %d: %w", si, err)
		}
		tenants[si], floors[si] = t, t.floor
	}
	curves := make([][]func(int) (float64, error), len(fabrics))
	for fi, f := range fabrics {
		cfgF := cfg
		cfgF.Nodes = f.Nodes
		curves[fi] = make([]func(int) (float64, error), len(tenants))
		for si, t := range tenants {
			curves[fi][si] = sess.runtime(cfgF, t.alg, t.bytes)
		}
	}
	rt := func(fab, shape, w int) (float64, error) {
		return curves[fab][shape](w)
	}

	var recovery fleet.RecoveryPolicy
	switch opt.Recovery {
	case "", RecoveryRetrySameFabric:
		recovery = fleet.RetrySameFabric
	case RecoveryFailFast:
		recovery = fleet.FailFast
	case RecoveryMigrateOnFailure:
		recovery = fleet.MigrateOnFailure
	default:
		return FleetResult{}, fmt.Errorf("wrht: unknown recovery policy %q", opt.Recovery)
	}
	fp, err := opt.Faults.internal()
	if err != nil {
		return FleetResult{}, err
	}

	rec := sess.recorder()
	proc := ""
	if rec.Enabled() {
		proc = fleetProcName(cfg, fabrics, jobs, opt)
		if !opt.Faults.Empty() {
			proc += fmt.Sprintf(" · faults %08x · %s", opt.Faults.hash(), opt.Recovery)
		}
	}
	res, err := fleet.Simulate(fabrics, floors, jobs, rt, fleet.Options{
		Placement: placement, Policy: pol.Kind, Lite: opt.Lite, Rec: rec, Proc: proc,
		Faults: fp, Recovery: recovery, Cancel: cancel,
	})
	if err != nil {
		return FleetResult{}, err
	}

	out := FleetResult{
		Placement:          res.Placement.String(),
		Policy:             policy,
		Fabrics:            res.Fabrics,
		Jobs:               res.Jobs,
		Completed:          res.Completed,
		Rejected:           res.Rejected,
		Unplaceable:        res.Unplaceable,
		Migrations:         res.Migrations,
		MigrationSec:       res.MigrationSec,
		MakespanSec:        res.MakespanSec,
		MeanQueueSec:       res.MeanQueueSec,
		MaxQueueSec:        res.MaxQueueSec,
		MeanSlowdown:       res.MeanSlowdown,
		Fairness:           res.Fairness,
		Utilization:        res.Utilization,
		Reconfigs:          res.Reconfigs,
		Preemptions:        res.Preemptions,
		EngineEvents:       res.EngineEvents,
		SolverSolves:       res.Solver.Solves,
		SolverTiersTouched: res.Solver.TiersTouched,
		SolverTiersSkipped: res.Solver.TiersSkipped,
		SolverJobsRepriced: res.Solver.JobsRepriced,
		CurveHits:          res.Solver.CurveHits,
		CurveBuilds:        res.Solver.CurveBuilds,
		Outages:            res.Outages,
		Killed:             res.Killed,
		JobFaults:          res.JobFaults,
		Evictions:          res.Evictions,
		Retries:            res.Retries,
		FailedJobs:         res.FailedJobs,
		LostWorkSec:        res.LostWorkSec,
		Availability:       res.Availability,
		P99Slowdown:        res.P99Slowdown,
	}
	for _, f := range res.PerFabric {
		out.PerFabric = append(out.PerFabric, FleetFabricResult{
			Name:         f.Name,
			Budget:       f.Budget,
			Placed:       f.Placed,
			Migrated:     f.Migrated,
			Completed:    f.Result.CompletedJobs,
			Rejected:     f.Result.RejectedJobs,
			MakespanSec:  f.Result.MakespanSec,
			MeanSlowdown: f.Result.MeanSlowdown,
			Utilization:  f.Result.Utilization,
			Reconfigs:    f.Result.Reconfigs,
			Preemptions:  f.Result.Preemptions,
			JobFaults:    f.Result.JobFaults,
			Evictions:    f.Result.Evictions,
			Retries:      f.Result.Retries,
			FailedJobs:   f.Result.FailedJobs,
			LostWorkSec:  f.Result.LostWorkSec,
		})
	}
	return out, nil
}

// fleetProcName names one fleet co-simulation's recorder process prefix;
// the hash over the trace keeps concurrent fleet runs on a shared session
// recording to disjoint track sets.
func fleetProcName(cfg Config, fabrics []FleetFabricSpec, jobs []FleetJob, opt FleetOptions) string {
	h := fnv.New32a()
	for _, f := range fabrics {
		fmt.Fprintf(h, "%s|%d|%d|%g|%g;", f.Name, f.Nodes, f.Wavelengths, f.ReconfigDelaySec, f.MigrationCostSec)
	}
	for _, j := range jobs {
		fmt.Fprintf(h, "%g|%d|%d|%d|%d;", j.ArrivalSec, j.Priority, j.Iterations, j.Shape, j.Affinity)
	}
	placement := opt.Placement
	if placement == "" {
		placement = FleetLeastLoaded
	}
	return fmt.Sprintf("fleet %s · %d fabrics · %d jobs · mix %08x",
		placement, len(fabrics), len(jobs), h.Sum32())
}
