package wrht

import "context"

// Context-aware pricing.
//
// Every heavy entry point on SweepSession has a Context variant so a
// serving layer (internal/serve, cmd/serve) can bound requests in time:
// the context's deadline or cancellation propagates into the pricing
// engines and is checked at iteration boundaries — between sweep grid
// points and, inside fabric and fleet co-simulations, every ~1024 executed
// discrete events — so a killed request stops burning its worker within a
// bounded number of steps instead of running to completion. A canceled
// call returns the context's error (context.Canceled or
// context.DeadlineExceeded); partial results are never returned.
//
// The non-Context methods are unchanged and remain the zero-overhead
// path: a nil context disables every check.

// ctxCancel lowers a context to the engines' cancellation-hook shape; a nil
// context (or context.Background()) costs nothing downstream.
func ctxCancel(ctx context.Context) func() error {
	if ctx == nil || ctx.Done() == nil {
		return nil
	}
	return ctx.Err
}

// CommunicationTimeContext is CommunicationTime under a cancellation
// context. Single-point pricing is the service's cheap, bounded class, so
// the context is checked at the call boundary (and between the plan,
// schedule, and simulation phases via the shared session caches) rather
// than inside the per-class pricing loops.
func (ss *SweepSession) CommunicationTimeContext(ctx context.Context, cfg Config, alg Algorithm, bytes int64) (Result, error) {
	if err := ctxErr(ctx); err != nil {
		return Result{}, err
	}
	return ss.CommunicationTime(cfg, alg, bytes)
}

// SimulateFabricContext is SimulateFabric under a cancellation context,
// checked every ~1024 executed events of the co-simulation.
func (ss *SweepSession) SimulateFabricContext(ctx context.Context, cfg Config, jobs []JobSpec, policy FabricPolicy, plan ...FaultPlan) (FabricResult, error) {
	if err := ctxErr(ctx); err != nil {
		return FabricResult{}, err
	}
	fp, err := onePlan(plan)
	if err != nil {
		return FabricResult{}, err
	}
	return simulateFabric(cfg, jobs, policy, ss.sess, fp, ctxCancel(ctx))
}

// SimulateFleetContext is SimulateFleet under a cancellation context,
// checked every ~1024 executed events of the fleet's shared timeline.
func (ss *SweepSession) SimulateFleetContext(ctx context.Context, cfg Config, fabrics []FleetFabricSpec, shapes []FleetShape, jobs []FleetJob, opt FleetOptions) (FleetResult, error) {
	if err := ctxErr(ctx); err != nil {
		return FleetResult{}, err
	}
	return simulateFleet(cfg, fabrics, shapes, jobs, opt, ss.sess, ctxCancel(ctx))
}

// RunSweepContext is RunSweep under a cancellation context: once the
// context is done, unevaluated grid points fill their cells' Err slots with
// the context's error (the grid shape is preserved) and in-flight fabric
// points abandon their co-simulations at the next event boundary.
func (ss *SweepSession) RunSweepContext(ctx context.Context, spec SweepSpec) (*SweepResult, error) {
	return runSweep(ctx, spec, ss.sess)
}

// ctxErr is ctx.Err() tolerating a nil context.
func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	return ctx.Err()
}
