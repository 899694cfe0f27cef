package wrht

import (
	"context"
	"fmt"
	"math"
	"unsafe"

	"wrht/internal/dnn"
	"wrht/internal/exp"
)

// SweepSpec declares a multi-axis experiment grid over the repository's
// pricing paths. Every non-empty axis contributes one dimension to the
// cartesian product; empty axes pin their dimension to Base. The spec picks
// one of three modes from the axes present:
//
//   - communication (default): nodes × wavelengths × workloads × algorithms
//     × Wrht options, priced by CommunicationTime;
//   - fabric (FabricMixes set): nodes × wavelengths × job mixes × policies,
//     priced by SimulateFabric;
//   - multi-rack (Racks set): racks × nodes-per-rack × wavelengths ×
//     workloads × Wrht options, priced by MultiRackTime.
//
// The grid is the nested cartesian product of the non-empty axes in a fixed
// order, nodes outermost: nodes, racks, nodes per rack, wavelengths, models,
// message bytes, algorithms, group sizes, greedy flags, pipeline chunks,
// fabric mixes, fabric policies. Points returns its size without pricing
// anything. RunSweep evaluates the grid on a worker pool while all workers
// share one memoized Wrht plan cache, so the redundant core.BuildPlan work
// that dominates wide serial sweeps is paid once per distinct
// (nodes, wavelengths, options) key.
type SweepSpec struct {
	// Base is the template configuration every point starts from. The zero
	// value means the evaluation defaults (DefaultConfig) with the node
	// count taken from the Nodes axis.
	Base Config

	// Nodes and Wavelengths override Base.Nodes / Base.Optical.Wavelengths.
	Nodes       []int
	Wavelengths []int

	// Models names catalog networks (gradient size at Base.BytesPerElem);
	// MessageBytes sweeps raw buffer sizes. Exactly one of the two axes
	// defines the workload of communication and multi-rack sweeps.
	Models       []string
	MessageBytes []int64

	// Algorithms defaults to [AlgWrht] (communication mode only).
	Algorithms []Algorithm

	// GroupSizes, GreedyA2A and PipelineChunks sweep the Wrht planner
	// options (Config.WrhtGroupSize / WrhtGreedyA2A / PipelineChunks); a
	// group size of 0 selects the optimizer. Infeasible combinations fail
	// per point without aborting the sweep.
	GroupSizes     []int
	GreedyA2A      []bool
	PipelineChunks []int

	// FabricMixes switches the sweep to fabric mode: each point co-simulates
	// one mix under one policy. FabricPolicies defaults to FabricPolicies().
	FabricMixes    []FabricMix
	FabricPolicies []FabricPolicy

	// Racks switches the sweep to multi-rack mode (NodesPerRack required;
	// the worker count is racks × nodes-per-rack, so the Nodes axis is
	// rejected).
	Racks        []int
	NodesPerRack []int

	// Parallelism is the worker-pool size; <= 0 selects GOMAXPROCS. Results
	// are independent of it.
	Parallelism int
}

// FabricMix is one named tenant mix of a fabric-mode sweep.
type FabricMix struct {
	// Name labels the mix in results; defaults to "mix<i>".
	Name string
	Jobs []JobSpec
}

// SweepCell is one priced point of a sweep, carrying the resolved scenario
// coordinates, the mode's primary metric (Seconds), the mode-specific detail
// result, and the point's error if pricing failed.
type SweepCell struct {
	// Index is the point's position in deterministic grid order.
	Index int

	Nodes          int
	Wavelengths    int
	Model          string
	Bytes          int64
	Algorithm      Algorithm
	GroupSize      int
	GreedyA2A      bool
	PipelineChunks int
	FabricMix      string
	FabricPolicy   FabricPolicy
	Racks          int
	NodesPerRack   int

	// Seconds is the mode's primary metric: communication time, fabric
	// makespan, or multi-rack total time.
	Seconds float64

	// Exactly one of Comm/Fabric/MultiRack is set on success.
	Comm      *Result
	Fabric    *FabricResult
	MultiRack *MultiRackResult

	// Err captures a per-point failure (e.g. an infeasible group size);
	// failed points keep their slot so the grid shape is preserved.
	Err error
}

// SweepResult is the outcome of RunSweep: cells in deterministic grid order
// plus the shared caches' counters.
type SweepResult struct {
	Cells []SweepCell
	// PlanBuilds is the number of distinct Wrht plans built; PlanHits the
	// number of plan requests served from the shared cache. Both are
	// independent of Parallelism, as are the schedule and simulation
	// counters below.
	PlanBuilds, PlanHits int64
	// SchedBuilds/SchedHits count distinct lowered schedules vs cache-served
	// schedule requests (E-Ring and O-Ring points share one ring schedule;
	// the optimizer's plan and the same explicit group size share one Wrht
	// schedule).
	SchedBuilds, SchedHits int64
	// SimRuns/SimHits count distinct substrate simulations vs cache-served
	// results — each distinct configuration simulates exactly once per sweep.
	SimRuns, SimHits int64
	// Failed counts cells with a non-nil Err.
	Failed int
}

// Err returns the first per-point error in grid order, or nil when every
// point priced successfully.
func (r *SweepResult) Err() error {
	for i := range r.Cells {
		if r.Cells[i].Err != nil {
			return r.Cells[i].Err
		}
	}
	return nil
}

// Lookup returns the first cell matching the predicate in grid order,
// surfacing the cell's own pricing error if it failed.
func (r *SweepResult) Lookup(match func(SweepCell) bool) (SweepCell, error) {
	for _, c := range r.Cells {
		if match(c) {
			return c, c.Err
		}
	}
	return SweepCell{}, fmt.Errorf("wrht: no sweep cell matches")
}

type sweepMode int

const (
	sweepComm sweepMode = iota
	sweepFabric
	sweepMultiRack
)

// RunSweep prices every point of the spec's grid concurrently and returns
// the cells in deterministic grid order regardless of parallelism or
// completion order. Per-point failures are captured in their cells; RunSweep
// itself only fails on a malformed spec or on a grid whose cells the runtime
// could never allocate (more than 2⁴⁸ bytes of SweepCell).
func RunSweep(spec SweepSpec) (*SweepResult, error) {
	return runSweep(nil, spec, newSession())
}

// Points returns the number of cells RunSweep returns for the spec,
// saturating at math.MaxInt, or the error RunSweep returns for a malformed
// spec. Defaulted axes (Algorithms, FabricPolicies) count at their default
// lengths.
func (spec SweepSpec) Points() (int, error) {
	spec, _, err := spec.resolved()
	if err != nil {
		return 0, err
	}
	return gridSize(spec.axes()), nil
}

// runSweep is RunSweep on an explicit session (SweepSession reuses one
// across calls, making the caches cross-run) and an optional cancellation
// context: once ctx is done, unevaluated points fill their Err slots with
// ctx.Err() and in-flight fabric points abandon their co-simulations at the
// next event boundary.
func runSweep(ctx context.Context, spec SweepSpec, sess *session) (*SweepResult, error) {
	spec, mode, err := spec.resolved()
	if err != nil {
		return nil, err
	}
	axes := spec.axes()
	n := gridSize(axes)
	if n > maxSweepCells {
		return nil, fmt.Errorf("wrht: sweep grid of %d cells exceeds the %d-cell limit", n, maxSweepCells)
	}
	cancel := ctxCancel(ctx)
	cells, errs := exp.Run(ctx, n, spec.Parallelism, func(i int) (SweepCell, error) {
		pt, mix := point(axes, i)
		var cell SweepCell
		switch mode {
		case sweepFabric:
			cell = spec.priceFabric(pt, mix, sess, cancel)
		case sweepMultiRack:
			cell = spec.priceMultiRack(pt, sess)
		default:
			cell = spec.priceComm(pt, sess)
		}
		return cell, cell.Err
	})
	for i := range cells {
		// Points skipped by cancellation come back as zero cells with the
		// error only in the slot array; keep the grid shape and surface the
		// cancellation as the cell's error.
		if errs[i] != nil && cells[i].Err == nil {
			cells[i] = SweepCell{Index: i, Err: errs[i]}
		}
	}
	res := &SweepResult{Cells: cells}
	res.PlanHits, res.PlanBuilds = sess.plans.Stats()
	res.SchedHits, res.SchedBuilds = sess.scheds.Stats()
	res.SimHits, res.SimRuns = sess.sims.Stats()
	for i := range cells {
		if cells[i].Err != nil {
			res.Failed++
		}
	}
	return res, nil
}

// sweepAxis is one grid dimension: its length and how its k-th entry sets
// a point's coordinate (the mix axis sets the mix index instead).
type sweepAxis struct {
	n   int
	set func(pt *SweepCell, mix *int, k int)
}

// axes is the grid's one axis table, outermost first. Empty axes add no
// dimension; their coordinates stay zero, which the pricers read as
// "pinned to Base".
func (spec SweepSpec) axes() []sweepAxis {
	return []sweepAxis{
		{len(spec.Nodes), func(pt *SweepCell, _ *int, k int) { pt.Nodes = spec.Nodes[k] }},
		{len(spec.Racks), func(pt *SweepCell, _ *int, k int) { pt.Racks = spec.Racks[k] }},
		{len(spec.NodesPerRack), func(pt *SweepCell, _ *int, k int) { pt.NodesPerRack = spec.NodesPerRack[k] }},
		{len(spec.Wavelengths), func(pt *SweepCell, _ *int, k int) { pt.Wavelengths = spec.Wavelengths[k] }},
		{len(spec.Models), func(pt *SweepCell, _ *int, k int) { pt.Model = spec.Models[k] }},
		{len(spec.MessageBytes), func(pt *SweepCell, _ *int, k int) { pt.Bytes = spec.MessageBytes[k] }},
		{len(spec.Algorithms), func(pt *SweepCell, _ *int, k int) { pt.Algorithm = spec.Algorithms[k] }},
		{len(spec.GroupSizes), func(pt *SweepCell, _ *int, k int) { pt.GroupSize = spec.GroupSizes[k] }},
		{len(spec.GreedyA2A), func(pt *SweepCell, _ *int, k int) { pt.GreedyA2A = spec.GreedyA2A[k] }},
		{len(spec.PipelineChunks), func(pt *SweepCell, _ *int, k int) { pt.PipelineChunks = spec.PipelineChunks[k] }},
		{len(spec.FabricMixes), func(_ *SweepCell, mix *int, k int) { *mix = k }},
		{len(spec.FabricPolicies), func(pt *SweepCell, _ *int, k int) { pt.FabricPolicy = spec.FabricPolicies[k] }},
	}
}

// maxSweepCells is the largest grid runSweep accepts: the most cells whose
// []SweepCell (200 B each) fits the 64-bit runtime's 2⁴⁸-byte allocation
// limit. exp.Run allocates every cell up front, so a larger grid would panic
// in makeslice; one under the limit but beyond memory is not caught here.
const maxSweepCells = 1 << 48 / int(unsafe.Sizeof(SweepCell{}))

// gridSize is the product of the non-empty axis lengths, saturating at
// math.MaxInt.
func gridSize(axes []sweepAxis) int {
	n := 1
	for _, a := range axes {
		if a.n == 0 {
			continue
		}
		if n > math.MaxInt/a.n {
			return math.MaxInt
		}
		n *= a.n
	}
	return n
}

// point decodes grid index i into its coordinates and mix index: a
// mixed-radix number whose innermost digit is the last non-empty axis.
func point(axes []sweepAxis, i int) (pt SweepCell, mix int) {
	pt.Index = i
	for a := len(axes) - 1; a >= 0; a-- {
		if n := axes[a].n; n > 0 {
			axes[a].set(&pt, &mix, i%n)
			i /= n
		}
	}
	return pt, mix
}

// base returns the template configuration (evaluation defaults when unset,
// with Nodes left to the axis).
func (spec SweepSpec) base() Config {
	if spec.Base == (Config{}) {
		b := DefaultConfig(2)
		b.Nodes = 0
		return b
	}
	return spec.Base
}

// resolved classifies the spec, rejects inconsistent axis combinations and
// fills the mode's defaulted axes.
func (spec SweepSpec) resolved() (SweepSpec, sweepMode, error) {
	fabric := len(spec.FabricMixes) > 0 || len(spec.FabricPolicies) > 0
	multi := len(spec.Racks) > 0 || len(spec.NodesPerRack) > 0
	if fabric && multi {
		return spec, 0, fmt.Errorf("wrht: sweep mixes fabric and multi-rack axes")
	}
	workloads := len(spec.Models) > 0 || len(spec.MessageBytes) > 0
	if len(spec.Models) > 0 && len(spec.MessageBytes) > 0 {
		return spec, 0, fmt.Errorf("wrht: sweep sets both Models and MessageBytes; pick one workload axis")
	}
	switch {
	case fabric:
		if len(spec.FabricMixes) == 0 {
			return spec, 0, fmt.Errorf("wrht: fabric sweep needs at least one FabricMix")
		}
		if workloads || len(spec.Algorithms) > 0 || len(spec.GroupSizes) > 0 ||
			len(spec.GreedyA2A) > 0 || len(spec.PipelineChunks) > 0 {
			return spec, 0, fmt.Errorf("wrht: fabric sweeps take workloads and algorithms from their job mixes; drop the communication axes")
		}
		if len(spec.Nodes) == 0 && spec.base().Nodes < 2 {
			return spec, 0, fmt.Errorf("wrht: fabric sweep needs a Nodes axis or Base.Nodes")
		}
		if len(spec.FabricPolicies) == 0 {
			spec.FabricPolicies = FabricPolicies()
		}
		return spec, sweepFabric, nil
	case multi:
		if len(spec.Racks) == 0 || len(spec.NodesPerRack) == 0 {
			return spec, 0, fmt.Errorf("wrht: multi-rack sweep needs both Racks and NodesPerRack")
		}
		if !workloads {
			return spec, 0, fmt.Errorf("wrht: multi-rack sweep needs Models or MessageBytes")
		}
		if len(spec.Nodes) > 0 {
			return spec, 0, fmt.Errorf("wrht: multi-rack sweeps derive the worker count from Racks × NodesPerRack; drop the Nodes axis")
		}
		if len(spec.Algorithms) > 0 || len(spec.PipelineChunks) > 0 {
			return spec, 0, fmt.Errorf("wrht: multi-rack sweeps price per-rack Wrht plus the electrical leader ring; drop Algorithms/PipelineChunks")
		}
		return spec, sweepMultiRack, nil
	default:
		if !workloads {
			return spec, 0, fmt.Errorf("wrht: sweep needs Models or MessageBytes")
		}
		if len(spec.Nodes) == 0 && spec.base().Nodes < 2 {
			return spec, 0, fmt.Errorf("wrht: sweep needs a Nodes axis or Base.Nodes")
		}
		if len(spec.Algorithms) == 0 {
			spec.Algorithms = []Algorithm{AlgWrht}
		}
		return spec, sweepComm, nil
	}
}

// pointConfig resolves the point's coordinates onto the base configuration.
func (spec SweepSpec) pointConfig(pt SweepCell) Config {
	cfg := spec.base()
	if pt.Nodes > 0 {
		cfg.Nodes = pt.Nodes
	}
	if pt.Wavelengths > 0 {
		cfg.Optical.Wavelengths = pt.Wavelengths
	}
	// Axis presence gates the option overrides because their zero values
	// (optimizer group size, formula policy, default chunking) are
	// themselves sweepable coordinates.
	if len(spec.GroupSizes) > 0 {
		cfg.WrhtGroupSize = pt.GroupSize
	}
	if len(spec.GreedyA2A) > 0 {
		cfg.WrhtGreedyA2A = pt.GreedyA2A
	}
	if len(spec.PipelineChunks) > 0 {
		cfg.PipelineChunks = pt.PipelineChunks
	}
	return cfg
}

// pointBytes resolves the point's workload size: the model's gradient, or
// the point's raw message size.
func (spec SweepSpec) pointBytes(cfg Config, pt SweepCell) (int64, error) {
	if pt.Model != "" {
		m, err := dnn.Lookup(pt.Model)
		if err != nil {
			return 0, err
		}
		bpe := cfg.BytesPerElem
		if bpe == 0 {
			bpe = 4
		}
		return m.GradientBytes(bpe), nil
	}
	if pt.Bytes <= 0 {
		return 0, fmt.Errorf("wrht: sweep point %d has no model and non-positive bytes %d",
			pt.Index, pt.Bytes)
	}
	return pt.Bytes, nil
}

// The pricers resolve a decoded point in place: the coordinates the mode
// reports take their Base values where the axis is empty, and the workload
// takes its byte size.

// priceComm evaluates one communication-mode point.
func (spec SweepSpec) priceComm(cell SweepCell, sess *session) SweepCell {
	cfg := spec.pointConfig(cell)
	cell.Nodes, cell.Wavelengths = cfg.Nodes, cfg.Optical.Wavelengths
	cell.GroupSize, cell.GreedyA2A, cell.PipelineChunks = cfg.WrhtGroupSize, cfg.WrhtGreedyA2A, cfg.PipelineChunks
	if cell.Bytes, cell.Err = spec.pointBytes(cfg, cell); cell.Err != nil {
		return cell
	}
	r, _, err := communicationTime(cfg, cell.Algorithm, cell.Bytes, sess)
	if err != nil {
		cell.Err = err
		return cell
	}
	cell.Comm = &r
	cell.Seconds = r.Seconds
	return cell
}

// priceFabric evaluates one fabric-mode point of mix index mix; cancel
// (nil = never) aborts the point's co-simulation at an event boundary.
func (spec SweepSpec) priceFabric(cell SweepCell, mix int, sess *session, cancel func() error) SweepCell {
	cfg := spec.pointConfig(cell)
	cell.Nodes, cell.Wavelengths = cfg.Nodes, cfg.Optical.Wavelengths
	if cell.FabricMix = spec.FabricMixes[mix].Name; cell.FabricMix == "" {
		cell.FabricMix = fmt.Sprintf("mix%d", mix)
	}
	fr, err := simulateFabric(cfg, spec.FabricMixes[mix].Jobs, cell.FabricPolicy, sess, FaultPlan{}, cancel)
	if err != nil {
		cell.Err = err
		return cell
	}
	cell.Fabric = &fr
	cell.Seconds = fr.MakespanSec
	return cell
}

// priceMultiRack evaluates one multi-rack-mode point.
func (spec SweepSpec) priceMultiRack(cell SweepCell, sess *session) SweepCell {
	cfg := spec.pointConfig(cell)
	cell.Nodes, cell.Wavelengths = cell.Racks*cell.NodesPerRack, cfg.Optical.Wavelengths
	cell.GroupSize, cell.GreedyA2A = cfg.WrhtGroupSize, cfg.WrhtGreedyA2A
	if cell.Bytes, cell.Err = spec.pointBytes(cfg, cell); cell.Err != nil {
		return cell
	}
	mr, err := multiRackTime(cfg, cell.Racks, cell.NodesPerRack, cell.Bytes, sess)
	if err != nil {
		cell.Err = err
		return cell
	}
	cell.MultiRack = &mr
	cell.Seconds = mr.TotalSec
	return cell
}
