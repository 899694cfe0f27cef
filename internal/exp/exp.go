// Package exp is the concurrent experiment engine behind wrht.RunSweep: a
// declarative Grid that enumerates scenario axes into a deterministic point
// list, a worker pool that evaluates points concurrently while returning
// results in stable grid order, and Memo, the one memoization type behind
// every pricing cache, so each distinct key is built once however many
// points ask for it. Memo has four uses: PlanCache wraps it with the
// group-size optimizer's rule (only requested keys are stored: the
// optimizer's hundreds of candidate plans per (nodes, wavelengths) pair
// are built and dropped, never filed), and the root package's session
// keys it directly by ScheduleKey for lowered schedules, by SimKey for
// substrate simulations and by tenant and width for fabric runtime
// curves. The package is domain-neutral on purpose: the mapping from a
// Point to a priced scenario lives in the public API (sweep.go), which is
// the only layer that knows about configs, catalog models, and fabric job
// mixes.
package exp

import (
	"context"
	"fmt"
	"runtime"
	"runtime/pprof"
	"sync"
)

// Grid declares the axes of an experiment. Every non-empty axis contributes
// one dimension to the cartesian product; empty axes are skipped (their Point
// field stays at the zero value, which the caller interprets as "pinned to
// the base scenario"). FabricMixes and FabricPolicies hold indices into
// caller-side tables of job mixes and partitioning policies, keeping the
// engine free of domain types.
type Grid struct {
	Nodes          []int
	Wavelengths    []int
	Models         []string
	MessageBytes   []int64
	Algorithms     []string
	GroupSizes     []int
	GreedyA2A      []bool
	PipelineChunks []int
	FabricMixes    []int
	FabricPolicies []int
	Racks          []int
	NodesPerRack   []int
}

// Point is one fully resolved scenario of a Grid. Index is the point's
// position in the deterministic enumeration order.
type Point struct {
	Index          int
	Nodes          int
	Wavelengths    int
	Model          string
	MessageBytes   int64
	Algorithm      string
	GroupSize      int
	GreedyA2A      bool
	PipelineChunks int
	FabricMix      int
	FabricPolicy   int
	Racks          int
	NodesPerRack   int
}

// axes returns the grid's dimensions in enumeration order (outermost first).
func (g Grid) axes() []struct {
	n   int
	set func(p *Point, i int)
} {
	return []struct {
		n   int
		set func(p *Point, i int)
	}{
		{len(g.Nodes), func(p *Point, i int) { p.Nodes = g.Nodes[i] }},
		{len(g.Racks), func(p *Point, i int) { p.Racks = g.Racks[i] }},
		{len(g.NodesPerRack), func(p *Point, i int) { p.NodesPerRack = g.NodesPerRack[i] }},
		{len(g.Wavelengths), func(p *Point, i int) { p.Wavelengths = g.Wavelengths[i] }},
		{len(g.Models), func(p *Point, i int) { p.Model = g.Models[i] }},
		{len(g.MessageBytes), func(p *Point, i int) { p.MessageBytes = g.MessageBytes[i] }},
		{len(g.Algorithms), func(p *Point, i int) { p.Algorithm = g.Algorithms[i] }},
		{len(g.GroupSizes), func(p *Point, i int) { p.GroupSize = g.GroupSizes[i] }},
		{len(g.GreedyA2A), func(p *Point, i int) { p.GreedyA2A = g.GreedyA2A[i] }},
		{len(g.PipelineChunks), func(p *Point, i int) { p.PipelineChunks = g.PipelineChunks[i] }},
		{len(g.FabricMixes), func(p *Point, i int) { p.FabricMix = g.FabricMixes[i] }},
		{len(g.FabricPolicies), func(p *Point, i int) { p.FabricPolicy = g.FabricPolicies[i] }},
	}
}

// Size returns the number of points the grid enumerates.
func (g Grid) Size() int {
	n := 1
	for _, a := range g.axes() {
		if a.n > 0 {
			n *= a.n
		}
	}
	return n
}

// Points enumerates the grid into its deterministic point list: a nested
// cartesian product in fixed axis order (nodes outermost, fabric policy
// innermost), independent of how the sweep is later parallelized.
func (g Grid) Points() []Point {
	axes := g.axes()
	out := make([]Point, 0, g.Size())
	var rec func(p Point, k int)
	rec = func(p Point, k int) {
		if k == len(axes) {
			p.Index = len(out)
			out = append(out, p)
			return
		}
		a := axes[k]
		if a.n == 0 {
			rec(p, k+1)
			return
		}
		for i := 0; i < a.n; i++ {
			a.set(&p, i)
			rec(p, k+1)
		}
	}
	rec(Point{}, 0)
	return out
}

// RunContext is Run under a cancellation context: once ctx is done, workers
// stop evaluating and every remaining index fills its error slot with
// ctx.Err() (already-completed points keep their results, so the output
// shape is stable). A nil ctx degrades to plain Run. Cancellation is
// checked at point boundaries — a point already being evaluated runs to
// completion unless its own pricing path observes the same context.
func RunContext[T any](ctx context.Context, n, parallelism int, fn func(i int) (T, error)) ([]T, []error) {
	if ctx == nil {
		return Run(n, parallelism, fn)
	}
	return Run(n, parallelism, func(i int) (T, error) {
		if err := ctx.Err(); err != nil {
			var zero T
			return zero, err
		}
		return fn(i)
	})
}

// Run evaluates fn for every index in [0, n) on `parallelism` workers
// (<= 0 selects GOMAXPROCS) and returns results and errors in index order
// regardless of completion order. Each index is evaluated exactly once; a
// failed point fills its error slot without aborting the rest of the sweep.
func Run[T any](n, parallelism int, fn func(i int) (T, error)) ([]T, []error) {
	results := make([]T, n)
	errs := make([]error, n)
	if n == 0 {
		return results, errs
	}
	if parallelism <= 0 {
		parallelism = runtime.GOMAXPROCS(0)
	}
	if parallelism > n {
		parallelism = n
	}
	if parallelism == 1 {
		for i := 0; i < n; i++ {
			results[i], errs[i] = fn(i)
		}
		return results, errs
	}
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < parallelism; w++ {
		wg.Add(1)
		// Label the worker goroutines so CPU and goroutine profiles
		// attribute sweep time to the pool (and to the worker slot) instead
		// of an anonymous closure. The serial parallelism==1 path above
		// stays unlabeled and allocation-free.
		labels := pprof.Labels("pool", "exp.Run", "worker", fmt.Sprintf("%d", w))
		//wrht:allow ctxflow -- pprof.Do only carries profiler labels here; the pool has no cancellation contract, workers drain the closed idx channel
		go pprof.Do(context.Background(), labels, func(context.Context) {
			defer wg.Done()
			for i := range idx {
				results[i], errs[i] = fn(i)
			}
		})
	}
	for i := 0; i < n; i++ {
		idx <- i
	}
	close(idx)
	wg.Wait()
	return results, errs
}
