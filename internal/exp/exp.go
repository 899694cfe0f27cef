// Package exp is the concurrent experiment engine behind wrht.RunSweep: a
// worker pool that evaluates indexed points concurrently while returning
// results in stable index order, and Memo, the one memoization type behind
// every pricing cache, so each distinct key is built once however many
// points ask for it. Memo has four uses: PlanCache wraps it with the
// group-size optimizer's rule (only requested keys are stored: the
// optimizer's hundreds of candidate plans per (nodes, wavelengths) pair
// are built and dropped, never filed), and the root package's session
// keys it directly by ScheduleKey for lowered schedules, by SimKey for
// substrate simulations and by tenant and width for fabric runtime
// curves. The package is domain-neutral on purpose: what a point index
// means (its grid coordinates and the scenario they price) lives in the
// public API (sweep.go).
package exp

import (
	"context"
	"runtime"
	"runtime/pprof"
	"strconv"
	"sync"
	"sync/atomic"
)

// Run evaluates fn for every index in [0, n) on `parallelism` workers
// (<= 0 selects GOMAXPROCS) and returns results and errors in index order
// regardless of completion order. Each index is evaluated at most once; a
// failed point fills its error slot without aborting the rest.
//
// Once ctx is done, workers stop evaluating and every remaining index fills
// its error slot with ctx.Err() (completed points keep their results, so
// the output shape is stable). A nil ctx is never done and costs nothing.
// Cancellation is checked at point boundaries: a point already being
// evaluated runs to completion unless its own pricing path observes the
// same context.
//
// A panic in fn stops the pool handing out indices; once every worker has
// returned, Run re-panics on the caller's goroutine with the first panic
// value, so a caller's recover sees it exactly as if fn had run inline.
func Run[T any](ctx context.Context, n, parallelism int, fn func(i int) (T, error)) ([]T, []error) {
	results := make([]T, n)
	errs := make([]error, n)
	if n == 0 {
		return results, errs
	}
	if ctx != nil {
		inner := fn
		fn = func(i int) (T, error) {
			if err := ctx.Err(); err != nil {
				var zero T
				return zero, err
			}
			return inner(i)
		}
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
	var (
		next      atomic.Int64
		stop      atomic.Bool
		firstOnce sync.Once
		first     any
		wg        sync.WaitGroup
	)
	for w := 0; w < parallelism; w++ {
		wg.Add(1)
		// Label the worker goroutines so CPU and goroutine profiles
		// attribute sweep time to the pool (and to the worker slot) instead
		// of an anonymous closure. The serial parallelism==1 path above
		// stays unlabeled and allocation-free.
		labels := pprof.Labels("pool", "exp.Run", "worker", strconv.Itoa(w))
		//wrht:allow ctxflow -- pprof.Do only carries profiler labels here; cancellation is fn's ctx check above, and a nil ctx cannot parent the labels
		go pprof.Do(context.Background(), labels, func(context.Context) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					firstOnce.Do(func() { first = r })
					stop.Store(true)
				}
			}()
			for !stop.Load() {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				results[i], errs[i] = fn(i)
			}
		})
	}
	wg.Wait()
	if stop.Load() {
		panic(first)
	}
	return results, errs
}
