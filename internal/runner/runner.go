// Package runner is the bounded worker pool every experiment sweep
// shares. The evaluation harness is a collection of embarrassingly
// parallel grids — schemes × workloads, seeds × schemes, scale factors,
// ablation variants — where each cell is an independent, internally
// deterministic simulation. The pool runs those cells on a fixed number
// of goroutines while keeping the aggregate behaviour deterministic:
//
//   - Results come back in job-index order regardless of which worker
//     finished first, so downstream accumulation (stats samples, report
//     tables) folds values in the same order as a sequential run and the
//     output is bit-for-bit identical.
//   - When jobs fail, the error of the lowest-index job is reported, so
//     a failing sweep reproduces the same error no matter how the
//     scheduler interleaved the workers.
//   - A cancelled context stops the dispatch of further jobs; jobs
//     already running see the cancellation through the context passed to
//     them and may return early.
package runner

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers resolves a requested worker count for n jobs: requests <= 0
// mean "one worker per available CPU" (GOMAXPROCS), and the pool never
// runs more workers than jobs.
func Workers(requested, n int) int {
	w := requested
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// MapWorkers runs fn(ctx, worker, i) for every i in [0, n) on a pool of
// workers goroutines (<= 0 selects GOMAXPROCS) and returns the n results
// in index order. All jobs are attempted even when some fail — cells of
// an experiment grid are independent — and the returned error is the
// error of the lowest-index failing job, which makes failures
// reproducible under any scheduling. If ctx is cancelled, jobs that have
// not started yet fail with ctx.Err(); the partial results gathered so
// far are still returned alongside the error.
//
// fn also receives the index (in [0, Workers(workers, n))) of the pool
// worker running the job. Jobs with the same worker index never run
// concurrently, so per-worker state — a reusable engine cache, scratch
// buffers — needs no locking as long as it is keyed by that index. The
// sequential fast path runs everything as worker 0. fn must otherwise be
// safe for concurrent invocation; the pool provides no synchronization
// between jobs beyond the completion barrier.
func MapWorkers[T any](ctx context.Context, n, workers int, fn func(ctx context.Context, worker, i int) (T, error)) ([]T, error) {
	if n <= 0 {
		return nil, nil
	}
	if ctx == nil {
		ctx = context.Background()
	}
	results := make([]T, n)
	errs := make([]error, n)

	workers = Workers(workers, n)
	if workers == 1 {
		// Sequential fast path: same semantics, no goroutines — this is
		// what throughput-sensitive sweeps (scale-out) run on.
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				errs[i] = err
				continue
			}
			results[i], errs[i] = fn(ctx, 0, i)
		}
		return results, firstError(errs)
	}

	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(worker int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if err := ctx.Err(); err != nil {
					errs[i] = err
					continue
				}
				results[i], errs[i] = fn(ctx, worker, i)
			}
		}(w)
	}
	wg.Wait()
	return results, firstError(errs)
}

// firstError returns the lowest-index non-nil error.
func firstError(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
