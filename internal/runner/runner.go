// Package runner provides the bounded worker pool behind every fan-out in
// this repository: asset preparation, parameter sweeps, and the methods ×
// workloads evaluation grid all funnel through it. The pool guarantees
//
//   - bounded parallelism: at most Workers tasks run at once;
//   - first-error cancellation: one failing task cancels the context seen
//     by every task that has not finished, and no new tasks start;
//   - index-stable collection: Map's result slice is ordered by task
//     index, never by completion order, so parallel runs render exactly
//     like sequential ones.
//
// A Pool carries no shared state — it is a concurrency *bound*, not a
// semaphore. Each Map call spawns its own worker set, so a task may itself
// fan out through the same Pool without risk of deadlock (the bounds
// multiply instead).
package runner

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// Pool bounds the parallelism of Map/MapSlice calls. A nil *Pool
// and the zero Pool are both valid and run with GOMAXPROCS workers.
type Pool struct {
	workers int
}

// New returns a pool running at most n tasks concurrently per fan-out call.
// n <= 0 selects runtime.GOMAXPROCS(0).
func New(n int) *Pool {
	if n < 0 {
		n = 0
	}
	return &Pool{workers: n}
}

// Workers reports the pool's concurrency bound.
func (p *Pool) Workers() int {
	if p == nil || p.workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return p.workers
}

// Map runs fn(ctx, i) for every i in [0, n) with at most p.Workers() tasks
// in flight and returns the results indexed by i. The first task error
// cancels the context passed to the remaining tasks and no new tasks start;
// Map returns that first error (later errors — typically the cancellation
// surfacing through still-running tasks — are dropped). If the parent
// context is cancelled mid-run, Map returns its error.
func Map[T any](ctx context.Context, p *Pool, n int, fn func(context.Context, int) (T, error)) ([]T, error) {
	if fn == nil {
		return nil, fmt.Errorf("runner: nil task function")
	}
	if n < 0 {
		return nil, fmt.Errorf("runner: negative task count %d", n)
	}
	if ctx == nil {
		ctx = context.Background()
	}
	out := make([]T, n)
	if n == 0 {
		return out, nil
	}
	workers := p.Workers()
	if workers > n {
		workers = n
	}
	if workers == 1 {
		// Sequential fast path: no goroutines, deterministic scheduling.
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			v, err := fn(ctx, i)
			if err != nil {
				return nil, err
			}
			out[i] = v
		}
		return out, nil
	}

	parent := ctx
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	var (
		next     atomic.Int64 // next task index to claim
		done     atomic.Int64 // tasks completed successfully
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
	)
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
		cancel()
	}
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n || ctx.Err() != nil {
					return
				}
				v, err := fn(ctx, i)
				if err != nil {
					fail(err)
					return
				}
				out[i] = v
				done.Add(1)
			}
		}()
	}
	wg.Wait()
	mu.Lock()
	err := firstErr
	mu.Unlock()
	if err != nil {
		return nil, err
	}
	// Every task completed: success, even if the parent was cancelled in
	// the instant after the last task returned (the sequential path behaves
	// the same way, so the outcome cannot depend on pool size).
	if int(done.Load()) == n {
		return out, nil
	}
	// Otherwise some indices were skipped — only parent cancellation can
	// cause that without a task error, so surface it.
	if err := parent.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// MapSlice runs fn over every element of items and returns the results in
// input order. See Map for the concurrency and error semantics.
func MapSlice[S, T any](ctx context.Context, p *Pool, items []S, fn func(context.Context, S) (T, error)) ([]T, error) {
	return Map(ctx, p, len(items), func(ctx context.Context, i int) (T, error) {
		return fn(ctx, items[i])
	})
}
