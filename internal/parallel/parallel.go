// Package parallel runs independent simulation points concurrently.
//
// The simulation stack itself is strictly single-threaded and
// deterministic: one kernel, one goroutine, no shared mutable state
// (DESIGN.md §6). Experiment sweeps, however, are embarrassingly
// parallel — each (config, seed) point builds its own kernel, fabric and
// cluster and shares nothing with its neighbours — so the only safe
// concurrency in this codebase lives here, at the boundary ABOVE the
// kernels: a bounded worker pool that runs whole points on separate
// kernels and merges their results by input index.
//
// Determinism contract: Map's output depends only on (n, job), never on
// the worker count or on goroutine scheduling. Results are merged into
// the slot matching the input index, and the reported error is the
// lowest-indexed one, so callers observe exactly what a sequential loop
// would have produced. This package is the one waiver of haechilint's
// noconcurrency rule; no other package may spawn goroutines. Jobs that
// write shared state are data races, which the race detector reports on
// the golden sweeps (run four at a time under go test -race).
package parallel

import (
	"runtime"
	"sync"
)

// Map runs job(0) … job(n-1) on a bounded pool of workers and returns
// the results ordered by input index. Every job runs exactly once even
// if an earlier one fails — so side effects, like the results, are
// identical at every worker count. If any job returns an error, Map
// returns the error of the lowest-indexed failing job (alongside the
// full result slice; a failed job's slot holds whatever value the job
// returned next to its error). Workers <= 0 selects
// runtime.GOMAXPROCS(0). Jobs must be independent: they run
// concurrently and must not share mutable state.
func Map[T any](workers, n int, job func(i int) (T, error)) ([]T, error) {
	if n <= 0 {
		return nil, nil
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	out := make([]T, n)
	if workers == 1 {
		// Sequential fast path: no goroutines, same run-everything
		// semantics as the pool below.
		var firstErr error
		for i := 0; i < n; i++ {
			var err error
			out[i], err = job(i)
			if err != nil && firstErr == nil {
				firstErr = err
			}
		}
		return out, firstErr
	}
	errs := make([]error, n)
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				out[i], errs[i] = job(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return out, err
		}
	}
	return out, nil
}
