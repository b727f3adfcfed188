// Package sweep fans the independent cells of an experiment across a
// bounded worker pool. A cell is one self-contained unit of work — in this
// repo, one (figure × scheme × workload) measurement that constructs its own
// device, runs its own deterministically-seeded workload and returns its
// result.
//
// Determinism is the design invariant: because every cell is hermetic (no
// shared mutable state, per-cell RNG seeds) and Map hands the results back
// in index order, the output of a parallel run is byte-identical to a
// serial run of the same cells. Map(1, ...) executes serially in index
// order and is the reference the parallel path must match.
package sweep

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Auto returns the worker count used for parallel sweeps: GOMAXPROCS, the
// number of OS threads the Go scheduler will actually run concurrently.
func Auto() int { return runtime.GOMAXPROCS(0) }

// Map runs cell(0) … cell(n-1) and returns their results in index order,
// or the error of the lowest-indexed failing cell (deterministic regardless
// of scheduling).
//
// workers <= 1 runs the cells serially in index order on the calling
// goroutine. workers > 1 fans them across min(workers, n) goroutines
// pulling indices from a shared counter. Every cell runs even when some
// fail, so a failing sweep does the same work at any worker count.
func Map[T any](workers, n int, cell func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	errs := make([]error, n)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := range out {
			out[i], errs[i] = cell(i)
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func() {
				defer wg.Done()
				for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
					out[i], errs[i] = cell(i)
				}
			}()
		}
		wg.Wait()
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}
