package core

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers is the worker count for n independent indices: GOMAXPROCS,
// capped at n, and at least 1.
func Workers(n int) int {
	w := runtime.GOMAXPROCS(0)
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// ParallelFor runs fn(w, i) for every index i in [0, n) across at most
// `workers` workers; w in [0, workers) names the worker making the call,
// so fn can index per-worker state (a cloned runner, a tally slot)
// without locks. It is the one worker pool behind every parallel loop:
// shots, memory trials, 64-shot frame blocks and the sweep grids. Each
// of them is independent work per index with its own derived seed,
// reduced by integer sums or maxima, so its output does not depend on
// scheduling. The contract:
//
//   - indices are claimed in ascending order;
//   - the error of the lowest failing index wins, and a ctx error seen
//     when claiming an index counts as a failure at that index;
//   - no new index is claimed after a failure; claimed indices finish;
//   - a single worker runs inline, with no goroutine.
//
// Because claims ascend, every index below a failing one has been
// claimed and runs to completion, so the returned error is the lowest
// failing index's under any scheduling. Panics are not recovered here:
// a caller whose per-index work can panic converts that into an error
// itself.
func ParallelFor(ctx context.Context, n, workers int, fn func(w, i int) error) error {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := fn(0, i); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		next   atomic.Int64
		wg     sync.WaitGroup
		errs   = make([]error, workers)
		errIdx = make([]int, workers)
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				err := ctx.Err()
				if err == nil {
					err = fn(w, i)
				}
				if err != nil {
					errs[w], errIdx[w] = err, i
					// Every later claim lands at or past n.
					next.Store(int64(n))
					return
				}
			}
		}()
	}
	wg.Wait()
	var first error
	firstIdx := n
	for w, err := range errs {
		if err != nil && errIdx[w] < firstIdx {
			first, firstIdx = err, errIdx[w]
		}
	}
	return first
}

// perWorker returns base followed by workers−1 clones of it. Every clone
// is made before any worker starts: Clone reads base, whose state worker
// 0's indices overwrite.
func perWorker[T interface{ Clone() T }](base T, workers int) []T {
	out := make([]T, workers)
	out[0] = base
	for w := 1; w < workers; w++ {
		out[w] = base.Clone()
	}
	return out
}
