package core

import (
	"context"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
)

// poolWorkers are the worker counts the pool tests run at: the inline
// path and a multi-worker pool, which runs even on a one-CPU machine
// because the count is explicit rather than derived from GOMAXPROCS.
var poolWorkers = []int{1, 4}

func TestParallelForCoversEveryIndexOnce(t *testing.T) {
	for _, workers := range poolWorkers {
		for _, n := range []int{0, 1, 7, 100} {
			hits := make([]atomic.Int32, n)
			if err := ParallelFor(context.Background(), n, workers, func(w, i int) error {
				if w < 0 || w >= workers {
					return fmt.Errorf("worker id %d outside [0, %d)", w, workers)
				}
				hits[i].Add(1)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			for i := range hits {
				if got := hits[i].Load(); got != 1 {
					t.Fatalf("workers=%d n=%d: index %d ran %d times", workers, n, i, got)
				}
			}
		}
	}
}

func TestParallelForCancellation(t *testing.T) {
	for _, workers := range poolWorkers {
		// A pre-canceled context runs nothing and reports the cancellation.
		var ran atomic.Int32
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		err := ParallelFor(ctx, 1000, workers, func(_, _ int) error { ran.Add(1); return nil })
		if err == nil {
			t.Fatalf("workers=%d: canceled ParallelFor returned nil", workers)
		}
		// Workers check ctx after every claim, so a context canceled
		// before the call runs no index at all.
		if n := ran.Load(); n != 0 {
			t.Fatalf("workers=%d: canceled loop ran %d indices", workers, n)
		}
	}
}

func TestParallelForMidRunCancellation(t *testing.T) {
	for _, workers := range poolWorkers {
		// Canceling mid-run stops the loop well short of the full grid while
		// letting claimed indices finish.
		ctx, cancel := context.WithCancel(context.Background())
		var ran atomic.Int32
		err := ParallelFor(ctx, 1_000_000, workers, func(_, _ int) error {
			if ran.Add(1) == 50 {
				cancel()
			}
			return nil
		})
		cancel()
		if err == nil {
			t.Fatalf("workers=%d: mid-run cancellation not reported", workers)
		}
		if n := ran.Load(); n >= 1_000_000 {
			t.Fatalf("workers=%d: cancellation did not stop the grid", workers)
		}
	}
}

// TestParallelForLowestErrorWins: with indices 2, 5 and 9 failing, the
// error of index 2 comes back on every repetition, and the pool stops
// claiming once an index has failed. On the multi-worker pool index 2
// holds its worker until index 5 has failed, so a pool that returned the
// first error to occur would return index 5's.
func TestParallelForLowestErrorWins(t *testing.T) {
	const n = 1000
	for _, workers := range poolWorkers {
		for rep := 0; rep < 20; rep++ {
			var ran atomic.Int32
			fifthFailed := make(chan struct{})
			err := ParallelFor(context.Background(), n, workers, func(_, i int) error {
				ran.Add(1)
				switch i {
				case 2:
					if workers > 1 {
						<-fifthFailed
					}
				case 5:
					close(fifthFailed)
				case 9:
				default:
					return nil
				}
				return fmt.Errorf("index %d failed", i)
			})
			if err == nil || err.Error() != "index 2 failed" {
				t.Fatalf("workers=%d rep %d: err = %v, want index 2's", workers, rep, err)
			}
			got := ran.Load()
			if workers == 1 && got != 3 {
				t.Fatalf("inline pool ran %d indices, want 3 (stop after index 2)", got)
			}
			if got >= n {
				t.Fatalf("workers=%d rep %d: the pool kept claiming after a failure", workers, rep)
			}
		}
	}
}

func TestWorkers(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	for _, n := range []int{-1, 0, 1, 2, 1 << 20} {
		want := max(1, min(procs, n))
		if got := Workers(n); got != want {
			t.Fatalf("Workers(%d) = %d, want %d", n, got, want)
		}
	}
}
