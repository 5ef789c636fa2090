package core_test

import (
	"context"
	"runtime"
	"testing"

	"xqsim/internal/core"
)

func TestFrameLogicalErrorRateValidation(t *testing.T) {
	ctx := context.Background()
	for _, tc := range []struct{ d, rounds int }{{2, 3}, {1, 3}, {4, 3}, {3, 0}} {
		if _, err := core.FrameLogicalErrorRate(ctx, tc.d, 0.01, tc.rounds, 64, 1); err == nil {
			t.Errorf("d=%d rounds=%d: expected an error", tc.d, tc.rounds)
		}
	}
	rate, err := core.FrameLogicalErrorRate(ctx, 3, 0.01, 3, 0, 1)
	if err != nil || rate != 0 {
		t.Fatalf("zero shots: rate=%v err=%v, want 0, nil", rate, err)
	}
}

func TestFrameLogicalErrorRateCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := core.FrameLogicalErrorRate(ctx, 3, 0.01, 3, 10_000, 1); err == nil {
		t.Fatal("expected a context error")
	}
}

// TestFrameLogicalErrorRateDeterministic: the rate is a pure count of
// failing shot indices under the frame sampler's determinism contract,
// so it must not depend on worker scheduling (or anything else). The
// second run is single-worker (GOMAXPROCS(1) runs the pool inline).
func TestFrameLogicalErrorRateDeterministic(t *testing.T) {
	ctx := context.Background()
	first, err := core.FrameLogicalErrorRate(ctx, 3, 0.02, 3, 1_000, 7)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		procs := 0 // GOMAXPROCS(0) leaves the setting as it is
		if i == 0 {
			procs = 1
		}
		prev := runtime.GOMAXPROCS(procs)
		again, err := core.FrameLogicalErrorRate(ctx, 3, 0.02, 3, 1_000, 7)
		runtime.GOMAXPROCS(prev)
		if err != nil {
			t.Fatal(err)
		}
		//xqlint:ignore floateq both are fail-counts divided by the same shot total
		if again != first {
			t.Fatalf("run %d: rate %v != first run %v", i, again, first)
		}
	}
}

// TestFrameLogicalErrorRatePhysical: sanity on the physics — the rate
// grows with p, noise produces failures at high p, and a partial final
// block (shots not a multiple of 64) stays in range.
func TestFrameLogicalErrorRatePhysical(t *testing.T) {
	if testing.Short() {
		t.Skip("samples tens of thousands of memory shots")
	}
	ctx := context.Background()
	lo, err := core.FrameLogicalErrorRate(ctx, 3, 0.001, 3, 20_000, 11)
	if err != nil {
		t.Fatal(err)
	}
	hi, err := core.FrameLogicalErrorRate(ctx, 3, 0.02, 3, 20_000, 11)
	if err != nil {
		t.Fatal(err)
	}
	if lo >= hi {
		t.Errorf("rate not increasing with p: %.4f at p=0.1%%, %.4f at p=2%%", lo, hi)
	}
	if hi < 0.02 || hi > 0.5 {
		t.Errorf("d=3 p=2%% rate %.4f outside the plausible range", hi)
	}
	part, err := core.FrameLogicalErrorRate(ctx, 3, 0.02, 3, 1_037, 11)
	if err != nil {
		t.Fatal(err)
	}
	if part < 0 || part > 1 {
		t.Errorf("partial-block rate %v out of range", part)
	}
}
