package core

import (
	"context"
	"runtime"
	"testing"

	"xqsim/internal/decoder"
	"xqsim/internal/faults"
)

func TestStreamMemoryCellValidation(t *testing.T) {
	if _, err := NewStreamMemoryCell(StreamMemoryConfig{D: 4, Rounds: 3}, 1); err == nil {
		t.Fatal("even distance accepted")
	}
	if _, err := NewStreamMemoryCell(StreamMemoryConfig{D: 3, Rounds: 0}, 1); err == nil {
		t.Fatal("zero rounds accepted")
	}
}

// TestStreamMemoryMatchesFrame pins the no-pressure equivalence: with no
// cycle budget the streamed experiment decodes the same accumulated
// syndrome as FrameLogicalErrorRate's whole-shot decode, so the failure
// counts must match bit-for-bit, for both window cadences.
func TestStreamMemoryMatchesFrame(t *testing.T) {
	ctx := context.Background()
	for _, d := range []int{3, 5} {
		const p, rounds, shots = 0.01, 4, 640
		want, err := FrameLogicalErrorRate(ctx, d, p, rounds, shots, 9)
		if err != nil {
			t.Fatal(err)
		}
		for _, win := range []int{0, 1, 2} {
			got, err := StreamLogicalErrorRate(ctx, StreamMemoryConfig{
				D: d, PhysError: p, Rounds: rounds, WindowRounds: win,
			}, shots, 9)
			if err != nil {
				t.Fatal(err)
			}
			if got.Rate != want {
				t.Fatalf("d=%d win=%d: stream rate %v != frame rate %v", d, win, got.Rate, want)
			}
			if got.Stats.DroppedRounds != 0 || got.Stats.OverBudgetWindows != 0 {
				t.Fatalf("d=%d win=%d: pressure with no budget: %+v", d, win, got.Stats)
			}
		}
	}
}

// TestStreamMemoryDeterministicAcrossWorkers pins that the parallel
// reduction is order-independent: a multi-worker run returns exactly the
// single-worker result (GOMAXPROCS(1) runs the pool inline), counts and
// the Stats maxima included.
func TestStreamMemoryDeterministicAcrossWorkers(t *testing.T) {
	ctx := context.Background()
	cfg := StreamMemoryConfig{
		D: 5, PhysError: 0.012, Rounds: 6,
		Backend:      decoder.NewUnionFindBackend(),
		BudgetCycles: 40, BufferRounds: 5, Policy: faults.PolicyDropOldest,
	}
	a, err := StreamLogicalErrorRate(ctx, cfg, 1280, 17)
	if err != nil {
		t.Fatal(err)
	}
	prev := runtime.GOMAXPROCS(1)
	b, err := StreamLogicalErrorRate(ctx, cfg, 1280, 17)
	runtime.GOMAXPROCS(prev)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("identically-seeded runs diverged:\n%+v\n%+v", a, b)
	}
}

// TestStreamMemoryOverloadDegradesRate is the backlog->logical-error-rate
// coupling: a decode budget far below the real cost forces buffer
// overflow, and under drop-oldest the lost detection events must raise
// the logical error rate above the unpressured baseline.
func TestStreamMemoryOverloadDegradesRate(t *testing.T) {
	ctx := context.Background()
	const shots = 1920
	base := StreamMemoryConfig{D: 5, PhysError: 0.015, Rounds: 8}
	clean, err := StreamLogicalErrorRate(ctx, base, shots, 23)
	if err != nil {
		t.Fatal(err)
	}
	over := base
	over.BudgetCycles = 1
	over.BufferRounds = 2
	over.Policy = faults.PolicyDropOldest
	degraded, err := StreamLogicalErrorRate(ctx, over, shots, 23)
	if err != nil {
		t.Fatal(err)
	}
	if degraded.Stats.DroppedRounds == 0 || degraded.Stats.OverBudgetWindows == 0 {
		t.Fatalf("overloaded run registered no pressure: %+v", degraded.Stats)
	}
	if degraded.Fails <= clean.Fails {
		t.Fatalf("drop-oldest overload did not degrade: clean %d fails, degraded %d (stats %+v)",
			clean.Fails, degraded.Fails, degraded.Stats)
	}
}

// TestStreamMemoryBackpressureLosesNothing pins the other policy: under
// backpressure no detection events are lost, so the failure count must
// equal the unpressured baseline while the stall rounds are counted.
func TestStreamMemoryBackpressureLosesNothing(t *testing.T) {
	ctx := context.Background()
	const shots = 640
	base := StreamMemoryConfig{D: 3, PhysError: 0.015, Rounds: 6}
	clean, err := StreamLogicalErrorRate(ctx, base, shots, 29)
	if err != nil {
		t.Fatal(err)
	}
	over := base
	over.BudgetCycles = 1
	over.BufferRounds = 2
	over.Policy = faults.PolicyBackpressure
	pressured, err := StreamLogicalErrorRate(ctx, over, shots, 29)
	if err != nil {
		t.Fatal(err)
	}
	if pressured.Fails != clean.Fails {
		t.Fatalf("backpressure changed the verdicts: clean %d fails, pressured %d", clean.Fails, pressured.Fails)
	}
	if pressured.Stats.BackpressureRounds == 0 || pressured.Stats.DroppedRounds != 0 {
		t.Fatalf("backpressure stats = %+v", pressured.Stats)
	}
}

// TestStreamMemoryCellRunRepeats pins that a cell rewinds cleanly: two
// Run calls return identical results.
func TestStreamMemoryCellRunRepeats(t *testing.T) {
	ctx := context.Background()
	cell, err := NewStreamMemoryCell(StreamMemoryConfig{
		D: 3, PhysError: 0.02, Rounds: 5,
		BudgetCycles: 30, BufferRounds: 3, Policy: faults.PolicyDropOldest,
	}, 31)
	if err != nil {
		t.Fatal(err)
	}
	a, err := cell.Run(ctx, 256)
	if err != nil {
		t.Fatal(err)
	}
	b, err := cell.Run(ctx, 256)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("repeated Run diverged:\n%+v\n%+v", a, b)
	}
	if a.Shots != 256 || a.Stats.Rounds == 0 {
		t.Fatalf("result = %+v", a)
	}
}

// Run streams the first `shots` shots and returns the result. Repeated
// calls rewind the sampler and return the identical result.
func (c *StreamMemoryCell) Run(ctx context.Context, shots int) (StreamMemoryResult, error) {
	if shots <= 0 {
		return StreamMemoryResult{}, nil
	}
	if err := ctx.Err(); err != nil {
		return StreamMemoryResult{}, err
	}
	c.stats = decoder.StreamStats{}
	fails := c.failsIn(0, shots)
	return StreamMemoryResult{
		Rate:  float64(fails) / float64(shots),
		Shots: shots,
		Fails: fails,
		Stats: c.stats,
	}, nil
}
