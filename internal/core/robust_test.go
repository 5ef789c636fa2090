package core

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"xqsim/internal/compiler"
	"xqsim/internal/faults"
	"xqsim/internal/ftqc"
)

// testFaults is a fault environment harsh enough that every injection
// path (stall, drop, retransmit) fires within a few shots.
func testFaults() faults.Config {
	return faults.Config{
		StallProb:     0.8,
		StallFactor:   4,
		BufferRounds:  3,
		Policy:        faults.PolicyDropOldest,
		LinkErrorProb: 0.3,
		LinkRetries:   3,
	}
}

func TestRunShotsPanicRecovery(t *testing.T) {
	// A worker panic must not kill the process: the run reports an error
	// naming the failing shot and its replay seed instead.
	shotHook = func(s int) {
		if s == 3 {
			panic("injected test panic")
		}
	}
	defer func() { shotHook = nil }()

	circ := compiler.SinglePPR("Z", ftqc.AnglePi4)
	_, _, err := RunShots(context.Background(), circ, 3, 0, 8, 5)
	if err == nil {
		t.Fatal("expected the injected panic to surface as an error")
	}
	if !strings.Contains(err.Error(), "shot 3 panicked") {
		t.Fatalf("error does not name the failing shot: %v", err)
	}
	if want := fmt.Sprintf("seed %d", ShotSeed(5, 3)); !strings.Contains(err.Error(), want) {
		t.Fatalf("error does not carry the replay seed (%s): %v", want, err)
	}
}

func TestRunShotsPanicErrorDeterministic(t *testing.T) {
	// With several panicking shots, the lowest-indexed one is reported
	// regardless of worker scheduling.
	shotHook = func(s int) {
		if s == 2 || s == 5 || s == 9 {
			panic("injected test panic")
		}
	}
	defer func() { shotHook = nil }()

	circ := compiler.SinglePPR("Z", ftqc.AnglePi4)
	for i := 0; i < 3; i++ {
		_, _, err := RunShots(context.Background(), circ, 3, 0, 12, 5)
		if err == nil || !strings.Contains(err.Error(), "shot 2 panicked") {
			t.Fatalf("run %d: want the lowest failing shot (2), got %v", i, err)
		}
	}
}

func TestRunShotsCancellation(t *testing.T) {
	// A canceled context aborts the run promptly and leaks no worker
	// goroutines.
	before := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	circ := compiler.SinglePPR("ZZ", ftqc.AnglePi8).SubstituteStabilizer()
	_, _, err := RunShots(ctx, circ, 5, 0.001, 256, 7)
	if err == nil {
		t.Fatal("canceled run returned no error")
	}
	if !strings.Contains(err.Error(), context.Canceled.Error()) {
		t.Fatalf("error = %v, want context.Canceled", err)
	}

	// Workers exit once they observe the cancellation; give the runtime a
	// moment to reap them before comparing.
	for i := 0; i < 100; i++ {
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
}

func TestRunShotsWatchdogTimeout(t *testing.T) {
	// An absurdly small per-shot watchdog must trip on the first
	// per-instruction check and surface as a deadline error naming the
	// shot.
	circ := compiler.SinglePPR("Z", ftqc.AnglePi4)
	opts := RunOptions{ShotTimeout: time.Nanosecond}
	_, _, err := RunShotsOpt(context.Background(), circ, 3, 0, 4, 5, opts)
	if err == nil {
		t.Fatal("watchdog did not trip")
	}
	if !strings.Contains(err.Error(), context.DeadlineExceeded.Error()) {
		t.Fatalf("error = %v, want deadline exceeded", err)
	}
	if !strings.Contains(err.Error(), "shot 0") {
		t.Fatalf("error does not name the shot: %v", err)
	}
}

func TestRunShotsFaultDeterminism(t *testing.T) {
	// Same seed, same fault config: bit-identical distributions, final-shot
	// metrics and fault totals across runs, despite parallel shot
	// scheduling. The second run is single-worker (GOMAXPROCS(1) runs the
	// pool inline), so this also pins the per-worker tally merge.
	circ := compiler.SinglePPR("ZZ", ftqc.AnglePi8).SubstituteStabilizer()
	opts := RunOptions{Faults: testFaults()}
	distA, mA, err := RunShotsOpt(context.Background(), circ, 3, 0.001, 48, 17, opts)
	if err != nil {
		t.Fatal(err)
	}
	prev := runtime.GOMAXPROCS(1)
	distB, mB, err := RunShotsOpt(context.Background(), circ, 3, 0.001, 48, 17, opts)
	runtime.GOMAXPROCS(prev)
	if err != nil {
		t.Fatal(err)
	}
	for i := range distA {
		if distA[i] != distB[i] {
			t.Fatalf("distribution differs at %d: %v vs %v", i, distA[i], distB[i])
		}
	}
	if mA.Faults != mB.Faults {
		t.Fatalf("fault totals differ: %+v vs %+v", mA.Faults, mB.Faults)
	}
	if *mA != *mB {
		t.Fatalf("final-shot metrics differ:\n%+v\n%+v", *mA, *mB)
	}
	// The metrics are the final shot's, except Faults (summed over shots).
	r, err := NewShotRunner(circ, 3, 0.001, 17, opts)
	if err != nil {
		t.Fatal(err)
	}
	m, _, err := r.RunShot(context.Background(), 47)
	if err != nil {
		t.Fatal(err)
	}
	want := *m
	want.Faults = mA.Faults
	if *mA != want {
		t.Fatalf("returned metrics are not shot 47's:\n%+v\n%+v", *mA, want)
	}
	if mA.Faults.StallWindows == 0 || mA.Faults.DroppedRounds == 0 || mA.Faults.Retransmits == 0 {
		t.Fatalf("harsh fault config fired nothing: %+v", mA.Faults)
	}
}

func TestRunShotsInvalidFaultConfig(t *testing.T) {
	circ := compiler.SinglePPR("Z", ftqc.AnglePi4)
	opts := RunOptions{Faults: faults.Config{StallProb: 2}}
	if _, _, err := RunShotsOpt(context.Background(), circ, 3, 0, 1, 1, opts); err == nil {
		t.Fatal("invalid fault config accepted")
	}
}

func TestLogicalErrorRateFaultsDeterministic(t *testing.T) {
	fcfg := faults.Config{StallProb: 1, StallFactor: 4, BufferRounds: 3, Policy: faults.PolicyDropOldest}
	a, totA, err := NewMemoryExperiment(3).ErrorRate(context.Background(), 0.01, 3, 80, 31, fcfg)
	if err != nil {
		t.Fatal(err)
	}
	b, totB, err := NewMemoryExperiment(3).ErrorRate(context.Background(), 0.01, 3, 80, 31, fcfg)
	if err != nil {
		t.Fatal(err)
	}
	if a != b || totA != totB {
		t.Fatalf("identically-seeded fault runs differ: %v/%+v vs %v/%+v", a, totA, b, totB)
	}
	if totA.DroppedRounds == 0 {
		t.Fatalf("certain stalls against a one-window buffer dropped nothing: %+v", totA)
	}
}

func TestLogicalErrorRateDegradesUnderDrops(t *testing.T) {
	// Dropped syndrome rounds leave their detection events uncorrected, so
	// the logical error rate under heavy stalls must not beat the
	// fault-free rate (and should clearly exceed it at this operating
	// point).
	const trials = 300
	clean, _, err := NewMemoryExperiment(3).ErrorRate(context.Background(), 0.015, 3, trials, 41, faults.Config{})
	if err != nil {
		t.Fatal(err)
	}
	faulty, _, err := NewMemoryExperiment(3).ErrorRate(context.Background(), 0.015, 3, trials, 41,
		faults.Config{StallProb: 1, StallFactor: 4, BufferRounds: 3, Policy: faults.PolicyDropOldest})
	if err != nil {
		t.Fatal(err)
	}
	if faulty < clean {
		t.Fatalf("rate improved under dropped rounds: clean %v, faulty %v", clean, faulty)
	}
}

func TestLogicalErrorRateCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := NewMemoryExperiment(3).ErrorRate(ctx, 0.01, 3, 100, 7, faults.Config{}); err == nil {
		t.Fatal("canceled trial pool returned no error")
	}
}
