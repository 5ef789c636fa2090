package core

import (
	"context"
	"fmt"
	"testing"

	"xqsim/internal/compiler"
	"xqsim/internal/decoder"
	"xqsim/internal/faults"
	"xqsim/internal/ftqc"
	"xqsim/internal/microarch"
	"xqsim/internal/pauli"
	"xqsim/internal/surface"
)

// TestShotRunnerMatchesFresh pins the shot-reuse determinism contract at
// the core layer: a ShotRunner replaying shots through one reused
// pipeline must reproduce a freshly built runner's shot bit-for-bit —
// same readout keys, same metrics, same fault totals — including when
// shots are replayed out of order, so no state can leak from one shot
// into the next.
func TestShotRunnerMatchesFresh(t *testing.T) {
	circ := compiler.SinglePPR("ZZ", ftqc.AnglePi8).SubstituteStabilizer()
	opts := RunOptions{Faults: testFaults()}
	runner, err := NewShotRunner(circ, 3, 0.002, 17, opts)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	// Deliberately non-monotonic shot order: reuse must not care.
	for _, s := range []int{0, 3, 1, 3, 7, 2} {
		fresh, err := NewShotRunner(circ, 3, 0.002, 17, opts)
		if err != nil {
			t.Fatal(err)
		}
		wantM, wantKey, err := fresh.RunShot(ctx, s)
		if err != nil {
			t.Fatal(err)
		}
		gotM, gotKey, err := runner.RunShot(ctx, s)
		if err != nil {
			t.Fatal(err)
		}
		if gotKey != wantKey {
			t.Fatalf("shot %d: key %d, fresh runner got %d", s, gotKey, wantKey)
		}
		if *gotM != *wantM {
			t.Fatalf("shot %d: reused-pipeline metrics diverge from fresh:\n%+v\nvs\n%+v", s, *gotM, *wantM)
		}
	}
}

// TestShotRunnerSteadyStateAllocs pins the tentpole: after warmup, a
// noisy shot through the reusable runner performs zero heap allocations,
// both for a fault-injected d=3 PPR and for Table 3's d=5 QFT row.
func TestShotRunnerSteadyStateAllocs(t *testing.T) {
	cases := []struct {
		name string
		circ compiler.Circuit
		d    int
		opts RunOptions
	}{
		{"ppr-zzz-d3-faults", compiler.SinglePPR("ZZZ", ftqc.AnglePi8).SubstituteStabilizer(), 3, RunOptions{Faults: testFaults()}},
		{"qft2-d5", compiler.QFT2(2).SubstituteStabilizer(), 5, RunOptions{}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			runner, err := NewShotRunner(tc.circ, tc.d, 0.001, 11, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			ctx := context.Background()
			shot := 0
			run := func() {
				if _, _, err := runner.RunShot(ctx, shot); err != nil {
					t.Fatal(err)
				}
				shot++
			}
			for i := 0; i < 8; i++ {
				run() // warm up lazily-grown scratch
			}
			if avg := testing.AllocsPerRun(32, run); avg != 0 {
				t.Fatalf("steady-state shot allocates %.1f times, want 0", avg)
			}
		})
	}
}

// TestMemoryRunnerMatchesFresh pins the threshold-experiment reuse: a
// runner reset per trial must reproduce the fresh-backend memoryTrial
// exactly, across seeds, error-rate retargets, and fault-config swaps.
func TestMemoryRunnerMatchesFresh(t *testing.T) {
	fcfg := faults.Config{StallProb: 1, StallFactor: 4, BufferRounds: 3, Policy: faults.PolicyDropOldest}
	r := NewMemoryRunner(3, 0.01, faults.Config{})
	cells := []struct {
		p    float64
		fcfg faults.Config
	}{
		{0.01, faults.Config{}},
		{0.02, faults.Config{}},
		{0.02, fcfg},
		{0.005, fcfg},
		{0.01, faults.Config{}}, // back to the first environment
	}
	for _, cell := range cells {
		r.SetPhysError(cell.p)
		r.SetFaults(cell.fcfg)
		for s := 0; s < 6; s++ {
			trialSeed := int64(31) + int64(s)*trialSeedStride
			wantFail, wantTot, err := memoryTrial(3, cell.p, 3, trialSeed, cell.fcfg)
			if err != nil {
				t.Fatal(err)
			}
			gotFail, gotTot, err := r.Trial(3, trialSeed)
			if err != nil {
				t.Fatal(err)
			}
			if gotFail != wantFail || gotTot != wantTot {
				t.Fatalf("p=%v faults=%+v seed %d: reused runner (%v, %+v) != fresh (%v, %+v)",
					cell.p, cell.fcfg, trialSeed, gotFail, gotTot, wantFail, wantTot)
			}
		}
	}
}

// TestMemoryRunnerSteadyStateAllocs pins the trial loop at zero heap
// allocations, the basis of the threshold-study allocation reduction.
func TestMemoryRunnerSteadyStateAllocs(t *testing.T) {
	r := NewMemoryRunner(3, 0.01, faults.Config{StallProb: 0.5, StallFactor: 4, BufferRounds: 3, Policy: faults.PolicyDropOldest})
	seed := int64(7)
	run := func() {
		if _, _, err := r.Trial(3, seed); err != nil {
			t.Fatal(err)
		}
		seed += trialSeedStride
	}
	for i := 0; i < 8; i++ {
		run()
	}
	if avg := testing.AllocsPerRun(32, run); avg != 0 {
		t.Fatalf("steady-state memory trial allocates %.1f times, want 0", avg)
	}
}

// TestMemoryExperimentReuseAcrossCells checks that a pool reused across
// a (p, faults) grid reports exactly what a fresh experiment per cell
// reports.
func TestMemoryExperimentReuseAcrossCells(t *testing.T) {
	ctx := context.Background()
	exp := NewMemoryExperiment(3)
	fcfg := faults.Config{StallProb: 1, StallFactor: 4, BufferRounds: 3, Policy: faults.PolicyDropOldest}
	cells := []struct {
		p    float64
		fcfg faults.Config
	}{
		{0.005, faults.Config{}},
		{0.02, faults.Config{}},
		{0.02, fcfg},
	}
	for _, cell := range cells {
		gotRate, gotTot, err := exp.ErrorRate(ctx, cell.p, 3, 40, 31, cell.fcfg)
		if err != nil {
			t.Fatal(err)
		}
		wantRate, wantTot, err := NewMemoryExperiment(3).ErrorRate(ctx, cell.p, 3, 40, 31, cell.fcfg)
		if err != nil {
			t.Fatal(err)
		}
		//xqlint:ignore floateq both are fail-counts divided by the same trial total
		if gotRate != wantRate || gotTot != wantTot {
			t.Fatalf("p=%v: reused experiment (%v, %+v) != fresh (%v, %+v)",
				cell.p, gotRate, gotTot, wantRate, wantTot)
		}
	}
}

// memoryTrial runs one threshold-experiment trial: prepare |0_L>, run
// `windows` decode windows with fault injection, and report whether the
// final Z readout flipped. A panic inside the backend is converted into
// an error naming the trial and its seed.
//
// It builds a fresh backend per trial — the reference implementation the
// reusable MemoryRunner is tested against (TestMemoryRunnerMatchesFresh).
func memoryTrial(d int, p float64, windows int, trialSeed int64, fcfg faults.Config) (fail bool, tot faults.Totals, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("core: memory trial panicked: %v (replay with seed %d)", r, trialSeed)
		}
	}()
	layout := surface.NewPPRLayout(1, d)
	b := microarch.NewBackend(layout, p, trialSeed, true)
	inj := faults.NewInjector(fcfg, trialSeed)
	b.PrepareZero(0)
	for w := 0; w < windows; w++ {
		for r := 0; r < d; r++ {
			b.InjectRoundNoise()
			if inj.Round().DropEvents {
				b.DropNextRoundEvents()
			}
			b.MeasureSyndromesRound(r == d-1)
		}
		wd := b.FinishWindow()
		// The injector prices the window at the same decode cost the full
		// pipeline would; under backpressure overflow the data qubits
		// idle (and decohere) for the excess rounds.
		wo := inj.Window(decoder.WindowCycles(decoder.SchemePriority, d, wd.MatchesZ, wd.MatchesX, wd.ActiveCells, wd.Windows), d)
		for i := 0; i < wo.BackpressureRounds; i++ {
			b.InjectRoundNoise()
		}
	}
	pr := pauli.NewProduct(b.NumLQ())
	pr.Ops[0] = pauli.Z
	return b.MeasureProduct(pr), inj.Totals(), nil
}
