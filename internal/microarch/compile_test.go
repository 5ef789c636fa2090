package microarch

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"xqsim/internal/compiler"
	"xqsim/internal/ftqc"
	"xqsim/internal/isa"
	"xqsim/internal/pauli"
	"xqsim/internal/surface"
)

// goldenZZStream pins the lowered micro-op stream of the magic-state
// pi/4 ZZ rotation at d=3. Any change to the lowering (grouping, region
// routing, product assembly, decode-window placement) must update this
// pin deliberately.
const goldenZZStream = `compiled nLQ=2 d=3 uops=16
  0 LQI            pc=0   n=1 targets=[0:zero 1:zero]
  1 RUN_ESM        pc=1   n=1 active=2
  2 LQI            pc=2   n=1 targets=[2:zero 3:magic] flags=0x4
  3 MERGE_INFO     pc=3   n=1 prod=ZZIZ region=[0 1 2 7 12] targets=3
  4 MERGE_INFO     pc=4   n=1 prod=IIYZ region=[10 11 12] targets=2
  5 INIT_INTMD     pc=5   n=1 region=[0 1 2 7 10 11 12]
  6 RUN_ESM        pc=6   n=1 active=7 measure=[0 1] intmd=[1 7 11]
  7 MEAS_INTMD     pc=7   n=1 region=[0 1 2 7 10 11 12] intmd=3
  8 SPLIT_INFO     pc=8   n=1 region=[0 1 2 7 10 11 12]
  9 RUN_ESM        pc=9   n=1 active=4
 10 PPM_INTERPRET  pc=10  n=1 prod=ZZIZ mreg=2 weight=3 flags=0x5
 11 PPM_INTERPRET  pc=11  n=1 prod=IIYZ mreg=3 weight=2 flags=0x5
 12 LQM_X          pc=12  n=1 targets=[3:zero] mreg=4 flags=0xd
 13 LQM_FM         pc=13  n=1 targets=[2:zero] mreg=5 flags=0xf
 14 LQM_Z          pc=14  n=1 targets=[0:zero] mreg=0
 15 LQM_Z          pc=15  n=1 targets=[1:zero] mreg=1
`

func TestCompiledGoldenStream(t *testing.T) {
	circ := compiler.SinglePPR("ZZ", ftqc.AnglePi4)
	res, err := compiler.Compile(circ)
	if err != nil {
		t.Fatal(err)
	}
	cp, err := CompileProgram(res.Program, circ.NLQ, 3)
	if err != nil {
		t.Fatal(err)
	}
	if got := cp.Dump(); got != goldenZZStream {
		t.Errorf("lowered stream changed:\n--- got ---\n%s--- want ---\n%s", got, goldenZZStream)
	}
	if cp.Len() != len(res.Program) {
		t.Errorf("compiled Len = %d, source has %d instructions", cp.Len(), len(res.Program))
	}
}

// TestPipelineResetMatchesFresh pins the shot-reuse determinism
// contract: Reset(seed) followed by a run must equal a freshly
// constructed pipeline run with the same seed — including after a prior
// run with a different seed dirtied every piece of architectural state.
func TestPipelineResetMatchesFresh(t *testing.T) {
	circ := compiler.SinglePPR("ZZ", ftqc.AnglePi4)
	res, err := compiler.Compile(circ)
	if err != nil {
		t.Fatal(err)
	}
	cp, err := CompileProgram(res.Program, circ.NLQ, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, mk := range []struct {
		name string
		cfg  func(seed int64) Config
	}{
		{"noisy", func(seed int64) Config { return testConfig(3, 0.002, seed) }},
		{"faulty", func(seed int64) Config { return faultyConfig(3, seed) }},
	} {
		reused := NewPipeline(surface.NewPPRLayout(circ.NLQ, 3), mk.cfg(7))
		for seed := int64(7); seed < 13; seed++ {
			reused.Reset(seed)
			if err := reused.RunCompiled(context.Background(), cp); err != nil {
				t.Fatalf("%s seed %d: reused: %v", mk.name, seed, err)
			}
			fresh := NewPipeline(surface.NewPPRLayout(circ.NLQ, 3), mk.cfg(seed))
			if err := fresh.RunCompiled(context.Background(), cp); err != nil {
				t.Fatalf("%s seed %d: fresh: %v", mk.name, seed, err)
			}
			if !reflect.DeepEqual(fresh.M, reused.M) {
				t.Fatalf("%s seed %d: reset pipeline diverges from fresh:\nfresh:  %+v\nreused: %+v",
					mk.name, seed, fresh.M, reused.M)
			}
		}
	}
}

// TestCompilePendingRegionTracksMerges pins the pending region on a
// hand-built stream the compiler never emits: a MERGE_INFO after an
// INIT_INTMD of the same window must widen the region SPLIT_INFO
// restores to the union of both merges.
func TestCompilePendingRegionTracksMerges(t *testing.T) {
	mergeZ := func(lq int) isa.Instr {
		in := isa.Instr{Op: isa.MergeInfo}
		in.SetPauliAt(lq, pauli.Z)
		return in
	}
	prog := isa.Program{mergeZ(0), {Op: isa.InitIntmd}, mergeZ(1), {Op: isa.SplitInfo}}
	cp, err := CompileProgram(prog, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	dump := cp.Dump()
	for _, want := range []string{"INIT_INTMD     pc=1   n=1 region=[0]\n", "SPLIT_INFO     pc=3   n=1 region=[0 2]\n"} {
		if !strings.Contains(dump, want) {
			t.Errorf("stream lacks %q:\n%s", want, dump)
		}
	}
}

func TestCompileProgramErrors(t *testing.T) {
	circ := compiler.SinglePPR("ZZ", ftqc.AnglePi4)
	res, err := compiler.Compile(circ)
	if err != nil {
		t.Fatal(err)
	}
	// Shape mismatch is refused at run time.
	cp, err := CompileProgram(res.Program, circ.NLQ, 3)
	if err != nil {
		t.Fatal(err)
	}
	pl := NewPipeline(surface.NewPPRLayout(circ.NLQ, 5), testConfig(5, 0, 1))
	if err := pl.RunCompiled(context.Background(), cp); err == nil ||
		!strings.Contains(err.Error(), "does not match pipeline") {
		t.Fatalf("shape mismatch not refused: %v", err)
	}
	if err := pl.RunCompiled(context.Background(), nil); err == nil {
		t.Fatal("nil compiled program not refused")
	}

	// An interpret without its merge is a compile-time error now.
	bad := res.Program[len(res.Program)-6:] // starts at PPM_INTERPRET
	if _, err := CompileProgram(bad, circ.NLQ, 3); err == nil ||
		!strings.Contains(err.Error(), "without a recorded merge") {
		t.Fatalf("dangling PPM_INTERPRET not rejected: %v", err)
	}
}

func TestRunCompiledCtxCancel(t *testing.T) {
	circ := compiler.SinglePPR("ZZ", ftqc.AnglePi4)
	res, err := compiler.Compile(circ)
	if err != nil {
		t.Fatal(err)
	}
	cp, err := CompileProgram(res.Program, circ.NLQ, 3)
	if err != nil {
		t.Fatal(err)
	}
	pl := NewPipeline(surface.NewPPRLayout(circ.NLQ, 3), faultyConfig(3, 3))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := pl.RunCompiled(ctx, cp); err != context.Canceled {
		t.Fatalf("canceled run returned %v", err)
	}
	// The pipeline stays usable after a canceled run: Reset + rerun
	// completes and flows fault totals through the deferred copy path.
	pl.Reset(3)
	if err := pl.RunCompiled(context.Background(), cp); err != nil {
		t.Fatal(err)
	}
	if pl.M.Faults != pl.inj.Totals() {
		t.Fatal("fault totals not copied into metrics")
	}
}

// TestCompiledSteadyStateAllocs pins the tentpole property: after
// warm-up, a Reset+RunCompiled shot allocates nothing.
func TestCompiledSteadyStateAllocs(t *testing.T) {
	circ := compiler.SinglePPR("ZZ", ftqc.AnglePi4)
	res, err := compiler.Compile(circ)
	if err != nil {
		t.Fatal(err)
	}
	cp, err := CompileProgram(res.Program, circ.NLQ, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, mk := range []struct {
		name string
		cfg  Config
	}{
		{"noisy", testConfig(3, 0.002, 11)},
		{"faulty", faultyConfig(3, 11)},
	} {
		pl := NewPipeline(surface.NewPPRLayout(circ.NLQ, 3), mk.cfg)
		seed := int64(100)
		shot := func() {
			pl.Reset(seed)
			seed++
			if err := pl.RunCompiled(context.Background(), cp); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 8; i++ { // warm up buffers to steady-state capacity
			shot()
		}
		if allocs := testing.AllocsPerRun(32, shot); allocs != 0 {
			t.Errorf("%s: steady-state shot allocates %v times, want 0", mk.name, allocs)
		}
	}
}
