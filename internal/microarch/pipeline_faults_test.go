package microarch

import (
	"context"
	"strings"
	"testing"

	"xqsim/internal/compiler"
	"xqsim/internal/faults"
	"xqsim/internal/isa"
	"xqsim/internal/pauli"
	"xqsim/internal/surface"
)

// compileTestProgram compiles a small two-qubit circuit that exercises
// merges, ESM windows, and final measurements.
func compileTestProgram(t *testing.T) (compiler.Circuit, isa.Program) {
	t.Helper()
	circ := compiler.SinglePPR("ZZ", 0).SubstituteStabilizer()
	res, err := compiler.Compile(circ)
	if err != nil {
		t.Fatal(err)
	}
	return circ, res.Program
}

func faultyConfig(d int, seed int64) Config {
	cfg := testConfig(d, 0.001, seed)
	cfg.Faults = faults.Config{
		StallProb: 0.5, StallFactor: 4,
		BufferRounds: 2 * d, Policy: faults.PolicyDropOldest,
		LinkErrorProb: 0.05, LinkRetries: 2,
	}
	return cfg
}

func TestPipelineFaultDeterminism(t *testing.T) {
	// Two runs with the same seed and same fault config must be
	// bit-identical: fault totals, decode cycles, and readout registers.
	circ, prog := compileTestProgram(t)
	run := func(seed int64) *Pipeline {
		pl := NewPipeline(surface.NewPPRLayout(circ.NLQ, 3), faultyConfig(3, seed))
		if err := pl.Run(prog); err != nil {
			t.Fatal(err)
		}
		return pl
	}
	a, b := run(42), run(42)
	if a.M.Faults != b.M.Faults {
		t.Fatalf("same seed, different fault totals:\n%+v\n%+v", a.M.Faults, b.M.Faults)
	}
	if a.M.DecodeCyclesSum != b.M.DecodeCyclesSum || a.M.DecodeCyclesMax != b.M.DecodeCyclesMax {
		t.Fatalf("same seed, different decode cycles: %d/%d vs %d/%d",
			a.M.DecodeCyclesSum, a.M.DecodeCyclesMax, b.M.DecodeCyclesSum, b.M.DecodeCyclesMax)
	}
	a.M.MregFile.Range(func(reg uint16, val bool) {
		if b.M.MregFile.Get(reg) != val {
			t.Fatalf("same seed, different readout in mreg %d", reg)
		}
	})
}

func TestPipelineStallFaultsSlowDecode(t *testing.T) {
	circ, prog := compileTestProgram(t)
	clean := NewPipeline(surface.NewPPRLayout(circ.NLQ, 3), testConfig(3, 0, 7))
	if err := clean.Run(prog); err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(3, 0, 7)
	cfg.Faults = faults.Config{StallProb: 1, StallFactor: 4}
	faulty := NewPipeline(surface.NewPPRLayout(circ.NLQ, 3), cfg)
	if err := faulty.Run(prog); err != nil {
		t.Fatal(err)
	}
	if faulty.M.Faults.StallWindows != faulty.M.DecodeWindows {
		t.Fatalf("probability-1 stall hit %d of %d windows",
			faulty.M.Faults.StallWindows, faulty.M.DecodeWindows)
	}
	if faulty.M.Faults.StallCycles == 0 {
		t.Fatal("stalled run reports zero stall cycles")
	}
	if faulty.M.DecodeCyclesSum <= clean.M.DecodeCyclesSum {
		t.Fatalf("stalled decode (%d cycles) not slower than clean (%d cycles)",
			faulty.M.DecodeCyclesSum, clean.M.DecodeCyclesSum)
	}
	if faulty.M.Faults.StallCycles != faulty.M.DecodeCyclesSum-clean.M.DecodeCyclesSum {
		t.Fatalf("stall cycles %d do not account for the decode slowdown %d",
			faulty.M.Faults.StallCycles, faulty.M.DecodeCyclesSum-clean.M.DecodeCyclesSum)
	}
}

func TestPipelineBackpressureIdlesDataQubits(t *testing.T) {
	circ, prog := compileTestProgram(t)
	clean := NewPipeline(surface.NewPPRLayout(circ.NLQ, 3), testConfig(3, 0, 7))
	if err := clean.Run(prog); err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(3, 0, 7)
	cfg.Faults = faults.Config{
		StallProb: 1, StallFactor: 3,
		BufferRounds: 3, Policy: faults.PolicyBackpressure,
	}
	faulty := NewPipeline(surface.NewPPRLayout(circ.NLQ, 3), cfg)
	if err := faulty.Run(prog); err != nil {
		t.Fatal(err)
	}
	if faulty.M.Faults.BackpressureRounds == 0 {
		t.Fatal("overflowing backpressure run reports zero backpressure rounds")
	}
	if faulty.M.Faults.DroppedRounds != 0 {
		t.Fatal("backpressure policy must not drop rounds")
	}
	if faulty.M.VirtualNs <= clean.M.VirtualNs {
		t.Fatalf("backpressure run (%v ns) not slower than clean run (%v ns)",
			faulty.M.VirtualNs, clean.M.VirtualNs)
	}
}

func TestPipelineLinkFaultsRetransmit(t *testing.T) {
	circ, prog := compileTestProgram(t)
	cfg := testConfig(3, 0, 7)
	cfg.Faults = faults.Config{LinkErrorProb: 1, LinkRetries: 2}
	pl := NewPipeline(surface.NewPPRLayout(circ.NLQ, 3), cfg)
	if err := pl.Run(prog); err != nil {
		t.Fatal(err)
	}
	if pl.M.Faults.Retransmits == 0 || pl.M.Faults.BackoffCycles == 0 {
		t.Fatalf("probability-1 link corruption produced no retransmissions: %+v", pl.M.Faults)
	}
	if pl.M.Faults.DroppedRounds != pl.M.ESMRounds {
		t.Fatalf("retry exhaustion dropped %d of %d rounds",
			pl.M.Faults.DroppedRounds, pl.M.ESMRounds)
	}
}

func TestRunCtxCanceledStopsBetweenInstructions(t *testing.T) {
	circ, prog := compileTestProgram(t)
	cp, err := CompileProgram(prog, circ.NLQ, 3)
	if err != nil {
		t.Fatal(err)
	}
	pl := NewPipeline(surface.NewPPRLayout(circ.NLQ, 3), testConfig(3, 0, 7))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := pl.RunCompiled(ctx, cp); err != context.Canceled {
		t.Fatalf("RunCompiled on canceled ctx = %v, want context.Canceled", err)
	}
	if pl.M.Instructions != 0 {
		t.Fatalf("canceled run executed %d instructions", pl.M.Instructions)
	}
}

// TestPipelineMalformedPrograms feeds malformed/truncated programs into
// Pipeline.Run and asserts the error conversions fire instead of panics.
func TestPipelineMalformedPrograms(t *testing.T) {
	mergeZ := func(lq int) isa.Instr {
		in := isa.Instr{Op: isa.MergeInfo}
		in.SetPauliAt(lq, pauli.Z)
		return in
	}
	cases := []struct {
		name string
		prog isa.Program
		want string
	}{
		{
			name: "interpret without merge",
			prog: isa.Program{{Op: isa.PPMInterpret, MregDst: 1}},
			want: "PPM_INTERPRET without a recorded merge",
		},
		{
			name: "merge on unmapped qubit",
			prog: isa.Program{mergeZ(3)},
			want: "unmapped LQ",
		},
		{
			name: "interpret product mismatch",
			prog: func() isa.Program {
				interp := isa.Instr{Op: isa.PPMInterpret, MregDst: 1}
				interp.SetPauliAt(1, pauli.X)
				return isa.Program{mergeZ(0), {Op: isa.RunESM}, interp}
			}(),
			want: "does not match recorded merge",
		},
		{
			name: "bpcheck with incomplete slots",
			prog: func() isa.Program {
				in := isa.Instr{Op: isa.LQMZ, Flags: isa.FlagBPCheck, MregDst: 2}
				in.SetMarkAt(0, isa.MarkZero)
				return isa.Program{in}
			}(),
			want: "incomplete condition slots",
		},
		{
			name: "unsupported opcode",
			prog: isa.Program{{Op: isa.Opcode(99)}},
			want: "unsupported opcode",
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			pl := NewPipeline(surface.NewPPRLayout(2, 3), testConfig(3, 0, 1))
			err := pl.Run(c.prog)
			if err == nil {
				t.Fatalf("Run accepted malformed program %q", c.name)
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Fatalf("error %q does not mention %q", err, c.want)
			}
		})
	}
}
