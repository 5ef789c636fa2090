package main

import (
	"fmt"
	"strings"
	"testing"

	"xqsim"
	"xqsim/internal/isa"
	"xqsim/internal/microarch"
	"xqsim/internal/surface"
)

// TestRun runs the walkthrough end to end: every checkpoint opcode of the
// program prints its lattice, and the registers reported after the prefix
// replays equal a whole-program run at the walkthrough's seed on a fresh
// pipeline.
func TestRun(t *testing.T) {
	var sb strings.Builder
	if err := run(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()

	circ := xqsim.SinglePPR("ZZ", xqsim.AnglePi8).SubstituteStabilizer()
	res, err := xqsim.Compile(circ)
	if err != nil {
		t.Fatal(err)
	}
	for _, cp := range []struct {
		op     isa.Opcode
		header string
	}{
		{isa.MergeInfo, "\n-- after MERGE_INFO"},
		{isa.SplitInfo, "\n-- after SPLIT_INFO"},
		{isa.LQMFM, "\n-- after the feedback measurement"},
	} {
		n := 0
		for _, in := range res.Program {
			if in.Op == cp.op {
				n++
			}
		}
		if got := strings.Count(out, cp.header); n == 0 || got != n {
			t.Errorf("%v: %d checkpoint dumps for %d instructions", cp.op, got, n)
		}
	}
	for _, want := range []string{"Q0(M)", "=====", "Table-2-style patch information", "protocol-level execution"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}

	cfg := xqsim.PipelineConfig(3, 0, xqsim.SchemePriority, true, seed)
	pl := microarch.NewPipeline(surface.NewPPRLayout(circ.NLQ, 3), cfg)
	if err := pl.Run(res.Program); err != nil {
		t.Fatal(err)
	}
	var regs strings.Builder
	regs.WriteString("\nmeasurement registers:\n")
	pl.M.MregFile.Range(func(mreg uint16, v bool) {
		fmt.Fprintf(&regs, "  mreg[%d] = %v\n", mreg, v)
	})
	regs.WriteString("\nTable-2-style")
	if !strings.Contains(out, regs.String()) {
		t.Errorf("registers differ from a whole-program run; want\n%s\nin\n%s", regs.String(), out)
	}
}
