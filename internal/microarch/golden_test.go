package microarch

import (
	"context"
	"crypto/sha256"
	"fmt"
	"os"
	"strings"
	"testing"

	"xqsim/internal/compiler"
	"xqsim/internal/decoder"
	"xqsim/internal/ftqc"
	"xqsim/internal/surface"
)

// executorGoldenPath holds one line per executor run (see goldenLine).
// The file was recorded from the interpreted executor that preceded
// RunCompiled, and it passed against both executors before the
// interpreter was deleted, so it is the reference for every unit's
// accounting. It is never rewritten by the test: a diff in it is a
// behaviour change that needs its own review.
const executorGoldenPath = "testdata/executor.golden"

// goldenCircuits is the functional program corpus: plain stabilizer
// rotations, the magic-state protocols of both angles, wide multi-window
// products, and seeded random PPR sequences.
func goldenCircuits() []compiler.Circuit {
	circs := []compiler.Circuit{
		compiler.SinglePPR("Z", 0).SubstituteStabilizer(),
		compiler.SinglePPR("ZZ", 0).SubstituteStabilizer(),
		compiler.SinglePPR("XZ", 0).SubstituteStabilizer(),
		compiler.SinglePPR("ZZ", ftqc.AnglePi4),
		compiler.SinglePPR("XX", ftqc.AnglePi8).SubstituteStabilizer(),
	}
	for seed := int64(1); seed <= 4; seed++ {
		circs = append(circs, compiler.RandomPPR(2, 3, seed).SubstituteStabilizer())
		circs = append(circs, compiler.RandomPPR(3, 4, seed+100).SubstituteStabilizer())
	}
	return circs
}

// goldenRun is one pinned execution: a circuit on a fresh pipeline.
type goldenRun struct {
	name string
	circ compiler.Circuit
	cfg  Config
}

// executorGoldenRuns lists the golden's runs in file order: the
// functional corpus at d=3 (noiseless, noisy and fault-injected, seeds
// 0-5), then the scaling-mode workload behind MeasureRates and Fig. 16
// (no tableau) under every decode scheme at d = 3, 5 and 15.
func executorGoldenRuns() []goldenRun {
	var runs []goldenRun
	modes := []struct {
		name string
		cfg  func(seed int64) Config
	}{
		{"noiseless", func(seed int64) Config { return testConfig(3, 0, seed) }},
		{"noisy", func(seed int64) Config { return testConfig(3, 0.001, seed) }},
		{"faulty", func(seed int64) Config { return faultyConfig(3, seed) }},
	}
	for ci, circ := range goldenCircuits() {
		for _, mode := range modes {
			for seed := int64(0); seed < 6; seed++ {
				runs = append(runs, goldenRun{
					name: fmt.Sprintf("c%02d-%s/%s/seed=%d", ci, circ.Name, mode.name, seed),
					circ: circ,
					cfg:  mode.cfg(seed),
				})
			}
		}
	}
	schemes := []decoder.Scheme{decoder.SchemeRoundRobin, decoder.SchemePriority, decoder.SchemePatchSliding}
	for _, scheme := range schemes {
		for _, d := range []int{3, 5, 15} {
			for seed := int64(1); seed <= 4; seed++ {
				cfg := testConfig(d, 0.001, seed)
				cfg.Functional = false
				cfg.Scheme = scheme
				runs = append(runs, goldenRun{
					name: fmt.Sprintf("scaling/%s/d=%d/seed=%d", scheme, d, seed),
					circ: compiler.RandomPPR(4, 6, seed).SubstituteStabilizer(),
					cfg:  cfg,
				})
			}
		}
	}
	return runs
}

// goldenLine renders one run: a SHA-256 over every Metrics field (unit
// stats, transfer matrix, virtual time, decode and fault totals, the
// register file) plus the instruction, ESM-round and decode-cycle counts
// and the written registers in readable form, so a diff shows at a
// glance which part of the accounting moved.
func goldenLine(name string, m *Metrics) string {
	var mreg strings.Builder
	m.MregFile.Range(func(r uint16, v bool) {
		if mreg.Len() > 0 {
			mreg.WriteByte(',')
		}
		bit := 0
		if v {
			bit = 1
		}
		fmt.Fprintf(&mreg, "%d:%d", r, bit)
	})
	return fmt.Sprintf("%s sha256=%x instr=%d esm=%d decode=%d mreg=%s",
		name, sha256.Sum256([]byte(fmt.Sprintf("%+v", *m))),
		m.Instructions, m.ESMRounds, m.DecodeCyclesSum, mreg.String())
}

// TestExecutorGolden runs every golden run through CompileProgram and
// RunCompiled on a fresh pipeline and requires its line to match the
// recorded one byte for byte.
func TestExecutorGolden(t *testing.T) {
	data, err := os.ReadFile(executorGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	runs := executorGoldenRuns()
	if len(want) != len(runs) {
		t.Fatalf("%s has %d lines, the run list has %d", executorGoldenPath, len(want), len(runs))
	}
	for i, r := range runs {
		res, err := compiler.Compile(r.circ)
		if err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		cp, err := CompileProgram(res.Program, r.circ.NLQ, r.cfg.D)
		if err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		pl := NewPipeline(surface.NewPPRLayout(r.circ.NLQ, r.cfg.D), r.cfg)
		if err := pl.RunCompiled(context.Background(), cp); err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		if got := goldenLine(r.name, &pl.M); got != want[i] {
			t.Errorf("line %d diverges from the recorded executor:\n got %s\nwant %s", i+1, got, want[i])
		}
	}
}
