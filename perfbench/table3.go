package main

import (
	"context"
	"fmt"
	"math"
	"strconv"
	"strings"

	"xqsim/internal/compiler"
	"xqsim/internal/config"
	"xqsim/internal/core"
	"xqsim/internal/ftqc"
	"xqsim/internal/microarch"
	"xqsim/internal/statevec"
	"xqsim/internal/surface"
	"xqsim/internal/sweep"
)

const (
	// table3Shots is the paper's shot count.
	table3Shots = 2048
	// table3WarmupShots sizes the warm-up Table 3: the same code at an
	// eighth of an operation's cost.
	table3WarmupShots = 256
	// table3MaxDTV is twice the paper's largest Table 3 distance.
	table3MaxDTV = 0.107
	// table3Prefix operations enter the digest and the simulated counts.
	table3Prefix = 4
	// table3RowStride is sweep.Table3's per-row seed stride.
	table3RowStride = 7919
)

// table3 runs the paper's functional validation: one operation is a
// full Table 3 (three PPRs at d=3, QFT and QAOA at d=5) at 2048 shots
// with a fresh seed — compile, QISA, compiled pipeline, tableau
// backend, EDU decode and the exact statevector reference.
//
// Untraced operations call sweep.Table3. Traced operations make the
// same calls Table3 makes through core.ValidateCircuit and
// core.RunShots, one by one, so each gets a span: the reference
// distribution, the shot runners, every shot, and the distance. The
// digest of a traced run equals the untraced run's only if the two
// paths agree bit for bit.
type table3 struct {
	seed   int64
	cases  []t3case
	dtvs   []float64
	counts simCounts
	shotNs float64
	rounds float64
}

type t3case struct {
	name string
	circ compiler.Circuit
	d    int
}

func (w *table3) setup(_ context.Context, seed int64, _ string) error {
	w.seed = seed
	// The rows of sweep.Table3, in its order.
	w.cases = []t3case{
		{"PPR(Z3Z4Z5)", compiler.SinglePPR("ZZZ", ftqc.AnglePi8), 3},
		{"PPR(Y3X4Z5X6)", compiler.SinglePPR("YXZX", ftqc.AnglePi8), 3},
		{"PPR(Y3Y4Z5Z6)", compiler.SinglePPR("YYZZ", ftqc.AnglePi8), 3},
		{"QFT", compiler.QFT2(2), 5},
		{"QAOA", compiler.QAOA(4), 5},
	}
	return nil
}

func (w *table3) warmup(ctx context.Context, r *recorder) error {
	if _, err := sweep.Table3(ctx, table3WarmupShots, warmupSeed(0)); err != nil {
		return err
	}
	if r.tr == nil {
		return nil
	}
	_, err := w.traced(ctx, warmupSeed(1), newTracer().root("warmup"), false)
	return warmupErr(err)
}

func (w *table3) loop(ctx context.Context, r *recorder) error {
	w.shotNs, w.rounds = 0, 0 // drop the warm-up's
	return seqLoop(ctx, r, table3Prefix, func(ctx context.Context, k int, root spanRef) ([]byte, error) {
		seed := opSeed(w.seed, k)
		var rows []sweep.Table3Row
		var err error
		if root.t == nil {
			rows, err = sweep.Table3(ctx, table3Shots, seed)
		} else {
			rows, err = w.traced(ctx, seed, root, k < table3Prefix)
		}
		if err != nil {
			return nil, err
		}
		return w.check(rows)
	}, nil)
}

// check verifies every row's distance and renders the simulated
// outputs: each row's distance, bit-exact.
func (w *table3) check(rows []sweep.Table3Row) ([]byte, error) {
	if len(rows) != len(w.cases) {
		return nil, checkFailed("table3: %d rows, want %d", len(rows), len(w.cases))
	}
	var out []byte
	for _, row := range rows {
		if !(row.DTV >= 0 && row.DTV <= table3MaxDTV) {
			return nil, checkFailed("table3: %s dTV %.4f outside [0, %.3f]", row.Benchmark, row.DTV, table3MaxDTV)
		}
		w.dtvs = append(w.dtvs, row.DTV)
		out = append(out, row.Benchmark...)
		out = append(out, ' ')
		out = strconv.AppendUint(out, math.Float64bits(row.DTV), 16)
		out = append(out, '\n')
	}
	return out, nil
}

// traced computes Table 3 call by call. count adds the shots' simulated
// counts to the run's totals.
func (w *table3) traced(ctx context.Context, seed int64, root spanRef, count bool) ([]sweep.Table3Row, error) {
	rows := make([]sweep.Table3Row, 0, len(w.cases))
	for i, c := range w.cases {
		if err := c.circ.Validate(); err != nil {
			return nil, err
		}
		sub := c.circ.SubstituteStabilizer()
		var ref []float64
		root.call("compiler.reference", func() { ref = compiler.ReferenceDistribution(sub) })
		phys, err := w.shots(ctx, root, sub, c.d, seed+int64(i)*table3RowStride, count)
		if err != nil {
			return nil, err
		}
		var dtv float64
		root.call("statevec.tv", func() { dtv = statevec.TotalVariation(ref, phys) })
		lay := surface.NewPPRLayout(c.circ.NLQ, c.d)
		rows = append(rows, sweep.Table3Row{
			Benchmark: c.name, NLQ: c.circ.NLQ, Patches: lay.NumPatches(),
			D: c.d, NPhys: lay.PhysicalQubits(), DTV: dtv,
		})
	}
	return rows, nil
}

// shots runs one row's shots on one runner — what core.RunShots does at
// GOMAXPROCS=1 — and returns the outcome distribution.
func (w *table3) shots(ctx context.Context, root spanRef, circ compiler.Circuit, d int, seed int64, count bool) ([]float64, error) {
	var runner *core.ShotRunner
	var err error
	root.call("core.runner_build", func() {
		runner, err = core.NewShotRunner(circ, d, config.PhysErrorRate, seed, core.RunOptions{})
	})
	if err != nil {
		return nil, err
	}
	counts := make([]float64, 1<<uint(circ.NLQ))
	for s := 0; s < table3Shots; s++ {
		sp := root.child("core.shot")
		m, key, err := runner.RunShot(ctx, s)
		ns := sp.end()
		if err != nil {
			return nil, err
		}
		counts[key]++
		w.rounds += float64(m.ESMRounds)
		w.shotNs += float64(ns)
		if count {
			w.counts.add(m)
		}
	}
	for i := range counts {
		counts[i] /= table3Shots
	}
	return counts, nil
}

func (w *table3) finish(_ context.Context, r *recorder) error {
	fmt.Printf("info table3 dtv_mean=%.5f rows=%d\n", mean(w.dtvs), len(w.dtvs))
	r.set("statevec.dtv_mean", mean(w.dtvs))
	if w.rounds > 0 {
		r.set("core.shot_ns_per_esm_round", w.shotNs/w.rounds)
	}
	w.counts.report(r)
	return nil
}

func (w *table3) close() error { return nil }

// simCounts sums the simulated accounting of pipeline runs. A change
// that only speeds up the simulator leaves every count identical.
type simCounts struct {
	instructions, esmRounds, decodeWindows, decodeCycles uint64
	syndromes, matches, matchSteps, transferBits         uint64
	unitOps, unitActive                                  [microarch.UnitLMU + 1]uint64
}

func (c *simCounts) add(m *microarch.Metrics) {
	c.instructions += uint64(m.Instructions)
	c.esmRounds += uint64(m.ESMRounds)
	c.decodeWindows += uint64(m.DecodeWindows)
	c.decodeCycles += m.DecodeCyclesSum
	c.syndromes += uint64(m.SyndromesSum)
	c.matches += uint64(m.MatchesSum)
	c.matchSteps += uint64(m.MatchStepsSum)
	for _, row := range m.TransferBits {
		for _, b := range row {
			c.transferBits += b
		}
	}
	for u := microarch.UnitQID; u <= microarch.UnitLMU; u++ {
		c.unitOps[u] += m.Unit[u].Ops
		c.unitActive[u] += m.Unit[u].ActiveCycles
	}
}

// report sets the microarch.* count metrics.
func (c *simCounts) report(r *recorder) {
	r.set("microarch.instructions", float64(c.instructions))
	r.set("microarch.esm_rounds", float64(c.esmRounds))
	r.set("microarch.decode_windows", float64(c.decodeWindows))
	r.set("microarch.decode_cycles", float64(c.decodeCycles))
	r.set("microarch.syndromes", float64(c.syndromes))
	r.set("microarch.matches", float64(c.matches))
	r.set("microarch.match_steps", float64(c.matchSteps))
	r.set("microarch.transfer_bits", float64(c.transferBits))
	for u := microarch.UnitQID; u <= microarch.UnitLMU; u++ {
		name := "microarch." + strings.ToLower(u.String())
		r.set(name+".ops", float64(c.unitOps[u]))
		r.set(name+".active_cycles", float64(c.unitActive[u]))
	}
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}
