// Command xqbench runs the repo's tier-1 benchmark set in-process (via
// testing.Benchmark) and emits a machine-readable JSON summary mapping
// each benchmark name to its ns/op and allocs/op:
//
//	go run ./cmd/xqbench -out BENCH_5.json
//
// With -check it additionally compares the fresh run against a committed
// baseline and exits 1 when any shared benchmark's ns/op exceeds
// -tolerance x the baseline, or its allocs/op exceed both -tolerance x
// the baseline and the baseline plus 8 (see checkBaseline; the
// SteadyStateAllocs tests pin the 0-alloc paths exactly):
//
//	go run ./cmd/xqbench -check BENCH_13.json -tolerance 2.0
//
// With -compare it renders a benchstat-style old-vs-new table from two
// committed summaries instead of running anything:
//
//	go run ./cmd/xqbench -compare BENCH_5.json BENCH_6.json
//
// The set covers the hot paths the allocation-free batch pipeline work
// targets (steady-state vs cold pipeline shots, compiled memory and
// density cells, scalar vs batch sampling) plus the established
// decoder/sweep benchmarks, kept small enough to finish in well under a
// minute.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"testing"

	"xqsim"
	"xqsim/internal/cli"
	"xqsim/internal/core"
	"xqsim/internal/decoder"
	"xqsim/internal/microarch"
	"xqsim/internal/pauli"
	"xqsim/internal/stab"
	"xqsim/internal/surface"
)

// Metrics is one benchmark's record in the JSON summary.
type Metrics struct {
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
}

// ladderCircuit is the 100-qubit H + CX-ladder + noisy-readout circuit
// BenchmarkFrameSamplerShot/Batch in internal/stab use; keeping the
// shape identical makes xqbench numbers comparable to `go test -bench`.
func ladderCircuit() *stab.Circuit {
	c := stab.NewCircuit(100)
	for q := 0; q < 100; q++ {
		c.H(q)
	}
	for q := 0; q+1 < 100; q += 2 {
		c.CX(q, q+1)
	}
	for q := 0; q < 100; q++ {
		c.FlipX(q, 0.001)
		c.MeasureZ(q)
	}
	return c
}

// benchmarks is the tier-1 set. Each function is a standard benchmark
// body; one iteration is one unit of the named work (one shot, one
// decode, one sweep cell). The context cancels the shot- and sweep-
// driven bodies so a SIGINT doesn't have to wait out a full benchmark.
func benchmarks(ctx context.Context) []struct {
	Name string
	Fn   func(b *testing.B)
} {
	return []struct {
		Name string
		Fn   func(b *testing.B)
	}{
		{"frame-sampler-shot", func(b *testing.B) {
			fs := stab.NewFrameSampler(ladderCircuit(), 1)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				fs.Sample()
			}
		}},
		{"frame-sampler-batch", func(b *testing.B) {
			bs, err := stab.NewBatchFrameSampler(ladderCircuit(), 1)
			if err != nil {
				b.Fatal(err)
			}
			sink := uint64(0)
			fn := func(base, lanes int, cols []uint64) { sink ^= cols[0] }
			b.ResetTimer()
			for done := 0; done < b.N; {
				n := b.N - done
				if n > 64 {
					n = 64
				}
				bs.SampleColumns(n, fn)
				done += n
			}
			if sink == 42 {
				b.Log("unreachable sink")
			}
		}},
		{"frame-sampler-batch-esm", func(b *testing.B) {
			// The production shape: the real d=5 ESM circuit, 5 noisy
			// rounds, per-shot cost through the column API.
			circ := surface.NewCode(5).ESMCircuit(5, 0.001, 0.002)
			bs, err := stab.NewBatchFrameSampler(circ, 1)
			if err != nil {
				b.Fatal(err)
			}
			sink := uint64(0)
			fn := func(base, lanes int, cols []uint64) { sink ^= cols[0] }
			b.ResetTimer()
			for done := 0; done < b.N; {
				n := b.N - done
				if n > 64 {
					n = 64
				}
				bs.SampleColumns(n, fn)
				done += n
			}
			if sink == 42 {
				b.Log("unreachable sink")
			}
		}},
		{"syndrome-density-d5", func(b *testing.B) {
			// One compiled density cell, reused: per-op cost is sampling
			// and counting 64 shots, not circuit compilation.
			s, err := surface.NewCode(5).NewSyndromeDensitySampler(5, 0.001, 0.002, 1)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = s.Density(64)
			}
		}},
		{"decode-patch-d7", func(b *testing.B) {
			code := surface.NewCode(7)
			syn := decoder.NewSyndromeBitmap(code)
			stabs := code.Stabilizers()
			var cells []surface.Coord
			for i, st := range stabs {
				if st.Basis == pauli.Z && i%5 == 0 {
					cells = append(cells, st.Anc)
				}
			}
			var sc decoder.Scratch
			var res decoder.Result
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				syn.Reset()
				for _, c := range cells {
					syn.Set(c)
				}
				decoder.DecodePatchInto(code, pauli.Z, syn, &sc, &res)
			}
		}},
		{"decode-patch-d15", func(b *testing.B) {
			// The exact matcher's heavy tail: a fixed d=15 window whose
			// 18 syndromes (the first Z plaquettes in columns 6-9, row
			// by row) form one cluster. Clusters of 14-20 syndromes
			// carry most of the matching work on the paper's scale
			// evaluations.
			code := surface.NewCode(15)
			syn := decoder.NewSyndromeBitmap(code)
			n := 0
			for _, st := range code.Stabilizers() {
				if n < 18 && st.Basis == pauli.Z && st.Anc.Col >= 6 && st.Anc.Col <= 9 {
					syn.Set(st.Anc)
					n++
				}
			}
			var sc decoder.Scratch
			var res decoder.Result
			decoder.DecodePatchInto(code, pauli.Z, syn, &sc, &res) // warm the scratch
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				decoder.DecodePatchInto(code, pauli.Z, syn, &sc, &res)
			}
		}},
		{"decode-uf-d7", func(b *testing.B) {
			// Same syndrome shape as decode-patch-d7, decoded through the
			// union-find backend — the head-to-head EDU latency race.
			code := surface.NewCode(7)
			syn := decoder.NewSyndromeBitmap(code)
			stabs := code.Stabilizers()
			var cells []surface.Coord
			for i, st := range stabs {
				if st.Basis == pauli.Z && i%5 == 0 {
					cells = append(cells, st.Anc)
				}
			}
			uf, err := decoder.NewBackendByName("union-find")
			if err != nil {
				b.Fatal(err)
			}
			var res decoder.Result
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				syn.Reset()
				for _, c := range cells {
					syn.Set(c)
				}
				uf.Decode(code, pauli.Z, syn, &res)
			}
		}},
		{"stream-round-d5", func(b *testing.B) {
			// One streamed ESM round through the windowed decoder (window
			// = d), alternating a two-event round with quiet rounds — the
			// steady-state per-round cost of real-time decode.
			code := surface.NewCode(5)
			events := decoder.NewSyndromeBitmap(code)
			n := 0
			for _, st := range code.Stabilizers() {
				if st.Basis == pauli.Z && n < 2 {
					events.Set(st.Anc)
					n++
				}
			}
			uf, err := decoder.NewBackendByName("union-find")
			if err != nil {
				b.Fatal(err)
			}
			sd, err := decoder.NewStreamDecoder(decoder.StreamConfig{
				Code: code, Basis: pauli.Z, Backend: uf,
			})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i%5 == 0 {
					sd.Round(events)
				} else {
					sd.Round(nil)
				}
				if i%50 == 49 {
					_ = sd.Finish()
					sd.Reset()
				}
			}
		}},
		{"syndrome-round-d15", func(b *testing.B) {
			// One ESM round of the MeasureRates layout (4 logical qubits
			// at d=15, scaling mode, p=0.1%): data noise plus syndrome
			// extraction over the four prepared patches.
			be := microarch.NewBackend(surface.NewPPRLayout(4, 15), 0.001, 1, false)
			for q := 0; q < 4; q++ {
				be.PrepareZero(q)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				be.InjectRoundNoise()
				be.MeasureSyndromesRound(false)
			}
		}},
		{"frame-memory-cell-d3", func(b *testing.B) {
			// One circuit-level threshold cell: 256 memory shots at d=3
			// through a compiled cell reused across iterations — the
			// steady-state cost of a sweep-grid cell.
			cell, err := core.NewFrameMemoryCell(3, 0.01, 3, 1)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := cell.Rate(ctx, 256); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"sweep-cell", func(b *testing.B) {
			// One distributed-sweep grid cell end to end (compile +
			// sample), the unit of work the shard/worker machinery
			// schedules — the latency floor for thousand-cell grids.
			g, err := xqsim.GridSpec{
				Kind: "circuit", Ds: []int{3}, Ps: []float64{0.01}, Trials: 64, Seed: 1,
			}.Normalize()
			if err != nil {
				b.Fatal(err)
			}
			cell := g.Cell(0)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := xqsim.RunGridCell(ctx, g, cell, nil); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"shard-merge", func(b *testing.B) {
			// The fixed overhead `xqsweep -merge` adds on top of cell
			// compute: parse 3 shard JSONL streams of a 60-cell grid,
			// verify, merge, re-encode. Cells are synthesized (their
			// rates never matter to merge cost).
			ps := make([]float64, 15)
			for i := range ps {
				ps[i] = 0.001 * float64(i+1)
			}
			g, err := xqsim.GridSpec{
				Kind: "threshold", Ds: []int{3, 5, 7, 9}, Ps: ps, Trials: 64, Seed: 1,
			}.Normalize()
			if err != nil {
				b.Fatal(err)
			}
			shards := make([][]byte, 3)
			for s := range shards {
				cells, err := g.ShardCells(s, len(shards))
				if err != nil {
					b.Fatal(err)
				}
				results := make([]xqsim.GridCellResult, 0, len(cells))
				for _, c := range cells {
					results = append(results, xqsim.GridCellResult{
						Index: c.Index, D: c.D, P: c.P, Rounds: c.Rounds,
						Trials: c.Trials, Seed: c.Seed,
						Rate: float64(c.Index%5) / 64,
					})
				}
				var buf bytes.Buffer
				if err := xqsim.WriteGridJSONL(&buf, g, results); err != nil {
					b.Fatal(err)
				}
				shards[s] = buf.Bytes()
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				readers := make([]io.Reader, len(shards))
				for s := range shards {
					readers[s] = bytes.NewReader(shards[s])
				}
				if err := xqsim.MergeGridFiles(io.Discard, readers); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"pipeline-shot", func(b *testing.B) {
			// Steady-state shot: the circuit is compiled once and the
			// pipeline reused, so one op is Reset + compiled replay (the
			// allocation-free path RunShots workers run).
			circ := xqsim.SinglePPR("ZZZ", xqsim.AnglePi8).SubstituteStabilizer()
			runner, err := core.NewShotRunner(circ, 3, 0.001, 1, core.RunOptions{})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := runner.RunShot(ctx, i); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"pipeline-shot-d5", func(b *testing.B) {
			// Steady-state shot of Table 3's d=5 QFT row, which with
			// QAOA carries most of a Table 3 run: logical-tableau
			// products and resets plus d=5 ESM rounds and decode.
			circ := xqsim.QFT2(2).SubstituteStabilizer()
			runner, err := core.NewShotRunner(circ, 5, 0.001, 1, core.RunOptions{})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := runner.RunShot(ctx, i); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"pipeline-shot-cold", func(b *testing.B) {
			// Cold shot: full per-op construction (compile, layout,
			// pipeline, tableau) plus the run — the old pipeline-shot
			// definition, kept to watch construction cost separately.
			circ := xqsim.SinglePPR("ZZZ", xqsim.AnglePi8).SubstituteStabilizer()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := xqsim.RunShots(ctx, circ, 3, 0.001, 1, int64(i)); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"measure-rates-cached", func(b *testing.B) {
			xqsim.MeasureRates(15, 0.001, xqsim.SchemePriority, 424243)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = xqsim.MeasureRates(15, 0.001, xqsim.SchemePriority, 424243)
			}
		}},
		{"measure-rates-d15", func(b *testing.B) {
			// One uncached rate measurement: the d=15 priority reference
			// run (compile, scaling-mode pipeline, decode) over a fixed
			// cycle of 16 seeds. Its decode windows are real ones, whose
			// clusters include the dominated pairs the exact matcher
			// prunes; decode-patch-d15's fixed cluster has none.
			for i := 0; i < b.N; i++ {
				_ = xqsim.MeasureRatesUncached(15, 0.001, xqsim.SchemePriority, int64(1+i%16))
			}
		}},
		{"threshold-study", func(b *testing.B) {
			// Pin to one worker: the experiment pool sizes itself to
			// GOMAXPROCS, so both allocs/op (pool construction) and
			// ns/op would otherwise vary with the machine's core count
			// and make the committed baseline meaningless in CI.
			old := runtime.GOMAXPROCS(1)
			defer runtime.GOMAXPROCS(old)
			for i := 0; i < b.N; i++ {
				if _, err := xqsim.ThresholdStudy(ctx, 60, 5); err != nil {
					b.Fatal(err)
				}
			}
		}},
	}
}

func main() {
	var (
		out       = flag.String("out", "", "write the JSON summary to this file (default stdout)")
		check     = flag.String("check", "", "compare against this committed baseline JSON")
		tolerance = flag.Float64("tolerance", 2.0, "with -check: fail when ns/op exceeds baseline by this factor")
		benchtime = flag.String("benchtime", "", "per-benchmark measurement time (testing -benchtime syntax, e.g. 200ms or 100x)")
		only      = flag.String("only", "", "run only the benchmark with this name")
		compare   = flag.Bool("compare", false, "compare two summary files (xqbench -compare old.json new.json) instead of running benchmarks")
	)
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			_, _ = fmt.Fprintln(os.Stderr, "usage: xqbench -compare old.json new.json")
			os.Exit(2)
		}
		if err := compareSummaries(flag.Arg(0), flag.Arg(1)); err != nil {
			_, _ = fmt.Fprintln(os.Stderr, "xqbench:", err)
			os.Exit(2)
		}
		return
	}

	// testing.Benchmark reads the -test.benchtime flag; register the
	// testing flags so a shorter budget can be injected for smoke runs.
	testing.Init()
	if *benchtime != "" {
		if err := flag.CommandLine.Lookup("test.benchtime").Value.Set(*benchtime); err != nil {
			_, _ = fmt.Fprintln(os.Stderr, "xqbench:", err)
			os.Exit(2)
		}
	}

	// SIGINT/SIGTERM stop the run between benchmarks (and cancel the
	// ctx-driven bodies mid-benchmark); nothing partial is written.
	ctx, stop := cli.SignalContext()
	defer stop()

	results := map[string]Metrics{}
	for _, bm := range benchmarks(ctx) {
		if ctx.Err() != nil {
			_, _ = fmt.Fprintln(os.Stderr, "xqbench: interrupted")
			os.Exit(cli.ExitInterrupted)
		}
		if *only != "" && bm.Name != *only {
			continue
		}
		m, ok := measure(bm.Fn)
		if !ok {
			if ctx.Err() != nil {
				_, _ = fmt.Fprintln(os.Stderr, "xqbench: interrupted")
				os.Exit(cli.ExitInterrupted)
			}
			_, _ = fmt.Fprintf(os.Stderr, "xqbench: %s failed to run\n", bm.Name)
			os.Exit(2)
		}
		results[bm.Name] = m
		_, _ = fmt.Fprintf(os.Stderr, "%-28s %14.1f ns/op %10.0f allocs/op\n", bm.Name, m.NsPerOp, m.AllocsPerOp)
	}
	if len(results) == 0 {
		_, _ = fmt.Fprintln(os.Stderr, "xqbench: no benchmarks selected")
		os.Exit(2)
	}

	buf, err := json.MarshalIndent(results, "", "  ")
	if err != nil {
		_, _ = fmt.Fprintln(os.Stderr, "xqbench:", err)
		os.Exit(2)
	}
	buf = append(buf, '\n')
	if *out == "" {
		_, _ = os.Stdout.Write(buf)
	} else if err := os.WriteFile(*out, buf, 0o644); err != nil {
		_, _ = fmt.Fprintln(os.Stderr, "xqbench:", err)
		os.Exit(2)
	}

	if *check != "" {
		if err := checkBaseline(*check, results, *tolerance); err != nil {
			_, _ = fmt.Fprintln(os.Stderr, "xqbench:", err)
			os.Exit(1)
		}
		_, _ = fmt.Fprintf(os.Stderr, "all benchmarks within %.1fx of %s\n", *tolerance, *check)
	}
}

// measure runs one benchmark body under testing.Benchmark and reduces
// the result to the JSON metrics; ok is false when the body never ran
// (e.g. it called b.Fatal before the first iteration).
func measure(fn func(b *testing.B)) (Metrics, bool) {
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		fn(b)
	})
	if r.N == 0 {
		return Metrics{}, false
	}
	return Metrics{
		NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
		AllocsPerOp: float64(r.AllocsPerOp()),
	}, true
}

// checkBaseline fails when a benchmark present in both runs regressed
// beyond tolerance x in ns/op or allocs/op, or when a baseline benchmark
// is missing from the fresh run (a silently-dropped benchmark would make
// the gate vacuous). Benchmarks new since the baseline only warn.
//
// The allocation gate carries an absolute slack of 8 allocs/op on top of
// the ratio, so near-zero baselines (the whole point of the
// allocation-free pipeline work) don't trip on measurement jitter — but
// a benchmark pinned at 0 that starts allocating hundreds of times
// fails even though any ratio against 0 is undefined.
func checkBaseline(path string, fresh map[string]Metrics, tolerance float64) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var base map[string]Metrics
	if err := json.Unmarshal(raw, &base); err != nil {
		return fmt.Errorf("baseline %s: %w", path, err)
	}
	names := make([]string, 0, len(base))
	for name := range base {
		names = append(names, name)
	}
	sort.Strings(names)
	var regressions []string
	for _, name := range names {
		b := base[name]
		f, ok := fresh[name]
		if !ok {
			regressions = append(regressions, fmt.Sprintf("%s: in baseline but not in this run", name))
			continue
		}
		if b.NsPerOp > 0 && f.NsPerOp > tolerance*b.NsPerOp {
			regressions = append(regressions,
				fmt.Sprintf("%s: %.1f ns/op vs baseline %.1f (%.2fx > %.1fx tolerance)",
					name, f.NsPerOp, b.NsPerOp, f.NsPerOp/b.NsPerOp, tolerance))
		}
		const allocSlack = 8
		if f.AllocsPerOp > tolerance*b.AllocsPerOp && f.AllocsPerOp > b.AllocsPerOp+allocSlack {
			regressions = append(regressions,
				fmt.Sprintf("%s: %.0f allocs/op vs baseline %.0f (beyond %.1fx + %d slack)",
					name, f.AllocsPerOp, b.AllocsPerOp, tolerance, allocSlack))
		}
	}
	for name := range fresh {
		if _, ok := base[name]; !ok {
			_, _ = fmt.Fprintf(os.Stderr, "note: %s not in baseline %s (new benchmark)\n", name, path)
		}
	}
	if len(regressions) > 0 {
		for _, r := range regressions {
			_, _ = fmt.Fprintln(os.Stderr, "regression:", r)
		}
		return fmt.Errorf("%d benchmark(s) regressed beyond %.1fx", len(regressions), tolerance)
	}
	return nil
}

// compareSummaries prints a benchstat-style old-vs-new table for two
// summary files, with per-benchmark deltas in ns/op and allocs/op.
// Benchmarks present in only one file are listed with a dash on the
// missing side. It never fails on deltas — it is a reporting tool;
// gating belongs to -check.
func compareSummaries(oldPath, newPath string) error {
	load := func(path string) (map[string]Metrics, error) {
		raw, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var m map[string]Metrics
		if err := json.Unmarshal(raw, &m); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return m, nil
	}
	oldM, err := load(oldPath)
	if err != nil {
		return err
	}
	newM, err := load(newPath)
	if err != nil {
		return err
	}
	names := make([]string, 0, len(oldM)+len(newM))
	for name := range oldM {
		names = append(names, name)
	}
	for name := range newM {
		if _, ok := oldM[name]; !ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)

	delta := func(o, n float64) string {
		if o <= 0 {
			return "    ~"
		}
		return fmt.Sprintf("%+.1f%%", 100*(n-o)/o)
	}
	fmt.Printf("%-28s %14s %14s %8s   %12s %12s %8s\n",
		"benchmark", "old ns/op", "new ns/op", "delta", "old allocs", "new allocs", "delta")
	for _, name := range names {
		o, haveOld := oldM[name]
		n, haveNew := newM[name]
		switch {
		case !haveOld:
			fmt.Printf("%-28s %14s %14.1f %8s   %12s %12.0f %8s\n",
				name, "-", n.NsPerOp, "new", "-", n.AllocsPerOp, "new")
		case !haveNew:
			fmt.Printf("%-28s %14.1f %14s %8s   %12.0f %12s %8s\n",
				name, o.NsPerOp, "-", "gone", o.AllocsPerOp, "-", "gone")
		default:
			fmt.Printf("%-28s %14.1f %14.1f %8s   %12.0f %12.0f %8s\n",
				name, o.NsPerOp, n.NsPerOp, delta(o.NsPerOp, n.NsPerOp),
				o.AllocsPerOp, n.AllocsPerOp, delta(o.AllocsPerOp, n.AllocsPerOp))
		}
	}

	// Cold-vs-steady split: for every X / X-cold pair, cold − steady is
	// the per-op warm-up (construction/compile) cost. The steady path is
	// allocation-free and nearly flat, so a compile-cost regression
	// barely moves the raw X-cold row; subtracting the steady cost makes
	// it visible on its own line.
	header := false
	for _, name := range names {
		cold := name + "-cold"
		oCold, haveOldCold := oldM[cold]
		nCold, haveNewCold := newM[cold]
		if !haveOldCold && !haveNewCold {
			continue
		}
		if !header {
			fmt.Printf("\n%-28s %14s %14s %8s\n",
				"warm-up split (cold-steady)", "old ns/op", "new ns/op", "delta")
			header = true
		}
		oSteady, haveOldSteady := oldM[name]
		nSteady, haveNewSteady := newM[name]
		switch {
		case haveOldCold && haveOldSteady && haveNewCold && haveNewSteady:
			oSplit := oCold.NsPerOp - oSteady.NsPerOp
			nSplit := nCold.NsPerOp - nSteady.NsPerOp
			fmt.Printf("%-28s %14.1f %14.1f %8s\n", name, oSplit, nSplit, delta(oSplit, nSplit))
		case haveNewCold && haveNewSteady:
			fmt.Printf("%-28s %14s %14.1f %8s\n", name, "-", nCold.NsPerOp-nSteady.NsPerOp, "new")
		case haveOldCold && haveOldSteady:
			fmt.Printf("%-28s %14.1f %14s %8s\n", name, oCold.NsPerOp-oSteady.NsPerOp, "-", "gone")
		}
	}
	return nil
}
