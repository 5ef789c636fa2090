package main

import (
	"context"
	"fmt"
	"math"

	"xqsim/internal/config"
	"xqsim/internal/core"
	"xqsim/internal/decoder"
	"xqsim/internal/sweep"
)

// scalabilityPrefix operations enter the digest and the simulated counts.
const scalabilityPrefix = 16

// rateSchemes are the decode schemes whose rates the figures measure.
var rateSchemes = []decoder.Scheme{decoder.SchemeRoundRobin, decoder.SchemePriority, decoder.SchemePatchSliding}

// scalability evaluates Figs. 14, 16, 17, 19 and the sensitivity study
// at Table 4's d=15, p=0.1%. Every operation uses a fresh seed, so it
// starts from a cold rate cache, as every `xqsweep -fig` process does:
// nearly all of its time is the three rate measurements and Fig. 16's
// own pipeline run, which decode-bound scaling mode runs without a
// tableau.
//
// Traced operations first call core.MeasureRates for the operation's
// three keys, so rate measurement and evaluation get separate spans;
// the figure functions' own calls then hit the memo. The simulated counts
// come from core.RunScalingWorkload, which runs the same pipeline as a
// rate measurement, called outside the operation's spans.
type scalability struct {
	seed    int64
	counts  simCounts // prefix operations
	matches float64   // every traced operation
	// sampled holds every timed operation's deviation from the paper of
	// each sampled anchor, keyed by figure and anchor.
	sampled map[string][]float64
}

// anchorTol is one anchor check of internal/sweep/sweep_test.go.
type anchorTol struct {
	key string
	tol float64
	// sampled marks a decode limit: the scale at which the decode rates
	// the operation measured (one random 4-logical-qubit, 6-PPR circuit
	// per scheme) exceed the decode budget, on the figures' qubit grid. Its value moves with the
	// operation's seed by about as much as its tolerance (Fig. 19's ERSFQ
	// EDU decode limit spans -4% to +34% of the paper over 200 seeds,
	// median +12%), and the sweep tests apply the tolerance at seed 1
	// only. So the tolerance holds the median over a process's operations;
	// each operation must still keep the figure's bottleneck ordering.
	sampled bool
}

var scalabilityAnchors = map[string][]anchorTol{
	"fig14": {
		{"decode limit baseline", 0.35, true},
		{"decode limit with Opt#1", 0.30, true},
		{"300K-4K transfer limit", 0.15, false},
	},
	"fig17": {
		{"RSFQ power limit (baseline)", 0.15, false},
		{"RSFQ limit with Opts #2,#3", 0.25, false},
		{"4K CMOS power limit (baseline)", 0.15, false},
		// Decode-limited: the 300 K EDU's latency caps it.
		{"4K CMOS overall with voltage scaling", 0.30, true},
	},
	"fig19": {
		{"ERSFQ power limit (EDU at 300K)", 0.15, false},
		{"power limit with ERSFQ EDU", 0.15, false},
		{"decode limit with ERSFQ EDU", 0.20, true},
		{"final sustainable scale", 0.15, false},
		{"Opt#4 EDU power reduction (x)", 0.30, false},
	},
}

// bottlenecks is the ordering of limits each figure's narrative rests
// on (EXPERIMENTS.md): every operation must keep it, whatever its seed.
var bottlenecks = map[string][][2]string{
	// Decoding caps the baseline below the transfer wall; Opt #1 pushes
	// decoding past it.
	"fig14": {
		{"decode limit baseline", "300K-4K transfer limit"},
		{"300K-4K transfer limit", "decode limit with Opt#1"},
	},
	// ERSFQ alone is decode-limited; the EDU at 4 K fixes decoding but
	// wrecks the power budget; patch sliding recovers it.
	"fig19": {
		{"decode limit (EDU at 300K)", "ERSFQ power limit (EDU at 300K)"},
		{"power limit with ERSFQ EDU", "decode limit with ERSFQ EDU"},
		{"power limit with ERSFQ EDU", "final sustainable scale"},
	},
}

func (w *scalability) setup(_ context.Context, seed int64, _ string) error {
	w.seed = seed
	w.sampled = map[string][]float64{}
	return nil
}

func (w *scalability) warmup(ctx context.Context, r *recorder) error {
	if _, err := w.op(ctx, warmupSeed(0), spanRef{}); warmupErr(err) != nil {
		return err
	}
	if r.tr == nil {
		return nil
	}
	_, err := w.op(ctx, warmupSeed(1), newTracer().root("warmup"))
	return warmupErr(err)
}

func (w *scalability) loop(ctx context.Context, r *recorder) error {
	w.sampled = map[string][]float64{} // drop the warm-up operations
	return seqLoop(ctx, r, scalabilityPrefix, func(ctx context.Context, k int, root spanRef) ([]byte, error) {
		return w.op(ctx, opSeed(w.seed, k), root)
	}, func(k int) error {
		return w.count(opSeed(w.seed, k), k < scalabilityPrefix)
	})
}

// op evaluates the figures and checks their anchors; its outputs are
// the figures' pinned JSON encodings.
func (w *scalability) op(ctx context.Context, seed int64, root spanRef) ([]byte, error) {
	d, p := config.CodeDistance, config.PhysErrorRate
	if root.t != nil {
		for _, s := range rateSchemes {
			root.call("core.measure_rates", func() { core.MeasureRates(d, p, s, seed) })
		}
	}
	type fig struct {
		span string
		run  func(context.Context, int64) (sweep.Result, error)
	}
	// Fig. 16 first: it runs its own pipeline, the rest only evaluate.
	figs := []fig{
		{"sweep.fig16", sweep.Fig16},
		{"sweep.evaluate", sweep.Fig14},
		{"sweep.evaluate", sweep.Fig17},
		{"sweep.evaluate", sweep.Fig19},
		{"sweep.evaluate", sweep.Sensitivity},
	}
	var out []byte
	for _, f := range figs {
		var res sweep.Result
		var err error
		root.call(f.span, func() { res, err = f.run(ctx, seed) })
		if err != nil {
			return nil, err
		}
		if err := w.checkFigure(res); err != nil {
			return nil, err
		}
		b, err := sweep.JSONValue(res)
		if err != nil {
			return nil, err
		}
		out = append(append(out, b...), '\n')
	}
	return out, nil
}

// checkFigure holds a figure to the anchor tolerances of the sweep
// package's tests, its sampled anchors through their median (see
// anchorTol), and to its bottleneck ordering.
func (w *scalability) checkFigure(r sweep.Result) error {
	for _, a := range scalabilityAnchors[r.ID] {
		v, ok := r.Anchors[a.key]
		if !ok {
			return checkFailed("%s: anchor %q missing", r.ID, a.key)
		}
		dev := (v[1] - v[0]) / v[0]
		if !(v[1] > 0) || math.IsInf(v[1], 0) {
			return checkFailed("%s %q: measured %.4g", r.ID, a.key, v[1])
		}
		if a.sampled {
			k := r.ID + " " + a.key
			w.sampled[k] = append(w.sampled[k], dev)
			continue
		}
		if !(dev >= -a.tol && dev <= a.tol) {
			return checkFailed("%s %q: measured %.4g vs paper %.4g (tolerance %.0f%%)", r.ID, a.key, v[1], v[0], 100*a.tol)
		}
	}
	for _, b := range bottlenecks[r.ID] {
		lo, okLo := r.Anchors[b[0]]
		hi, okHi := r.Anchors[b[1]]
		if !okLo || !okHi || !(lo[1] < hi[1]) {
			return checkFailed("%s: %q (%.4g) not below %q (%.4g)", r.ID, b[0], lo[1], b[1], hi[1])
		}
	}
	if r.ID == "fig16" {
		if s := r.Anchors["PSU+TCU transfer share (%)"][1]; !(s >= 90) {
			return checkFailed("fig16: PSU+TCU transfer share %.1f%%, want >= 90%%", s)
		}
		if s := r.Anchors["other units RSFQ power share (%)"][1]; !(s >= 40 && s <= 80) {
			return checkFailed("fig16: other-unit power share %.1f%%, want 40-80%%", s)
		}
	}
	return nil
}

// checkSampled holds the median of each sampled anchor over the timed
// operations to its tolerance. It prints each anchor's spread, with the
// number of operations outside the tolerance, as an info line.
func (w *scalability) checkSampled(r *recorder) {
	for _, id := range sortedKeys(scalabilityAnchors) {
		for _, a := range scalabilityAnchors[id] {
			devs := w.sampled[id+" "+a.key]
			if !a.sampled || len(devs) == 0 {
				continue
			}
			outside := 0
			for _, d := range devs {
				if !(d >= -a.tol && d <= a.tol) {
					outside++
				}
			}
			med := quantile(devs, 0.5)
			fmt.Printf("info anchor %s %q ops=%d median=%+.3f min=%+.3f max=%+.3f outside_tolerance=%d tolerance=%.2f\n",
				id, a.key, len(devs), med, quantile(devs, 0), quantile(devs, 1), outside, a.tol)
			if !(med >= -a.tol && med <= a.tol) {
				r.failCheck(fmt.Errorf("%s %q: median deviation %+.3f over %d operations, tolerance %.2f", id, a.key, med, len(devs), a.tol))
			}
		}
	}
}

// count adds the simulated counts of one operation's three rate
// measurements, replayed through core.RunScalingWorkload.
func (w *scalability) count(seed int64, prefix bool) error {
	for _, s := range rateSchemes {
		m, err := core.RunScalingWorkload(config.CodeDistance, config.PhysErrorRate, s, seed)
		if err != nil {
			return err
		}
		w.matches += float64(m.MatchesSum)
		if prefix {
			w.counts.add(m)
		}
	}
	return nil
}

func (w *scalability) finish(_ context.Context, r *recorder) error {
	w.checkSampled(r)
	if r.tr != nil && w.matches > 0 {
		measureNs := sum(r.tr.summarize().durs["core.measure_rates"])
		r.set("decoder.ns_per_match", measureNs/w.matches)
	}
	w.counts.report(r)
	return nil
}

func (w *scalability) close() error { return nil }
