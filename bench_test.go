// Benchmarks regenerating every table and figure of the paper's
// evaluation section. Each benchmark runs the corresponding experiment
// driver and reports the headline quantities as custom metrics, so
//
//	go test -bench=. -benchmem
//
// prints the measured reproduction next to its timing. EXPERIMENTS.md
// records the measured-vs-paper comparison in full.
package xqsim_test

import (
	"context"
	"testing"

	"xqsim"
)

// mustResult adapts a driver's (Result, error) return for benchmark
// loops (drivers are ctx-aware and can fail since the fault-injection
// work): the returned closure fails the benchmark on error.
func mustResult(b *testing.B) func(xqsim.ExperimentResult, error) xqsim.ExperimentResult {
	return func(r xqsim.ExperimentResult, err error) xqsim.ExperimentResult {
		b.Helper()
		if err != nil {
			b.Fatal(err)
		}
		return r
	}
}

// reportAnchors publishes an experiment's measured anchors as benchmark
// metrics (paper values live in EXPERIMENTS.md).
func reportAnchors(b *testing.B, r xqsim.ExperimentResult, keys map[string]string) {
	b.Helper()
	for key, metric := range keys {
		if v, ok := r.Anchors[key]; ok {
			b.ReportMetric(v[1], metric)
		} else {
			b.Fatalf("anchor %q missing", key)
		}
	}
}

// BenchmarkFig5_ScalabilityConstraints regenerates Fig. 5: the success
// rate of a d=7 random-PPR workload on the current 300 K CMOS system
// collapsing at the instruction-bandwidth, decode-latency, and
// 300K-4K-transfer constraint points.
func BenchmarkFig5_ScalabilityConstraints(b *testing.B) {
	var r xqsim.ExperimentResult
	must := mustResult(b)
	for i := 0; i < b.N; i++ {
		r = must(xqsim.Fig5(context.Background(), 1))
	}
	reportAnchors(b, r, map[string]string{
		"bandwidth red line (Gbps)": "redline-Gbps",
		"decode red line (ns)":      "redline-ns",
	})
}

// BenchmarkFig10_EstimatorValidationMITLL regenerates Fig. 10: the RSFQ
// model's frequency prediction versus the MITLL RTL-simulation
// references (paper: max error 3.7%).
func BenchmarkFig10_EstimatorValidationMITLL(b *testing.B) {
	var r xqsim.ExperimentResult
	for i := 0; i < b.N; i++ {
		r = xqsim.Fig10()
	}
	reportAnchors(b, r, map[string]string{"max frequency error (%)": "max-err-%"})
}

// BenchmarkFig12_EstimatorValidationAIST regenerates Fig. 12: frequency,
// power and area versus the AIST post-layout references (paper: max
// errors 12.8% / 8.9% / 6.3%).
func BenchmarkFig12_EstimatorValidationAIST(b *testing.B) {
	var r xqsim.ExperimentResult
	for i := 0; i < b.N; i++ {
		r = xqsim.Fig12()
	}
	reportAnchors(b, r, map[string]string{
		"max freq error (%)":  "freq-err-%",
		"max power error (%)": "power-err-%",
		"max area error (%)":  "area-err-%",
	})
}

// BenchmarkTable3_FunctionalValidation regenerates Table 3: the total
// variation distance between the noisy physical-level pipeline and the
// exact logical reference for the five benchmarks (paper: dTV <= 0.0533
// at 2048 shots; 256 shots per iteration here keep the bench tractable —
// use xqsweep -table 3 -shots 2048 for the full run).
func BenchmarkTable3_FunctionalValidation(b *testing.B) {
	var worst float64
	for i := 0; i < b.N; i++ {
		rows, err := xqsim.Table3(context.Background(), 256, 3)
		if err != nil {
			b.Fatal(err)
		}
		worst = 0
		for _, r := range rows {
			if r.DTV > worst {
				worst = r.DTV
			}
		}
	}
	b.ReportMetric(worst, "max-dTV")
}

// BenchmarkFig14_CurrentSystem regenerates Fig. 14: decode-latency limits
// of the baseline (paper: ~250) and Optimization #1 (paper: ~9,800), and
// the 300K-4K transfer limit (paper: ~1,700).
func BenchmarkFig14_CurrentSystem(b *testing.B) {
	var r xqsim.ExperimentResult
	must := mustResult(b)
	for i := 0; i < b.N; i++ {
		r = must(xqsim.Fig14(context.Background(), 1))
	}
	reportAnchors(b, r, map[string]string{
		"decode limit baseline":   "decode-limit-qubits",
		"decode limit with Opt#1": "opt1-limit-qubits",
		"300K-4K transfer limit":  "transfer-limit-qubits",
	})
}

// BenchmarkFig16_UnitBreakdown regenerates Fig. 16: the PSU+TCU share of
// inter-unit traffic (paper: 98.1%) and the RSFQ power split motivating
// Guideline #1.
func BenchmarkFig16_UnitBreakdown(b *testing.B) {
	var r xqsim.ExperimentResult
	must := mustResult(b)
	for i := 0; i < b.N; i++ {
		r = must(xqsim.Fig16(context.Background(), 1))
	}
	reportAnchors(b, r, map[string]string{
		"PSU+TCU transfer share (%)":       "transfer-share-%",
		"PSU+TCU RSFQ power share (%)":     "power-share-%",
		"other units RSFQ power share (%)": "others-share-%",
	})
}

// BenchmarkFig17_NearFutureSystem regenerates Fig. 17: RSFQ limits 970 ->
// 4,600 with Optimizations #2/#3 and 4 K CMOS limits 1,400 -> 9,800 with
// voltage scaling.
func BenchmarkFig17_NearFutureSystem(b *testing.B) {
	var r xqsim.ExperimentResult
	must := mustResult(b)
	for i := 0; i < b.N; i++ {
		r = must(xqsim.Fig17(context.Background(), 1))
	}
	reportAnchors(b, r, map[string]string{
		"RSFQ power limit (baseline)":          "rsfq-base-qubits",
		"RSFQ limit with Opts #2,#3":           "rsfq-opt-qubits",
		"4K CMOS power limit (baseline)":       "cmos-base-qubits",
		"4K CMOS overall with voltage scaling": "cmos-vs-qubits",
	})
}

// BenchmarkFig18_PSUTCUOptimizations regenerates Fig. 18's ablations: the
// PSU mask-generator sharing factor (paper: 5.5x power), the TCU buffer
// simplification (paper: 4.0x), and the 4 K CMOS voltage scaling
// (paper: 15.3x).
func BenchmarkFig18_PSUTCUOptimizations(b *testing.B) {
	var r xqsim.ExperimentResult
	for i := 0; i < b.N; i++ {
		r = xqsim.Fig18()
	}
	reportAnchors(b, r, map[string]string{
		"Opt#2 PSU power reduction (x)": "psu-factor",
		"Opt#3 TCU power reduction (x)": "tcu-factor",
		"4K CMOS voltage scaling (x)":   "vs-factor",
	})
}

// BenchmarkFig19_FutureSystem regenerates Fig. 19: the ERSFQ system's
// power/decode limits with and without the 4 K EDU, the patch-sliding
// EDU power factor (paper: 18.8x), and the final ~59,000-qubit design.
func BenchmarkFig19_FutureSystem(b *testing.B) {
	var r xqsim.ExperimentResult
	must := mustResult(b)
	for i := 0; i < b.N; i++ {
		r = must(xqsim.Fig19(context.Background(), 1))
	}
	reportAnchors(b, r, map[string]string{
		"ERSFQ power limit (EDU at 300K)": "power-limit-qubits",
		"power limit with ERSFQ EDU":      "edu4k-power-qubits",
		"decode limit with ERSFQ EDU":     "edu4k-decode-qubits",
		"final sustainable scale":         "final-qubits",
	})
}

// BenchmarkPipelineShot measures one full-stack functional shot
// (compile -> microarchitecture -> noisy backend -> decode) of the
// 3-logical-qubit PPR benchmark at d=3.
func BenchmarkPipelineShot(b *testing.B) {
	circ := xqsim.SinglePPR("ZZZ", xqsim.AnglePi8).SubstituteStabilizer()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := xqsim.RunShots(context.Background(), circ, 3, 0.001, 1, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScalabilityEvaluation measures one scalability-report
// evaluation at the final design's scale.
func BenchmarkScalabilityEvaluation(b *testing.B) {
	rates := xqsim.MeasureRates(15, 0.001, xqsim.SchemePatchSliding, 1)
	sys := xqsim.FutureSystem(15, true, true)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = sys.Evaluate(59000, rates)
	}
}

// BenchmarkMeasureRates measures the reference-scale pipeline run behind
// every sweep.
func BenchmarkMeasureRates(b *testing.B) {
	// Uncached: every iteration runs the full pipeline (varying the seed
	// would slowly fill the process-wide memo cache across calibration
	// runs and skew the measurement).
	for i := 0; i < b.N; i++ {
		_ = xqsim.MeasureRatesUncached(15, 0.001, xqsim.SchemePriority, int64(i))
	}
}

func BenchmarkMeasureRatesCached(b *testing.B) {
	// Fixed key: after the first fill every call is a memo hit, the case
	// the sweep grids see when figures share an operating point.
	xqsim.MeasureRates(15, 0.001, xqsim.SchemePriority, 424243)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = xqsim.MeasureRates(15, 0.001, xqsim.SchemePriority, 424243)
	}
}

// BenchmarkSensitivity runs the Section-6.2 parameter study (scale vs 4 K
// cooling budget).
func BenchmarkSensitivity(b *testing.B) {
	var r xqsim.ExperimentResult
	must := mustResult(b)
	for i := 0; i < b.N; i++ {
		r = must(xqsim.Sensitivity(context.Background(), 1))
	}
	reportAnchors(b, r, map[string]string{"scale at 1.5W (Table 4)": "scale-at-1.5W"})
}

// BenchmarkMSDDistillation runs the 15-to-1 magic state distillation
// self-check (5 logical qubits, 31 rotations) through the full stack —
// the heaviest single workload in the suite.
func BenchmarkMSDDistillation(b *testing.B) {
	circ := xqsim.MSD15To1SelfCheck()
	var dtv float64
	for i := 0; i < b.N; i++ {
		var err error
		dtv, _, _, err = xqsim.ValidateCircuit(context.Background(), circ, 3, 0.001, 64, int64(i))
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(dtv, "dTV")
}

// BenchmarkThresholdStudy measures the surface-code memory's logical
// error rate across distances — the decoder+backend validation loop.
func BenchmarkThresholdStudy(b *testing.B) {
	var r xqsim.ExperimentResult
	must := mustResult(b)
	for i := 0; i < b.N; i++ {
		r = must(xqsim.ThresholdStudy(context.Background(), 200, 5))
	}
	reportAnchors(b, r, map[string]string{
		"d=7 suppression vs d=3 at p=1% (x)": "suppression-x",
	})
}

// BenchmarkCircuitThresholdStudy runs the circuit-level counterpart:
// every cell compiles the gate-level memory experiment and draws its
// shots through the bit-sliced batch frame sampler (64 per word), so
// the whole 15-cell d<=7 grid at 2,000 shots per cell stays cheaper
// than the 200-trial phenomenological study above.
func BenchmarkCircuitThresholdStudy(b *testing.B) {
	var r xqsim.ExperimentResult
	must := mustResult(b)
	for i := 0; i < b.N; i++ {
		r = must(xqsim.CircuitThresholdStudy(context.Background(), 2000, 5))
	}
	reportAnchors(b, r, map[string]string{
		"d=7 suppression vs d=3 at p=0.1% (x)": "suppression-x",
	})
}
