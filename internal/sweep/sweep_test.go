package sweep

import (
	"context"
	"reflect"
	"strings"
	"testing"
)

// must adapts a driver's (Result, error) return for tests: the closure
// fails the test on error and hands back the result.
func must(t *testing.T) func(Result, error) Result {
	return func(r Result, err error) Result {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
}

// checkAnchor asserts one anchor lies within tol of the paper value.
func checkAnchor(t *testing.T, r Result, key string, tol float64) {
	t.Helper()
	v, ok := r.Anchors[key]
	if !ok {
		t.Fatalf("%s: anchor %q missing (have %v)", r.ID, key, r.Anchors)
	}
	paper, got := v[0], v[1]
	if paper == 0 {
		return
	}
	dev := (got - paper) / paper
	if dev < -tol || dev > tol {
		t.Errorf("%s %q: measured %.4g vs paper %.4g (%.0f%% off, tol %.0f%%)",
			r.ID, key, got, paper, 100*dev, 100*tol)
	}
}

func TestFig5(t *testing.T) {
	r := must(t)(Fig5(context.Background(), 1))
	if len(r.Series) != 4 {
		t.Fatalf("series = %d", len(r.Series))
	}
	// Success rate must start high and collapse.
	succ := r.Series[0]
	if succ.Y[0] < 0.9 {
		t.Errorf("initial success = %v", succ.Y[0])
	}
	if last := succ.Y[len(succ.Y)-1]; last > 0.1 {
		t.Errorf("final success = %v, expected collapse", last)
	}
	checkAnchor(t, r, "bandwidth red line (Gbps)", 0.01)
	checkAnchor(t, r, "decode red line (ns)", 0.01)
	if !strings.Contains(r.String(), "fig5") {
		t.Error("rendering broken")
	}
}

func TestFig10(t *testing.T) {
	r := Fig10()
	v := r.Anchors["max frequency error (%)"]
	if v[1] > v[0]+0.5 {
		t.Errorf("MITLL validation error %.1f%% exceeds paper's %.1f%%", v[1], v[0])
	}
}

func TestFig12(t *testing.T) {
	r := Fig12()
	for _, k := range []string{"max freq error (%)", "max power error (%)", "max area error (%)"} {
		v := r.Anchors[k]
		if v[1] > v[0]+0.5 {
			t.Errorf("AIST %s: %.1f%% exceeds paper's %.1f%%", k, v[1], v[0])
		}
	}
}

func TestFig14(t *testing.T) {
	r := must(t)(Fig14(context.Background(), 1))
	checkAnchor(t, r, "decode limit baseline", 0.35)
	checkAnchor(t, r, "decode limit with Opt#1", 0.30)
	checkAnchor(t, r, "300K-4K transfer limit", 0.15)
	// Decode latency grows monotonically with scale.
	lat := r.Series[0]
	for i := 1; i < len(lat.Y); i++ {
		if lat.Y[i] < lat.Y[i-1] {
			t.Fatalf("decode latency not monotone at %v", lat.X[i])
		}
	}
}

func TestFig16(t *testing.T) {
	r := must(t)(Fig16(context.Background(), 1))
	v := r.Anchors["PSU+TCU transfer share (%)"]
	if v[1] < 90 {
		t.Errorf("PSU+TCU transfer share = %.1f%%, want > 90%%", v[1])
	}
	o := r.Anchors["other units RSFQ power share (%)"]
	if o[1] < 40 || o[1] > 80 {
		t.Errorf("other-unit power share = %.1f%%, want the paper's majority regime", o[1])
	}
}

func TestFig17(t *testing.T) {
	r := must(t)(Fig17(context.Background(), 1))
	checkAnchor(t, r, "RSFQ power limit (baseline)", 0.15)
	checkAnchor(t, r, "RSFQ limit with Opts #2,#3", 0.25)
	checkAnchor(t, r, "4K CMOS power limit (baseline)", 0.15)
	checkAnchor(t, r, "4K CMOS overall with voltage scaling", 0.30)
}

func TestFig18(t *testing.T) {
	r := Fig18()
	checkAnchor(t, r, "Opt#2 PSU power reduction (x)", 0.25)
	checkAnchor(t, r, "Opt#3 TCU power reduction (x)", 0.40)
	checkAnchor(t, r, "4K CMOS voltage scaling (x)", 0.10)
}

func TestFig19(t *testing.T) {
	r := must(t)(Fig19(context.Background(), 1))
	checkAnchor(t, r, "ERSFQ power limit (EDU at 300K)", 0.15)
	checkAnchor(t, r, "power limit with ERSFQ EDU", 0.15)
	checkAnchor(t, r, "decode limit with ERSFQ EDU", 0.20)
	checkAnchor(t, r, "final sustainable scale", 0.15)
	checkAnchor(t, r, "Opt#4 EDU power reduction (x)", 0.30)
}

func TestTable3SmallShots(t *testing.T) {
	if testing.Short() {
		t.Skip("functional validation is slow")
	}
	rows, err := Table3(context.Background(), 120, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Physical-qubit accounting anchors from the paper's Table 3
	// (our lattice layout differs slightly for the 4-LQ cases; see
	// DESIGN.md).
	if rows[0].NPhys != 480 {
		t.Errorf("PPR(ZZZ) phys = %d, want 480", rows[0].NPhys)
	}
	if rows[3].NPhys != 1080 {
		t.Errorf("QFT phys = %d, want 1080", rows[3].NPhys)
	}
	for _, r := range rows {
		// At 120 shots sampling noise dominates; the distance must still
		// be small for a functionally correct pipeline.
		if r.DTV > 0.22 {
			t.Errorf("%s dTV = %.4f, too large even for %d shots", r.Benchmark, r.DTV, 120)
		}
	}
}

func TestTable4(t *testing.T) {
	r := Table4()
	for k, v := range r.Anchors {
		if v[0] != v[1] {
			t.Errorf("Table 4 constant %q: %v != %v", k, v[1], v[0])
		}
	}
}

func TestSensitivity(t *testing.T) {
	r := must(t)(Sensitivity(context.Background(), 1))
	if len(r.Series) != 1 {
		t.Fatal("series missing")
	}
	s := r.Series[0]
	// Scale must grow monotonically with the power budget.
	for i := 1; i < len(s.Y); i++ {
		if s.Y[i] < s.Y[i-1] {
			t.Fatalf("scale not monotone in budget: %v", s.Y)
		}
	}
	// Raising the budget must help substantially, but the 620 cm^2 area
	// budget caps the growth (a genuine insight the override surfaces).
	if s.Y[len(s.Y)-1] < 1.3*s.Y[2] {
		t.Fatalf("budget sensitivity too weak: %v", s.Y)
	}
}

func TestMarkdownReport(t *testing.T) {
	results := []Result{Fig10(), Fig18()}
	md := Markdown(results)
	for _, want := range []string{"# XQsim reproduction report", "fig10", "fig18", "| quantity | paper | measured |"} {
		if !strings.Contains(md, want) {
			t.Fatalf("markdown missing %q", want)
		}
	}
	worst, where := WorstDeviationPct(results)
	if worst <= 0 || where == "" {
		t.Fatalf("worst deviation = %v at %q", worst, where)
	}
}

func TestCircuitThresholdStudy(t *testing.T) {
	if testing.Short() {
		t.Skip("circuit threshold study samples many memory shots")
	}
	r := must(t)(CircuitThresholdStudy(context.Background(), 2_000, 5))
	if r.ID != "circuit-threshold" || len(r.Series) != 3 {
		t.Fatalf("id=%q series=%d", r.ID, len(r.Series))
	}
	// Rates grow with p for every d, and the highest-p cell actually
	// observed failures (circuit-level d=7 at p=2% is deep above
	// threshold).
	for d := 0; d < 3; d++ {
		ys := r.Series[d].Y
		if ys[0] > ys[len(ys)-1] {
			t.Errorf("d-series %d not increasing with p: %v", d, ys)
		}
	}
	if last := r.Series[2].Y[len(r.Series[2].Y)-1]; last < 0.05 {
		t.Errorf("d=7 at p=2%% suspiciously clean: %.4f", last)
	}
	if len(r.Anchors) != 2 || len(r.Notes) != 2 {
		t.Errorf("anchors=%d notes=%d, want 2 and 2", len(r.Anchors), len(r.Notes))
	}
}

func TestThresholdStudy(t *testing.T) {
	if testing.Short() {
		t.Skip("threshold study samples many memory runs")
	}
	r := must(t)(ThresholdStudy(context.Background(), 300, 5))
	if len(r.Series) != 3 {
		t.Fatalf("series = %d", len(r.Series))
	}
	get := func(d, pi int) float64 { return r.Series[d].Y[pi] }
	// Below threshold (p = 0.1-0.2%): larger d must not be worse.
	for pi := 0; pi < 2; pi++ {
		if get(2, pi) > get(0, pi)+0.02 {
			t.Errorf("p-index %d: d=7 rate %.3f worse than d=3 %.3f (sub-threshold)",
				pi, get(2, pi), get(0, pi))
		}
	}
	// Well above threshold (p = 4%): larger d must not be better by much
	// (error rates saturate toward 0.5).
	if get(2, 5) < 0.1 {
		t.Errorf("d=7 at p=4%% suspiciously clean: %.3f", get(2, 5))
	}
	// Rates grow with p for every d.
	for d := 0; d < 3; d++ {
		if r.Series[d].Y[0] > r.Series[d].Y[5] {
			t.Errorf("d-series %d not increasing with p", d)
		}
	}
}

// TestParallelSweepDeterministic is the regression for the parallel
// sweep grids: identically-seeded runs must produce byte-identical
// Results (series values, ordering, anchors) regardless of how the
// worker pool schedules the grid points. Run with -race.
func TestParallelSweepDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full sweeps twice")
	}
	for _, tc := range []struct {
		name string
		run  func() (Result, error)
	}{
		{"fig5", func() (Result, error) { return Fig5(context.Background(), 71) }},
		{"fig14", func() (Result, error) { return Fig14(context.Background(), 71) }},
		{"fig17", func() (Result, error) { return Fig17(context.Background(), 71) }},
		{"fig19", func() (Result, error) { return Fig19(context.Background(), 71) }},
		{"threshold", func() (Result, error) { return ThresholdStudy(context.Background(), 60, 71) }},
		{"circuit-threshold", func() (Result, error) { return CircuitThresholdStudy(context.Background(), 320, 71) }},
	} {
		a, errA := tc.run()
		b, errB := tc.run()
		if errA != nil || errB != nil {
			t.Fatalf("%s: %v / %v", tc.name, errA, errB)
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: identically-seeded parallel runs differ:\n%v\nvs\n%v", tc.name, a, b)
		}
	}
}
