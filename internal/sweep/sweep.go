// Package sweep regenerates every table and figure of the paper's
// evaluation. Each driver returns structured series plus the paper's
// anchor values, so the benchmarks and the xqsweep tool can report
// measured-vs-paper side by side (EXPERIMENTS.md records the outcomes).
package sweep

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"xqsim/internal/compiler"
	"xqsim/internal/config"
	"xqsim/internal/core"
	"xqsim/internal/decoder"
	"xqsim/internal/estimator"
	"xqsim/internal/faults"
	"xqsim/internal/ftqc"
	"xqsim/internal/microarch"
	"xqsim/internal/surface"
	"xqsim/internal/synth"
	"xqsim/internal/tech"
)

// Series is one named curve.
type Series struct {
	Name string
	X    []float64
	Y    []float64
}

// Result is one experiment's reproduction.
type Result struct {
	ID     string
	Title  string
	Series []Series
	// Anchors maps named quantities to (paper, measured) pairs.
	Anchors map[string][2]float64
	Notes   []string
}

// String renders the result as a report block.
func (r Result) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "== %s: %s ==\n", r.ID, r.Title)
	keys := make([]string, 0, len(r.Anchors))
	for k := range r.Anchors {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		v := r.Anchors[k]
		dev := ""
		//xqlint:ignore floateq exact sentinel: paper anchor 0.0 marks "no paper counterpart"
		if v[0] != 0 {
			dev = fmt.Sprintf(" (%+.1f%%)", 100*(v[1]-v[0])/v[0])
		}
		fmt.Fprintf(&sb, "  %-38s paper %12.4g   measured %12.4g%s\n", k, v[0], v[1], dev)
	}
	for _, s := range r.Series {
		fmt.Fprintf(&sb, "  series %s: %d points\n", s.Name, len(s.X))
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&sb, "  note: %s\n", n)
	}
	return sb.String()
}

// gridSeries returns a Series with n preallocated points, ready for
// index-addressed parallel fills.
func gridSeries(name string, n int) Series {
	return Series{Name: name, X: make([]float64, n), Y: make([]float64, n)}
}

// qubitGrid returns a geometric sweep grid up to max.
func qubitGrid(max int) []int {
	var out []int
	for n := 64; n <= max; n = n * 5 / 4 {
		out = append(out, n)
	}
	return out
}

// Fig5 reproduces the Section 2.3 constraint analysis: the success rate
// of a d=7 random-PPR workload on the current 300 K CMOS system versus
// qubit scale, with the three constraint red lines.
func Fig5(ctx context.Context, seed int64) (Result, error) {
	d := 7
	r := core.MeasureRates(d, config.PhysErrorRate, decoder.SchemeRoundRobin, seed)
	sys := core.CurrentSystem(d, false)
	res := Result{
		ID:      "fig5",
		Title:   "scalability constraints of the current system (d=7, 100 random PPR)",
		Anchors: map[string][2]float64{},
	}
	const windows = 300 // 100 PPRs x 3 ESM windows
	grid := qubitGrid(40000)
	succ := gridSeries("success-rate", len(grid))
	bw := gridSeries("inst-bandwidth-gbps", len(grid))
	lat := gridSeries("decode-latency-ns", len(grid))
	heat := gridSeries("cross-heat-w", len(grid))
	if err := core.ParallelFor(ctx, len(grid), core.Workers(len(grid)), func(_, i int) error {
		n := grid[i]
		rep := sys.Evaluate(n, r)
		x := float64(n)
		succ.X[i], succ.Y[i] = x, sys.SuccessRate(n, windows, r)
		bw.X[i], bw.Y[i] = x, rep.InstBandwidthGbps
		lat.X[i], lat.Y[i] = x, rep.DecodeLatencyNs
		heat.X[i], heat.Y[i] = x, rep.CrossHeatW
		return nil
	}); err != nil {
		return Result{}, err
	}
	res.Series = []Series{succ, bw, lat, heat}
	res.Anchors["bandwidth red line (Gbps)"] = [2]float64{480, config.MaxCrossBandwidthGbps()}
	res.Anchors["decode red line (ns)"] = [2]float64{1010, config.DecodeBudgetNs()}
	res.Anchors["transfer red line (W)"] = [2]float64{1.5, config.Power4KBudgetW}
	return res, nil
}

// Fig10 reproduces the XQ-estimator frequency validation against the
// MITLL RTL-simulation references.
func Fig10() Result {
	res := Result{
		ID:      "fig10",
		Title:   "XQ-estimator validation with the MITLL library",
		Anchors: map[string][2]float64{},
	}
	maxErr := 0.0
	for _, row := range estimator.ValidateMITLL() {
		res.Anchors[row.Circuit+" freq (GHz)"] = [2]float64{row.Ref, row.Model}
		if e := row.ErrPct(); e > maxErr {
			maxErr = e
		}
	}
	res.Anchors["max frequency error (%)"] = [2]float64{3.7, maxErr}
	return res
}

// Fig12 reproduces the AIST post-layout validation.
func Fig12() Result {
	res := Result{
		ID:      "fig12",
		Title:   "XQ-estimator validation with the AIST layouts",
		Anchors: map[string][2]float64{},
	}
	maxErr := map[string]float64{}
	for _, row := range estimator.ValidateAIST() {
		res.Anchors[row.Circuit+" "+row.Metric] = [2]float64{row.Ref, row.Model}
		if e := row.ErrPct(); e > maxErr[row.Metric] {
			maxErr[row.Metric] = e
		}
	}
	res.Anchors["max freq error (%)"] = [2]float64{12.8, maxErr["freq"]}
	res.Anchors["max power error (%)"] = [2]float64{8.9, maxErr["power"]}
	res.Anchors["max area error (%)"] = [2]float64{6.3, maxErr["area"]}
	return res
}

// Fig14 reproduces the current-system scalability: decode-latency and
// transfer limits with and without Optimization #1.
func Fig14(ctx context.Context, seed int64) (Result, error) {
	d := config.CodeDistance
	rRR := core.MeasureRates(d, config.PhysErrorRate, decoder.SchemeRoundRobin, seed)
	rPr := core.MeasureRates(d, config.PhysErrorRate, decoder.SchemePriority, seed)
	base := core.CurrentSystem(d, false)
	opt := core.CurrentSystem(d, true)
	decodeOK := func(r core.Report) bool { return r.DecodeOK }
	transferOK := func(r core.Report) bool { return r.TransferOK && r.BWOK }

	res := Result{
		ID:      "fig14",
		Title:   "current system (300K CMOS) scalability",
		Anchors: map[string][2]float64{},
	}
	grid := qubitGrid(30000)
	latB := gridSeries("decode-ns-baseline", len(grid))
	latO := gridSeries("decode-ns-opt1", len(grid))
	heat := gridSeries("cross-heat-w", len(grid))
	if err := core.ParallelFor(ctx, len(grid), core.Workers(len(grid)), func(_, i int) error {
		n := grid[i]
		x := float64(n)
		repB := base.Evaluate(n, rRR)
		latB.X[i], latB.Y[i] = x, repB.DecodeLatencyNs
		latO.X[i], latO.Y[i] = x, opt.Evaluate(n, rPr).DecodeLatencyNs
		heat.X[i], heat.Y[i] = x, repB.CrossHeatW
		return nil
	}); err != nil {
		return Result{}, err
	}
	res.Series = []Series{latB, latO, heat}
	res.Anchors["decode limit baseline"] = [2]float64{250, float64(base.ConstraintLimit(rRR, decodeOK))}
	res.Anchors["decode limit with Opt#1"] = [2]float64{9800, float64(opt.ConstraintLimit(rPr, decodeOK))}
	res.Anchors["300K-4K transfer limit"] = [2]float64{1700, float64(base.ConstraintLimit(rRR, transferOK))}
	return res, nil
}

// Fig16 reproduces the unit-level breakdowns motivating Guideline #1:
// inter-unit data transfer shares and the RSFQ power shares.
func Fig16(ctx context.Context, seed int64) (Result, error) {
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	d := config.CodeDistance
	res := Result{
		ID:      "fig16",
		Title:   "unit-level breakdown of inter-unit transfer and RSFQ power",
		Anchors: map[string][2]float64{},
	}
	// Transfer breakdown from a pipeline run.
	m, err := core.RunScalingWorkload(d, config.PhysErrorRate, decoder.SchemePriority, seed)
	if err != nil {
		res.Notes = append(res.Notes, "scaling workload failed: "+err.Error())
		return res, nil
	}
	var total, psutcu uint64
	for u := microarch.UnitQID; u <= microarch.UnitLMU; u++ {
		bits := m.UnitTrafficBits(u)
		total += bits
		if u == microarch.UnitPSU || u == microarch.UnitTCU {
			psutcu += bits
		}
	}
	share := 100 * float64(psutcu) / float64(total)
	res.Anchors["PSU+TCU transfer share (%)"] = [2]float64{98.1, share}

	// RSFQ power breakdown at a representative scale.
	scale := estimator.ScaleFor(5000, d)
	opts := estimator.DefaultOptions(d)
	var totW, psuTcuW float64
	for u := microarch.UnitQID; u <= microarch.UnitLMU; u++ {
		w := estimator.EstimateUnit(u, scale, tech.RSFQ, opts).TotalW()
		totW += w
		if u == microarch.UnitPSU || u == microarch.UnitTCU {
			psuTcuW += w
		}
	}
	res.Anchors["PSU+TCU RSFQ power share (%)"] = [2]float64{33.4, 100 * psuTcuW / totW}
	res.Anchors["other units RSFQ power share (%)"] = [2]float64{65.4, 100 * (totW - psuTcuW) / totW}
	res.Notes = append(res.Notes,
		"power split deviates from the paper (~58/42 vs 33/67): our PSU/TCU sizing is pinned by the Fig.17 970-qubit anchor and our EDU by the Fig.19 anchors, leaving less freedom for the Fig.16 share; the qualitative conclusion (moving non-PSU/TCU units to 4K roughly triples 4K power) is preserved")
	return res, nil
}

// Fig17 reproduces the near-future scalability for RSFQ and 4 K CMOS.
func Fig17(ctx context.Context, seed int64) (Result, error) {
	d := config.CodeDistance
	r := core.MeasureRates(d, config.PhysErrorRate, decoder.SchemePriority, seed)
	powerOK := func(rep core.Report) bool { return rep.PowerOK }
	res := Result{
		ID:      "fig17",
		Title:   "near-future system scalability (RSFQ and 4K CMOS)",
		Anchors: map[string][2]float64{},
	}
	rsfqB, rsfqO := core.NearFutureRSFQ(d, false), core.NearFutureRSFQ(d, true)
	cmosB, cmosO := core.NearFutureCMOS4K(d, false), core.NearFutureCMOS4K(d, true)
	grid := qubitGrid(60000)
	pr := gridSeries("rsfq-4k-power-w", len(grid))
	po := gridSeries("rsfq-opt-4k-power-w", len(grid))
	cr := gridSeries("cmos-4k-power-w", len(grid))
	co := gridSeries("cmos-vs-4k-power-w", len(grid))
	if err := core.ParallelFor(ctx, len(grid), core.Workers(len(grid)), func(_, i int) error {
		n := grid[i]
		x := float64(n)
		pr.X[i], pr.Y[i] = x, rsfqB.Evaluate(n, r).Power4KW
		po.X[i], po.Y[i] = x, rsfqO.Evaluate(n, r).Power4KW
		cr.X[i], cr.Y[i] = x, cmosB.Evaluate(n, r).Power4KW
		co.X[i], co.Y[i] = x, cmosO.Evaluate(n, r).Power4KW
		return nil
	}); err != nil {
		return Result{}, err
	}
	res.Series = []Series{pr, po, cr, co}
	res.Anchors["RSFQ power limit (baseline)"] = [2]float64{970, float64(rsfqB.ConstraintLimit(r, powerOK))}
	res.Anchors["RSFQ limit with Opts #2,#3"] = [2]float64{4600, float64(rsfqO.ConstraintLimit(r, powerOK))}
	res.Anchors["4K CMOS power limit (baseline)"] = [2]float64{1400, float64(cmosB.ConstraintLimit(r, powerOK))}
	res.Anchors["4K CMOS overall with voltage scaling"] = [2]float64{9800, float64(cmosO.MaxQubits(r))}
	return res, nil
}

// Fig18 reproduces the microarchitecture-optimization power factors.
func Fig18() Result {
	d := config.CodeDistance
	scale := estimator.ScaleFor(20000, d)
	base := estimator.DefaultOptions(d)
	opt := base
	opt.PSU = synth.OptimizedPSUOptions()
	opt.TCU = synth.TCUOptions{SimpleBuffer: true}

	psuB := estimator.EstimateUnit(microarch.UnitPSU, scale, tech.RSFQ, base)
	psuO := estimator.EstimateUnit(microarch.UnitPSU, scale, tech.RSFQ, opt)
	tcuB := estimator.EstimateUnit(microarch.UnitTCU, scale, tech.RSFQ, base)
	tcuO := estimator.EstimateUnit(microarch.UnitTCU, scale, tech.RSFQ, opt)
	vs := tech.FreePDK45(4).VoltageScalingPowerFactor()

	return Result{
		ID:    "fig18",
		Title: "PSU/TCU optimization power factors",
		Anchors: map[string][2]float64{
			"Opt#2 PSU power reduction (x)":   {5.5, psuB.TotalW() / psuO.TotalW()},
			"Opt#3 TCU power reduction (x)":   {4.0, tcuB.TotalW() / tcuO.TotalW()},
			"4K CMOS voltage scaling (x)":     {15.3, vs},
			"Opt#2 mask-generator sharing(x)": {14, 14},
		},
	}
}

// Fig19 reproduces the future-system scalability.
func Fig19(ctx context.Context, seed int64) (Result, error) {
	d := config.CodeDistance
	rPr := core.MeasureRates(d, config.PhysErrorRate, decoder.SchemePriority, seed)
	rPS := core.MeasureRates(d, config.PhysErrorRate, decoder.SchemePatchSliding, seed)
	powerOK := func(rep core.Report) bool { return rep.PowerOK }
	decodeOK := func(rep core.Report) bool { return rep.DecodeOK }

	base := core.FutureSystem(d, false, false)
	edu4k := core.FutureSystem(d, true, false)
	final := core.FutureSystem(d, true, true)

	res := Result{
		ID:      "fig19",
		Title:   "future system (ERSFQ) scalability",
		Anchors: map[string][2]float64{},
	}
	grid := qubitGrid(150000)
	pw := gridSeries("power-w-base", len(grid))
	pe := gridSeries("power-w-edu4k", len(grid))
	pf := gridSeries("power-w-final", len(grid))
	if err := core.ParallelFor(ctx, len(grid), core.Workers(len(grid)), func(_, i int) error {
		n := grid[i]
		x := float64(n)
		pw.X[i], pw.Y[i] = x, base.Evaluate(n, rPr).Power4KW
		pe.X[i], pe.Y[i] = x, edu4k.Evaluate(n, rPr).Power4KW
		pf.X[i], pf.Y[i] = x, final.Evaluate(n, rPS).Power4KW
		return nil
	}); err != nil {
		return Result{}, err
	}
	res.Series = []Series{pw, pe, pf}
	res.Anchors["ERSFQ power limit (EDU at 300K)"] = [2]float64{102000, float64(base.ConstraintLimit(rPr, powerOK))}
	res.Anchors["decode limit (EDU at 300K)"] = [2]float64{9800, float64(base.ConstraintLimit(rPr, decodeOK))}
	res.Anchors["power limit with ERSFQ EDU"] = [2]float64{8100, float64(edu4k.ConstraintLimit(rPr, powerOK))}
	res.Anchors["decode limit with ERSFQ EDU"] = [2]float64{105000, float64(edu4k.ConstraintLimit(rPr, decodeOK))}
	scale := final.MaxQubits(rPS)
	res.Anchors["final sustainable scale"] = [2]float64{59000, float64(scale)}

	// Optimization #4's EDU power factor, evaluated at the final design
	// scale where the sliding window's constant cell array is amortized.
	eB := edu4k.Evaluate(scale, rPr)
	eP := final.Evaluate(scale, rPS)
	psuTcu := core.FutureSystem(d, false, false).Evaluate(scale, rPr).Power4KW
	res.Anchors["Opt#4 EDU power reduction (x)"] = [2]float64{18.8,
		(eB.Power4KW - psuTcu) / (eP.Power4KW - psuTcu)}
	return res, nil
}

// Table3Row is one functional-validation benchmark.
type Table3Row struct {
	Benchmark string
	NLQ       int
	Patches   int
	D         int
	NPhys     int
	DTV       float64
	PaperDTV  float64
}

// Table3 reproduces the XQ-simulator functional validation: the total
// variation distance between the noisy physical-level sampling of the
// full pipeline and the exact logical reference, for the paper's five
// benchmarks. The paper uses 2048 shots; fewer shots widen the sampling
// noise but preserve the comparison.
//
// Per DESIGN.md, the pi/8 benchmarks run under the stabilizer
// substitution (pi/8 -> pi/4) on both sides of the comparison.
func Table3(ctx context.Context, shots int, seed int64) ([]Table3Row, error) {
	cases := []struct {
		name  string
		circ  compiler.Circuit
		d     int
		paper float64
	}{
		{"PPR(Z3Z4Z5)", compiler.SinglePPR("ZZZ", ftqc.AnglePi8), 3, 0.0351},
		{"PPR(Y3X4Z5X6)", compiler.SinglePPR("YXZX", ftqc.AnglePi8), 3, 0.0533},
		{"PPR(Y3Y4Z5Z6)", compiler.SinglePPR("YYZZ", ftqc.AnglePi8), 3, 0.0455},
		{"QFT", compiler.QFT2(2), 5, 0.013},
		{"QAOA", compiler.QAOA(4), 5, 0.0479},
	}
	var rows []Table3Row
	for i, c := range cases {
		dtv, _, _, err := core.ValidateCircuit(ctx, c.circ, c.d, config.PhysErrorRate, shots, seed+int64(i)*7919)
		if err != nil {
			return nil, err
		}
		lay := surface.NewPPRLayout(c.circ.NLQ, c.d)
		rows = append(rows, Table3Row{
			Benchmark: c.name,
			NLQ:       c.circ.NLQ,
			Patches:   lay.NumPatches(),
			D:         c.d,
			NPhys:     lay.PhysicalQubits(),
			DTV:       dtv,
			PaperDTV:  c.paper,
		})
	}
	return rows, nil
}

// Table3Result wraps the rows as a Result for uniform reporting.
func Table3Result(ctx context.Context, shots int, seed int64) (Result, error) {
	rows, err := Table3(ctx, shots, seed)
	if err != nil {
		return Result{}, err
	}
	res := Result{
		ID:      "table3",
		Title:   fmt.Sprintf("XQ-simulator functional validation (%d shots)", shots),
		Anchors: map[string][2]float64{},
	}
	for _, r := range rows {
		res.Anchors[fmt.Sprintf("%s dTV (%dq/%dpch/d=%d)", r.Benchmark, r.NLQ, r.Patches, r.D)] =
			[2]float64{r.PaperDTV, r.DTV}
	}
	return res, nil
}

// Table4 reports the analysis setup constants.
func Table4() Result {
	return Result{
		ID:    "table4",
		Title: "scalability analysis setup",
		Anchors: map[string][2]float64{
			"physical error rate":      {0.001, config.PhysErrorRate},
			"code distance":            {15, config.CodeDistance},
			"1q gate latency (ns)":     {14, config.T1QNs},
			"2q gate latency (ns)":     {26, config.T2QNs},
			"measurement latency (ns)": {600, config.TMeasNs},
			"4K power budget (W)":      {1.5, config.Power4KBudgetW},
			"4K area budget (cm2)":     {620, config.Area4KBudgetCm2},
			"cable bandwidth (Gbps)":   {10, config.CableGbps},
			"cable heat (mW)":          {31, config.CableHeatW * 1000},
			"300K CMOS clock (GHz)":    {1.5, config.Freq300KCMOSGHz},
			"4K CMOS clock (GHz)":      {1.5, config.Freq4KCMOSGHz},
			"RSFQ/ERSFQ clock (GHz)":   {21.0, config.FreqRSFQGHz},
		},
	}
}

// Sensitivity reproduces the Section 6.2 discussion: how the final
// design's sustainable scale responds to the environment parameters
// architects expect to improve — the 4 K cooling budget and the physical
// error rate. Each point re-evaluates the full engine with an overridden
// Budget.
func Sensitivity(ctx context.Context, seed int64) (Result, error) {
	d := config.CodeDistance
	r := core.MeasureRates(d, config.PhysErrorRate, decoder.SchemePatchSliding, seed)
	res := Result{
		ID:      "sensitivity",
		Title:   "final-design sensitivity to future technology parameters (Section 6.2)",
		Anchors: map[string][2]float64{},
	}

	var power Series
	power.Name = "max-qubits-vs-4K-budget-W"
	// Points 2 and 4 are the anchors: Table 4's 1.5 W and a 6 W future
	// refrigerator.
	for _, w := range []float64{0.75, 1.0, config.Power4KBudgetW, 3.0, 6.0, 12.0} {
		if err := ctx.Err(); err != nil {
			return Result{}, err
		}
		sys := core.FutureSystem(d, true, true)
		b := core.DefaultBudget()
		b.Power4KW = w
		sys.Budget = b
		power.X = append(power.X, w)
		power.Y = append(power.Y, float64(sys.MaxQubits(r)))
	}
	res.Series = append(res.Series, power)
	res.Anchors["scale at 1.5W (Table 4)"] = [2]float64{59000, power.Y[2]}
	res.Anchors["scale at a 6W future refrigerator"] = [2]float64{0, power.Y[4]}
	res.Notes = append(res.Notes,
		"the paper gives no numbers for Section 6.2; the 6W row demonstrates the parameter-override capability")
	return res, nil
}

// AblationMaskSharing sweeps Optimization #2's sharing degree: PSU power
// per qubit and the resulting near-future RSFQ scaling limit versus
// qubits-per-mask-generator. The paper picks 14x (112 qubits per
// generator); the sweep shows the knee.
func AblationMaskSharing(ctx context.Context, seed int64) (Result, error) {
	d := config.CodeDistance
	r := core.MeasureRates(d, config.PhysErrorRate, decoder.SchemePriority, seed)
	res := Result{
		ID:      "ablation-masksharing",
		Title:   "Optimization #2 ablation: PSU sharing degree",
		Anchors: map[string][2]float64{},
	}
	var power, limit Series
	power.Name, limit.Name = "psu-uW-per-qubit", "rsfq-limit-qubits"
	scale := estimator.ScaleFor(20000, d)
	powerOK := func(rep core.Report) bool { return rep.PowerOK }
	for _, share := range []int{1, 2, 4, 8, 14, 20, 28} {
		if err := ctx.Err(); err != nil {
			return Result{}, err
		}
		opts := estimator.DefaultOptions(d)
		opts.PSU = synth.PSUOptions{QubitsPerMaskGen: 8 * share}
		opts.TCU = synth.TCUOptions{SimpleBuffer: true}
		e := estimator.EstimateUnit(microarch.UnitPSU, scale, tech.RSFQ, opts)
		power.X = append(power.X, float64(share))
		power.Y = append(power.Y, e.TotalW()/float64(scale.NPhys)*1e6)

		sys := core.NearFutureRSFQ(d, true)
		sys.Opts.PSU = opts.PSU
		limit.X = append(limit.X, float64(share))
		limit.Y = append(limit.Y, float64(sys.ConstraintLimit(r, powerOK)))
	}
	res.Series = []Series{power, limit}
	res.Anchors["limit at the paper's 14x point"] = [2]float64{4600, limit.Y[4]}
	return res, nil
}

// AblationCodeDistance sweeps the code distance: the final ERSFQ design's
// sustainable physical scale and the logical-qubit capacity it buys.
// Larger d costs 2*(d+1)^2 physical qubits per patch and heavier decoding
// but suppresses logical errors; the paper fixes d=15 (Table 4).
func AblationCodeDistance(ctx context.Context, seed int64) (Result, error) {
	res := Result{
		ID:      "ablation-distance",
		Title:   "code-distance ablation for the final design",
		Anchors: map[string][2]float64{},
	}
	ds := []int{7, 9, 11, 15, 19}
	phys := gridSeries("max-physical-qubits", len(ds))
	logical := gridSeries("logical-qubit-capacity", len(ds))
	// Each distance needs its own full-pipeline rate measurement — the
	// dominant cost of this sweep — so the points run concurrently.
	if err := core.ParallelFor(ctx, len(ds), core.Workers(len(ds)), func(_, i int) error {
		d := ds[i]
		r := core.MeasureRates(d, config.PhysErrorRate, decoder.SchemePatchSliding, seed)
		sys := core.FutureSystem(d, true, true)
		n := sys.MaxQubits(r)
		phys.X[i], phys.Y[i] = float64(d), float64(n)
		logical.X[i], logical.Y[i] = float64(d), float64(estimator.ScaleFor(n, d).NLQ)
		return nil
	}); err != nil {
		return Result{}, err
	}
	res.Series = []Series{phys, logical}
	res.Anchors["physical scale at d=15"] = [2]float64{59000, phys.Y[3]}
	return res, nil
}

// AblationCodewordWidth sweeps the per-qubit codeword width: the 300K-4K
// transfer limit of the current system scales inversely with the stream
// density (the paper's 26-bit word places it at ~1,700 qubits).
func AblationCodewordWidth() Result {
	res := Result{
		ID:      "ablation-cwdbits",
		Title:   "codeword-width ablation: transfer limit vs stream density",
		Anchors: map[string][2]float64{},
	}
	var limit Series
	limit.Name = "transfer-limit-qubits"
	for _, bits := range []int{8, 16, 26, 32, 48} {
		perQubitRound := float64(bits * config.ESMStepsPerRound)
		crossover := config.MaxCrossBandwidthGbps() * config.ESMRoundNs() / perQubitRound
		limit.X = append(limit.X, float64(bits))
		limit.Y = append(limit.Y, crossover)
	}
	res.Series = []Series{limit}
	res.Anchors["limit at 26 bits"] = [2]float64{1700, limit.Y[2]}
	return res
}

// ThresholdStudy measures the quantum memory's logical error rate per
// decode window across physical error rates and code distances — the
// standard surface-code threshold experiment, exercising the full
// backend + decoder loop. Below threshold larger distances must win;
// the crossing locates the decoder's effective threshold (the
// phenomenological nearest-pair threshold sits near ~3%).
func ThresholdStudy(ctx context.Context, trials int, seed int64) (Result, error) {
	res := Result{
		ID:      "threshold",
		Title:   "surface-code memory threshold under the EDU decoder",
		Anchors: map[string][2]float64{},
	}
	ps := []float64{0.001, 0.002, 0.005, 0.01, 0.02, 0.04}
	for _, d := range []int{3, 5, 7} {
		// One experiment per distance: the backends and tableaus are
		// built once and retargeted across the error-rate cells.
		exp := core.NewMemoryExperiment(d)
		s := Series{Name: fmt.Sprintf("logical-error-rate-d%d", d)}
		for _, p := range ps {
			rate, _, err := exp.ErrorRate(ctx, p, 3, trials, seed, faults.Config{})
			if err != nil {
				return Result{}, err
			}
			s.X = append(s.X, p)
			s.Y = append(s.Y, rate)
		}
		res.Series = append(res.Series, s)
	}
	// Sub-threshold ordering anchor at p = 1%.
	d3 := res.Series[0].Y[3]
	d7 := res.Series[2].Y[3]
	res.Anchors["d=3 logical rate at p=1%"] = [2]float64{0, d3}
	res.Anchors["d=7 suppression vs d=3 at p=1% (x)"] = [2]float64{0, safeRatio(d3, d7)}
	res.Notes = append(res.Notes,
		"no paper counterpart: validates the in-repo decoder+backend loop (phenomenological noise)",
		"the window-parity decode accumulates d rounds of data errors before matching, so the d=3/d=7 curves cross near p~0.5%; the study's operating point p=0.1% (Table 4) sits 5x below it")
	return res, nil
}

// CircuitThresholdStudy is the circuit-level counterpart of
// ThresholdStudy: instead of the phenomenological backend model, each
// cell compiles the explicit gate-level memory experiment
// (surface.MemoryCircuit, depolarizing noise after every two-qubit
// gate, readout flips) and measures the logical error rate through the
// bit-sliced batch frame sampler at 64 shots per machine word. Cells
// run serially — core.FrameLogicalErrorRate already saturates the
// machine's cores internally.
func CircuitThresholdStudy(ctx context.Context, shots int, seed int64) (Result, error) {
	res := Result{
		ID:      "circuit-threshold",
		Title:   "circuit-level memory threshold via batch frame sampling",
		Anchors: map[string][2]float64{},
	}
	ps := []float64{0.001, 0.002, 0.005, 0.01, 0.02}
	for _, d := range []int{3, 5, 7} {
		s := Series{Name: fmt.Sprintf("circuit-logical-error-rate-d%d", d)}
		for i, p := range ps {
			cellSeed := seed + int64(d)*1000 + int64(i)
			rate, err := core.FrameLogicalErrorRate(ctx, d, p, d, shots, cellSeed)
			if err != nil {
				return Result{}, err
			}
			s.X = append(s.X, p)
			s.Y = append(s.Y, rate)
		}
		res.Series = append(res.Series, s)
	}
	// Sub-threshold ordering anchor at p = 0.1%, the study's operating
	// point (circuit-level noise halves the effective threshold, so the
	// 1% anchor ThresholdStudy uses sits above the crossing here).
	d3 := res.Series[0].Y[0]
	d7 := res.Series[2].Y[0]
	res.Anchors["d=3 circuit-level rate at p=0.1%"] = [2]float64{0, d3}
	res.Anchors["d=7 suppression vs d=3 at p=0.1% (x)"] = [2]float64{0, safeRatio(d3, d7)}
	res.Notes = append(res.Notes,
		"no paper counterpart: validates the compiled batch frame sampler end-to-end (circuit-level noise, d rounds, final round noise-free)",
		"decoding consumes only the final round's Z-plaquette flips (window parity over d rounds), so suppression saturates earlier than a full spacetime matching would")
	return res, nil
}

func safeRatio(a, b float64) float64 {
	//xqlint:ignore floateq exact sentinel: rates are failure counts over trials; 0.0 means zero observed failures
	if b == 0 {
		return a * float64(1000) // lower bound when no failures observed
	}
	return a / b
}
