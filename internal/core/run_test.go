package core

import (
	"context"
	"testing"

	"xqsim/internal/compiler"
	"xqsim/internal/decoder"
	"xqsim/internal/ftqc"
	"xqsim/internal/microarch"
)

func TestRunShotsDistribution(t *testing.T) {
	// Noiseless PPR(pi/4, Z) on |0>: the state stays |0> up to phase, so
	// the readout must be deterministic 0.
	circ := compiler.SinglePPR("Z", ftqc.AnglePi4)
	dist, m, err := RunShots(context.Background(), circ, 3, 0, 40, 5)
	if err != nil {
		t.Fatal(err)
	}
	if dist[0] < 0.999 {
		t.Fatalf("P(0) = %v, want 1", dist[0])
	}
	if m == nil || m.ESMRounds == 0 {
		t.Fatal("metrics missing")
	}
}

func TestRunShotsCompileError(t *testing.T) {
	bad := compiler.Circuit{NLQ: 0}
	if _, _, err := RunShots(context.Background(), bad, 3, 0, 1, 1); err == nil {
		t.Fatal("expected compile error")
	}
	if _, _, _, err := ValidateCircuit(context.Background(), bad, 3, 0, 1, 1); err == nil {
		t.Fatal("expected validate error")
	}
}

// TestRunShotsRejectsNoShots: below one shot there is no distribution,
// so RunShots and ValidateCircuit return an error instead of 0/0 counts
// and nil metrics.
func TestRunShotsRejectsNoShots(t *testing.T) {
	circ := compiler.SinglePPR("ZZ", ftqc.AnglePi4)
	for _, shots := range []int{0, -3} {
		dist, m, err := RunShots(context.Background(), circ, 3, 0, shots, 1)
		if err == nil || dist != nil || m != nil {
			t.Fatalf("shots=%d: dist %v, metrics %v, err %v; want only an error", shots, dist, m, err)
		}
		if _, _, _, err := ValidateCircuit(context.Background(), circ, 3, 0, shots, 1); err == nil {
			t.Fatalf("shots=%d: ValidateCircuit accepted it", shots)
		}
	}
}

// TestRunShotsRejectsUnrunnableInputs: an even or oversized distance, an
// error rate outside [0, 1) and a circuit too wide to tally are errors
// from NewShotRunner, before any tally, layout or state vector exists.
func TestRunShotsRejectsUnrunnableInputs(t *testing.T) {
	ctx := context.Background()
	small := compiler.SinglePPR("ZZ", ftqc.AnglePi4)
	cases := []struct {
		name string
		circ compiler.Circuit
		d    int
		p    float64
	}{
		{"even d", small, 4, 0.001},
		{"d below 3", small, 1, 0.001},
		{"d above MaxDistance", small, MaxDistance + 2, 0.001},
		{"p = 1", small, 3, 1},
		{"p = 7", small, 3, 7},
		{"negative p", small, 3, -0.1},
		{"40 logical qubits", compiler.RandomPPR(40, 1, 1), 3, 0.001},
		{"past statevec's 24", compiler.RandomPPR(25, 1, 1), 3, 0.001},
	}
	for _, tc := range cases {
		if _, _, err := RunShots(ctx, tc.circ, tc.d, tc.p, 4, 1); err == nil {
			t.Errorf("%s: RunShots accepted it", tc.name)
		}
		if _, _, _, err := ValidateCircuit(ctx, tc.circ, tc.d, tc.p, 4, 1); err == nil {
			t.Errorf("%s: ValidateCircuit accepted it", tc.name)
		}
	}
	for _, ok := range []struct {
		nLQ, d int
		p      float64
	}{{1, 3, 0}, {MaxRunLQ, MaxDistance, 0.999}} {
		if err := CheckRun(ok.nLQ, ok.d, ok.p); err != nil {
			t.Errorf("CheckRun(%d, %d, %g) = %v, want nil", ok.nLQ, ok.d, ok.p, err)
		}
	}
}

func TestValidateCircuitTableThreeRegime(t *testing.T) {
	// A single-PPR benchmark at d=3, p=0.1% must validate with small dTV
	// (the Table-3 regime).
	circ := compiler.SinglePPR("ZZ", ftqc.AnglePi8)
	dtv, phys, ref, err := ValidateCircuit(context.Background(), circ, 3, 0.001, 300, 11)
	if err != nil {
		t.Fatal(err)
	}
	if len(phys) != len(ref) {
		t.Fatal("distribution sizes differ")
	}
	if dtv > 0.12 {
		t.Fatalf("dTV = %v", dtv)
	}
}

func TestRunScalingWorkloadMetrics(t *testing.T) {
	m, err := RunScalingWorkload(7, 0.001, decoder.SchemePriority, 3)
	if err != nil {
		t.Fatal(err)
	}
	if m.ESMRounds == 0 || m.DecodeWindows == 0 {
		t.Fatal("scaling run produced no activity")
	}
	if m.TransferBits[microarch.UnitPSU][microarch.UnitTCU] == 0 {
		t.Fatal("no codeword traffic recorded")
	}
}

func TestPipelineConfigDefaults(t *testing.T) {
	cfg := PipelineConfig(15, 0.001, decoder.SchemePriority, true, 9)
	want := microarch.Config{D: 15, PhysError: 0.001, Seed: 9, Functional: true, Scheme: decoder.SchemePriority}
	if cfg != want {
		t.Fatalf("config = %+v, want %+v", cfg, want)
	}
}

func TestFreqOfAllTechs(t *testing.T) {
	d := 15
	if f := NearFutureRSFQ(d, false).freqOf(microarch.UnitPSU); f != 21.0 {
		t.Errorf("RSFQ freq = %v", f)
	}
	if f := FutureSystem(d, true, false).freqOf(microarch.UnitEDU); f != 21.0 {
		t.Errorf("ERSFQ freq = %v", f)
	}
	if f := NearFutureCMOS4K(d, false).freqOf(microarch.UnitPSU); f != 1.5 {
		t.Errorf("4K CMOS freq = %v", f)
	}
	if f := CurrentSystem(d, false).freqOf(microarch.UnitEDU); f != 1.5 {
		t.Errorf("300K CMOS freq = %v", f)
	}
}

func TestBudgetOverride(t *testing.T) {
	_, r, _ := rates(t)
	base := FutureSystem(15, true, true)
	nBase := base.MaxQubits(r)

	richer := FutureSystem(15, true, true)
	b := DefaultBudget()
	b.Power4KW = 3.0
	richer.Budget = b
	nRich := richer.MaxQubits(r)
	if nRich <= nBase {
		t.Fatalf("doubled power budget did not help: %d vs %d", nRich, nBase)
	}

	// A tighter decode budget must shrink a decode-limited system.
	slow := CurrentSystem(15, true)
	tight := CurrentSystem(15, true)
	tb := DefaultBudget()
	tb.DecodeBudgetNs = 200
	tight.Budget = tb
	decodeOK := func(rep Report) bool { return rep.DecodeOK }
	if tight.ConstraintLimit(r, decodeOK) >= slow.ConstraintLimit(r, decodeOK) {
		t.Fatal("tighter decode budget did not bite")
	}
	// A doubled power budget also doubles the admissible cable count.
	if b.MaxCrossGbps() <= DefaultBudget().MaxCrossGbps() {
		t.Fatal("cable budget did not grow with the power budget")
	}
}

func TestRunShotsDeterministicAcrossScheduling(t *testing.T) {
	// Per-shot seeds are fixed, so the distribution is identical across
	// runs despite parallel scheduling.
	circ := compiler.SinglePPR("XZ", ftqc.AnglePi4)
	a, _, err := RunShots(context.Background(), circ, 3, 0.002, 64, 13)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := RunShots(context.Background(), circ, 3, 0.002, 64, 13)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("distribution differs at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestMSDSelfCheckThroughFullPipeline(t *testing.T) {
	// The 15-to-1 distillation self-check through the complete stack
	// (QISA, microarchitecture, noisy surface-code backend): under the
	// stabilizer substitution both sides of the comparison shift
	// consistently, so the sampled distribution must match the
	// substituted reference.
	circ := compiler.MSD15To1SelfCheck()
	// Noiseless first: the datapath must match the substituted reference
	// exactly (up to sampling).
	dtv0, _, _, err := ValidateCircuit(context.Background(), circ, 3, 0, 150, 21)
	if err != nil {
		t.Fatal(err)
	}
	if dtv0 > 0.12 {
		t.Fatalf("noiseless MSD self-check dTV = %v", dtv0)
	}
	// With noise at d=3 this 31-rotation workload accumulates real
	// logical errors (~93 decode windows over ~8 active patches); the
	// distribution must still stay recognizably close.
	dtv, _, _, err := ValidateCircuit(context.Background(), circ, 3, 0.001, 150, 21)
	if err != nil {
		t.Fatal(err)
	}
	if dtv > 0.45 {
		t.Fatalf("noisy MSD self-check dTV = %v", dtv)
	}
}

func TestRatesScaleInvariance(t *testing.T) {
	// The engine extrapolates macroscopic metrics from rates measured at a
	// reference scale; that is only sound if the per-qubit rates are
	// scale-invariant. Measure at two workload sizes and compare.
	rates := func(nLQ int) Rates {
		run, err := referenceRun(7, 0.001, decoder.SchemePriority, 3, nLQ, 4)
		if err != nil {
			t.Fatal(err)
		}
		return ratesOf(&run.m, run.nPhys)
	}
	a, b := rates(3), rates(6)
	rel := func(x, y float64) float64 {
		if y == 0 {
			return 0
		}
		d := (x - y) / y
		if d < 0 {
			return -d
		}
		return d
	}
	if rel(a.BitsPerQubitPerRound, b.BitsPerQubitPerRound) > 0.02 {
		t.Fatalf("codeword density not scale-invariant: %v vs %v",
			a.BitsPerQubitPerRound, b.BitsPerQubitPerRound)
	}
	if rel(a.SyndromesPerQubitPerWindow, b.SyndromesPerQubitPerWindow) > 0.5 {
		t.Fatalf("syndrome density drifts with scale: %v vs %v",
			a.SyndromesPerQubitPerWindow, b.SyndromesPerQubitPerWindow)
	}
	if rel(a.AvgMatchSteps, b.AvgMatchSteps) > 0.6 {
		t.Fatalf("match distance drifts with scale: %v vs %v", a.AvgMatchSteps, b.AvgMatchSteps)
	}
}
