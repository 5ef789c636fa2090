package microarch

import (
	"testing"

	"xqsim/internal/compiler"
	"xqsim/internal/ftqc"
	"xqsim/internal/pauli"
	"xqsim/internal/statevec"
	"xqsim/internal/surface"
)

func newTestBackend(nLQ, d int, p float64, seed int64) *Backend {
	return NewBackend(surface.NewPPRLayout(nLQ, d), p, seed, true)
}

func TestPrepareAndMeasureZero(t *testing.T) {
	b := newTestBackend(2, 3, 0, 1)
	b.PrepareZero(0)
	pr := pauli.NewProduct(b.NumLQ())
	pr.Ops[0] = pauli.Z
	if out := b.MeasureProduct(pr); out {
		t.Fatal("Z_L on |0_L> must be +1")
	}
	// Repeatability.
	if out := b.MeasureProduct(pr); out {
		t.Fatal("repeated Z_L changed")
	}
}

func TestPreparePlus(t *testing.T) {
	b := newTestBackend(1, 3, 0, 2)
	b.PreparePlus(0)
	pr := pauli.NewProduct(b.NumLQ())
	pr.Ops[0] = pauli.X
	if out := b.MeasureProduct(pr); out {
		t.Fatal("X_L on |+_L> must be +1")
	}
}

func TestPrepareResourcePlusI(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		b := newTestBackend(1, 3, 0, seed)
		b.PrepareResource(b.Layout.MagicLQ, ftqc.AnglePi4)
		pr := pauli.NewProduct(b.NumLQ())
		pr.Ops[b.Layout.MagicLQ] = pauli.Y
		if out := b.MeasureProduct(pr); out {
			t.Fatalf("seed %d: Y_L on |+i_L> must be +1", seed)
		}
	}
}

func TestMagicPanicsInFunctionalMode(t *testing.T) {
	b := newTestBackend(1, 3, 0, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("pi/8 resource preparation must panic in functional mode")
		}
	}()
	b.PrepareResource(b.Layout.MagicLQ, ftqc.AnglePi8)
}

func TestLogicalErrorInjectionFlipsOutcome(t *testing.T) {
	b := newTestBackend(1, 3, 0, 3)
	b.PrepareZero(0)
	b.InjectLogicalError(0, pauli.X) // logical X flips Z readout
	pr := pauli.NewProduct(b.NumLQ())
	pr.Ops[0] = pauli.Z
	if out := b.MeasureProduct(pr); !out {
		t.Fatal("injected logical X did not flip Z_L")
	}
	// A logical Z must NOT flip the Z readout.
	b2 := newTestBackend(1, 3, 0, 4)
	b2.PrepareZero(0)
	b2.InjectLogicalError(0, pauli.Z)
	if out := b2.MeasureProduct(pr); out {
		t.Fatal("injected logical Z flipped Z_L")
	}
}

func TestSingleErrorDecodedThroughWindow(t *testing.T) {
	// Inject one X error, run d noiseless syndrome rounds, decode: the
	// estimate frame must cancel the truth frame on the logical string.
	b := newTestBackend(1, 5, 0, 5)
	b.PrepareZero(0)
	patch, _ := b.Layout.PatchOfLQ(0)
	b.flipErr(patch, b.Code.DataIndex(surface.Coord{Row: 2, Col: 2}), pauli.X)
	for r := 0; r < 5; r++ {
		b.MeasureSyndromes()
	}
	res := b.FinishWindow()
	if len(res.MatchesZ)+len(res.MatchesX) == 0 {
		t.Fatal("no matches decoded")
	}
	pr := pauli.NewProduct(b.NumLQ())
	pr.Ops[0] = pauli.Z
	if out := b.MeasureProduct(pr); out {
		t.Fatal("decoded error still flips the corrected outcome")
	}
	// The raw outcome must have been flipped (the error crosses Z_L... or
	// not, depending on the site); at least corrected == ideal.
	corrected, raw, pf := b.MeasureProductDetail(pr, nil)
	if corrected != (raw != pf) {
		t.Fatal("detail bits inconsistent")
	}
}

func TestErrorChainAcrossLogicalString(t *testing.T) {
	// An X error sitting on the logical-Z column flips the raw outcome;
	// after decoding the corrected outcome is restored.
	b := newTestBackend(1, 5, 0, 6)
	b.PrepareZero(0)
	patch, _ := b.Layout.PatchOfLQ(0)
	b.flipErr(patch, b.Code.DataIndex(surface.Coord{Row: 2, Col: 0}), pauli.X)
	pr := pauli.NewProduct(b.NumLQ())
	pr.Ops[0] = pauli.Z
	_, raw, _ := b.MeasureProductDetail(pr, nil)
	if !raw {
		t.Fatal("error on the logical string must flip the raw outcome")
	}
	for r := 0; r < 5; r++ {
		b.MeasureSyndromes()
	}
	b.FinishWindow()
	corrected, _, _ := b.MeasureProductDetail(pr, nil)
	if corrected {
		t.Fatal("correction failed")
	}
}

func TestBackendRunsProtocolNoiseless(t *testing.T) {
	// The backend must reproduce the exact logical reference distribution
	// when driven by the verified protocol executor with zero noise.
	circ := compiler.QAOA(3).SubstituteStabilizer()
	want := compiler.ReferenceDistribution(circ)

	shots := 600
	counts := make([]float64, 1<<3)
	for s := 0; s < shots; s++ {
		b := newTestBackend(3, 3, 0, int64(s)*13+1)
		for q := 0; q < 3; q++ {
			b.PreparePlus(q)
		}
		tr := ftqc.NewTracker(b.NumLQ())
		for _, rot := range circ.Rotations {
			ext := ftqc.Rotation{P: compiler.Extend(rot.P, b.NumLQ()), Angle: rot.Angle, Neg: rot.Neg}
			ftqc.ExecutePPR(b, tr, ext, b.Layout.AncillaLQ, b.Layout.MagicLQ)
		}
		key := 0
		for q := 0; q < 3; q++ {
			pr := pauli.NewProduct(b.NumLQ())
			pr.Ops[q] = pauli.Z
			raw := b.MeasureProduct(pr)
			if ftqc.InterpretFinalZ(tr, q, raw) {
				key |= 1 << uint(q)
			}
		}
		counts[key]++
	}
	for i := range counts {
		counts[i] /= float64(shots)
	}
	if d := statevec.TotalVariation(want, counts); d > 0.09 {
		t.Fatalf("noiseless backend dTV = %v\nwant %v\ngot  %v", d, want, counts)
	}
}

func TestBackendNoisyLowErrorRate(t *testing.T) {
	// With p = 0.1% and d = 5, a prepared |0_L> must survive several
	// decode windows with very high probability.
	fails := 0
	trials := 60
	for s := 0; s < trials; s++ {
		b := newTestBackend(1, 5, 0.001, int64(s)*17+3)
		b.PrepareZero(0)
		for w := 0; w < 4; w++ {
			for r := 0; r < 5; r++ {
				b.InjectRoundNoise()
				b.MeasureSyndromes()
			}
			b.FinishWindow()
		}
		pr := pauli.NewProduct(b.NumLQ())
		pr.Ops[0] = pauli.Z
		if b.MeasureProduct(pr) {
			fails++
		}
	}
	if fails > 3 {
		t.Fatalf("logical memory failed %d/%d at p=0.1%%, d=5", fails, trials)
	}
}

func TestIntermediateLifecycle(t *testing.T) {
	b := newTestBackend(2, 3, 0, 9)
	b.PrepareZero(0)
	b.PrepareZero(1)
	p0, _ := b.Layout.PatchOfLQ(0)
	p1, _ := b.Layout.PatchOfLQ(1)
	region, err := b.Layout.MergeRegion([]int{p0, p1})
	if err != nil {
		t.Fatal(err)
	}
	b.Layout.ApplyMerge(region)
	n := b.InitIntermediates(region)
	if n == 0 {
		t.Fatal("no intermediates initialized")
	}
	// Active patches now include intermediates; syndromes run over all.
	before := len(b.Layout.ActiveESMPatches())
	if before < 3 {
		t.Fatalf("active patches = %d", before)
	}
	b.MeasureSyndromes()
	b.FinishWindow()
	b.Layout.ApplySplit(region)
	if got := b.MeasureIntermediates(region); got != n {
		t.Fatalf("measured %d intermediates, initialized %d", got, n)
	}
	if len(b.Layout.ActiveESMPatches()) != 2 {
		t.Fatalf("active after split = %d", len(b.Layout.ActiveESMPatches()))
	}
}

func TestScalingModeNoTableau(t *testing.T) {
	// Scaling mode must run rounds and decode without a tableau.
	layout := surface.NewPPRLayout(4, 5)
	b := NewBackend(layout, 0.001, 11, false)
	for q := 0; q < 4; q++ {
		b.PrepareZero(q)
	}
	for r := 0; r < 5; r++ {
		b.InjectRoundNoise()
		b.MeasureSyndromes()
	}
	res := b.FinishWindow()
	if res.Windows != 4 {
		t.Fatalf("windows = %d", res.Windows)
	}
	if res.ActiveCells == 0 {
		t.Fatal("no active cells accounted")
	}
	// Magic preparation is accepted without a tableau.
	b.PrepareResource(b.Layout.MagicLQ, ftqc.AnglePi8)
}
