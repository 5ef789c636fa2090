package stab

import (
	"math"
	"testing"
)

func TestCircuitTableauBell(t *testing.T) {
	c := NewCircuit(2).H(0).CX(0, 1).MeasureZ(0).MeasureZ(1)
	for seed := int64(0); seed < 30; seed++ {
		rec := c.SimulateTableau(seed)
		if len(rec) != 2 {
			t.Fatalf("record length = %d", len(rec))
		}
		if rec[0] != rec[1] {
			t.Fatalf("Bell outcomes disagree: %v", rec)
		}
	}
}

func TestCircuitNoiseChannels(t *testing.T) {
	// A certain X flip inverts the outcome.
	c := NewCircuit(1).FlipX(0, 1.0).MeasureZ(0)
	rec := c.SimulateTableau(1)
	if !rec[0] {
		t.Fatal("p=1 X flip did not invert the measurement")
	}
	// p=0 leaves it.
	c0 := NewCircuit(1).FlipX(0, 0).MeasureZ(0)
	if c0.SimulateTableau(1)[0] {
		t.Fatal("p=0 flip changed the state")
	}
}

func TestFrameSamplerMatchesReferenceNoiseless(t *testing.T) {
	// Without noise, every sample equals the reference record.
	c := NewCircuit(3).H(0).CX(0, 1).CZ(1, 2).S(2).MeasureZ(0).MeasureZ(1).MeasureZ(2)
	fs := NewFrameSampler(c, 5)
	ref := fs.Reference()
	for i := 0; i < 20; i++ {
		got := fs.Sample()
		for j := range ref {
			if got[j] != ref[j] {
				t.Fatalf("noiseless sample %d differs from reference", i)
			}
		}
	}
}

func TestFrameSamplerFlipStatistics(t *testing.T) {
	// An X-flip channel with p=0.3 before a Z measurement must invert the
	// reference ~30% of the time.
	c := NewCircuit(1).FlipX(0, 0.3).MeasureZ(0)
	fs := NewFrameSampler(c, 9)
	ref := fs.Reference()[0]
	flips := 0
	n := 20000
	for i := 0; i < n; i++ {
		if fs.Sample()[0] != ref {
			flips++
		}
	}
	frac := float64(flips) / float64(n)
	if math.Abs(frac-0.3) > 0.02 {
		t.Fatalf("flip fraction = %.3f, want ~0.30", frac)
	}
}

func TestFrameSamplerPropagation(t *testing.T) {
	// X error on the control before CX flips BOTH measurements.
	c := NewCircuit(2).FlipX(0, 1.0).CX(0, 1).MeasureZ(0).MeasureZ(1)
	fs := NewFrameSampler(c, 3)
	ref := fs.Reference()
	got := fs.Sample()
	if got[0] == ref[0] || got[1] == ref[1] {
		t.Fatalf("propagated X did not flip both outcomes: ref=%v got=%v", ref, got)
	}
	// Z error through H becomes X and flips a Z measurement.
	c2 := NewCircuit(1).FlipZ(0, 1.0).H(0).MeasureZ(0)
	fs2 := NewFrameSampler(c2, 4)
	if fs2.Sample()[0] == fs2.Reference()[0] {
		t.Fatal("Z->H->measure should flip")
	}
}

func TestFrameSamplerAgreesWithTableauDistribution(t *testing.T) {
	// A noisy repetition-code-ish circuit: distribution of the frame
	// sampler must match the full tableau simulation.
	build := func() *Circuit {
		return NewCircuit(3).
			H(0).CX(0, 1).CX(1, 2).
			FlipX(0, 0.2).FlipX(1, 0.1).
			MeasureZ(0).MeasureZ(1).MeasureZ(2)
	}
	n := 6000
	countKey := func(rec []bool) int {
		k := 0
		for i, b := range rec {
			if b {
				k |= 1 << uint(i)
			}
		}
		return k
	}
	tab := make([]float64, 8)
	for i := 0; i < n; i++ {
		tab[countKey(build().SimulateTableau(int64(i)*17+1))]++
	}
	fs := NewFrameSampler(build(), 2) // one fixed reference branch
	frm := make([]float64, 8)
	for i := 0; i < n; i++ {
		frm[countKey(fs.Sample())]++
	}
	// The Bell-pair randomness makes tableau outcomes split between 000-
	// and 111-rooted branches while one frame sampler fixes a branch;
	// compare the distribution of the *error pattern* instead: XOR with
	// the all-equal baseline is awkward, so instead compare P(q0 != q1)
	// and P(q1 != q2), which are branch-independent.
	mismatch := func(counts []float64, a, b int) float64 {
		p := 0.0
		for k := 0; k < 8; k++ {
			if ((k >> uint(a)) & 1) != ((k >> uint(b)) & 1) {
				p += counts[k]
			}
		}
		return p / float64(n)
	}
	for _, pair := range [][2]int{{0, 1}, {1, 2}} {
		pt := mismatch(tab, pair[0], pair[1])
		pf := mismatch(frm, pair[0], pair[1])
		if math.Abs(pt-pf) > 0.03 {
			t.Fatalf("P(q%d!=q%d): tableau %.3f vs frame %.3f", pair[0], pair[1], pt, pf)
		}
	}
}

func TestCircuitQubitRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewCircuit(2).H(5)
}

func TestMeasurementsCount(t *testing.T) {
	c := NewCircuit(2).H(0).MeasureZ(0).MeasureZ(1).Reset(0).MeasureZ(0)
	if c.Measurements() != 3 {
		t.Fatalf("measurements = %d", c.Measurements())
	}
}

func BenchmarkFrameSamplerShot(b *testing.B) {
	// A surface-code-round-like circuit: 100 qubits, CX ladder + noise.
	c := NewCircuit(100)
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
	fs := NewFrameSampler(c, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fs.Sample()
	}
}

func BenchmarkTableauShot(b *testing.B) {
	c := NewCircuit(100)
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
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.SimulateTableau(int64(i))
	}
}

// BenchmarkFrameSamplerBatch measures the bit-sliced sampler on the
// same 100-qubit circuit as BenchmarkFrameSamplerShot. Each benchmark
// iteration is ONE SHOT (drawn 64 per word internally), so ns/op here
// divided into BenchmarkFrameSamplerShot's ns/op is the per-shot
// speedup the tentpole targets (>=10x).
func BenchmarkFrameSamplerBatch(b *testing.B) {
	c := NewCircuit(100)
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
	bs, err := NewBatchFrameSampler(c, 1)
	if err != nil {
		b.Fatal(err)
	}
	sink := uint64(0)
	fn := func(base, lanes int, cols []uint64) { sink ^= cols[0] }
	b.ReportAllocs()
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
}

// BenchmarkFrameSamplerBatchESM is the production shape: one ESM round
// block of the d=5 surface code with depolarizing and measurement
// noise, per-shot cost via the column API.
func BenchmarkFrameSamplerBatchESM(b *testing.B) {
	// Mirrors surface.Code.ESMCircuit(d, ...) without importing surface
	// (import cycle: surface -> stab): a CX ladder per "round" with
	// depolarizing noise on both qubits and noisy ancilla readout.
	const n = 49
	c := NewCircuit(n + 24)
	for r := 0; r < 5; r++ {
		for a := 0; a < 24; a++ {
			c.Reset(n + a)
			for k := 0; k < 4; k++ {
				d := (a*4 + k*7 + r) % n
				c.CX(d, n+a)
				c.Depolarize1(d, 0.001)
				c.Depolarize1(n+a, 0.001)
			}
			c.FlipX(n+a, 0.002)
			c.MeasureZ(n + a)
		}
	}
	bs, err := NewBatchFrameSampler(c, 1)
	if err != nil {
		b.Fatal(err)
	}
	sink := uint64(0)
	fn := func(base, lanes int, cols []uint64) { sink ^= cols[0] }
	b.ReportAllocs()
	b.ResetTimer()
	for done := 0; done < b.N; {
		m := b.N - done
		if m > 64 {
			m = 64
		}
		bs.SampleColumns(m, fn)
		done += m
	}
	if sink == 42 {
		b.Log("unreachable sink")
	}
}

// Reference returns a copy of the noiseless reference record. The copy
// keeps callers from aliasing internal state, so hot loops should call
// it once outside the loop — or use RefBit, which does not allocate.
func (fs *FrameSampler) Reference() []bool { return append([]bool(nil), fs.ref...) }

// RefBit returns bit i of the reference record without allocating.
func (fs *FrameSampler) RefBit(i int) bool { return fs.ref[i] }
