package stab

import (
	"math/rand"
	"testing"

	"xqsim/internal/pauli"
)

func zOps(qs ...int) ([]int, []pauli.Pauli) {
	ops := make([]pauli.Pauli, len(qs))
	for i := range ops {
		ops[i] = pauli.Z
	}
	return qs, ops
}

func xOps(qs ...int) ([]int, []pauli.Pauli) {
	ops := make([]pauli.Pauli, len(qs))
	for i := range ops {
		ops[i] = pauli.X
	}
	return qs, ops
}

func TestInitialState(t *testing.T) {
	tb := New(3, 1)
	for q := 0; q < 3; q++ {
		out, det := tb.MeasureZ(q)
		if !det || out {
			t.Errorf("qubit %d: initial MeasureZ = %v det=%v, want deterministic 0", q, out, det)
		}
	}
	if err := tb.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestXFlipsMeasurement(t *testing.T) {
	tb := New(2, 1)
	tb.X(0)
	out, det := tb.MeasureZ(0)
	if !det || !out {
		t.Errorf("after X, MeasureZ = %v det=%v, want deterministic 1", out, det)
	}
	out, det = tb.MeasureZ(1)
	if !det || out {
		t.Errorf("untouched qubit flipped")
	}
}

func TestHadamardRandomness(t *testing.T) {
	// H|0> measured in Z must give ~50/50 over many fresh states.
	ones := 0
	for seed := int64(0); seed < 200; seed++ {
		tb := New(1, seed)
		tb.H(0)
		out, det := tb.MeasureZ(0)
		if det {
			t.Fatal("H|0> Z-measurement should be random")
		}
		if out {
			ones++
		}
	}
	if ones < 60 || ones > 140 {
		t.Errorf("H|0> measured 1 %d/200 times; expected near 100", ones)
	}
}

func TestMeasurementRepeatable(t *testing.T) {
	tb := New(1, 7)
	tb.H(0)
	first, _ := tb.MeasureZ(0)
	for i := 0; i < 5; i++ {
		out, det := tb.MeasureZ(0)
		if !det || out != first {
			t.Fatalf("repeat measurement %d: %v det=%v, want %v det=true", i, out, det, first)
		}
	}
}

func TestBellStateCorrelations(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		tb := New(2, seed)
		tb.H(0)
		tb.CX(0, 1)
		// ZZ and XX are stabilizers: both deterministic +1.
		qs, ops := zOps(0, 1)
		if v := tb.ExpectProduct(qs, ops); v != 1 {
			t.Fatalf("Bell ZZ expectation = %d, want +1", v)
		}
		qs, ops = xOps(0, 1)
		if v := tb.ExpectProduct(qs, ops); v != 1 {
			t.Fatalf("Bell XX expectation = %d, want +1", v)
		}
		// Individual Z is random but correlated.
		m0, det := tb.MeasureZ(0)
		if det {
			t.Fatal("Bell single-qubit measurement should be random")
		}
		m1, det1 := tb.MeasureZ(1)
		if !det1 || m1 != m0 {
			t.Fatalf("Bell correlation broken: %v then %v (det=%v)", m0, m1, det1)
		}
	}
}

func TestGHZParity(t *testing.T) {
	tb := New(5, 3)
	tb.H(0)
	for q := 1; q < 5; q++ {
		tb.CX(0, q)
	}
	// X^5 is a stabilizer.
	qs, ops := xOps(0, 1, 2, 3, 4)
	if v := tb.ExpectProduct(qs, ops); v != 1 {
		t.Fatalf("GHZ X^5 expectation = %d, want +1", v)
	}
	// All Z outcomes equal.
	first, _ := tb.MeasureZ(0)
	for q := 1; q < 5; q++ {
		out, det := tb.MeasureZ(q)
		if !det || out != first {
			t.Fatalf("GHZ collapse broken at qubit %d", q)
		}
	}
	if err := tb.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestCZEquivalence(t *testing.T) {
	// CZ = H_t CX H_t; verify by stabilizer effect on X_c.
	tb := New(2, 1)
	tb.H(0) // state |+0>
	tb.CZ(0, 1)
	// Stabilizers now X0 Z1 and Z1-ish: measure X0Z1 deterministic +1.
	out := tb.ExpectProduct([]int{0, 1}, []pauli.Pauli{pauli.X, pauli.Z})
	if out != 1 {
		t.Fatalf("after CZ on |+0>, X0Z1 expectation = %d, want +1", out)
	}
}

func TestSGate(t *testing.T) {
	// S|+> = |+i>, which is the +1 eigenstate of Y.
	tb := New(1, 1)
	tb.H(0)
	tb.S(0)
	if v := tb.ExpectProduct([]int{0}, []pauli.Pauli{pauli.Y}); v != 1 {
		t.Fatalf("S|+> Y expectation = %d, want +1", v)
	}
	// S twice = Z: S^2|+> = |->.
	tb2 := New(1, 1)
	tb2.H(0)
	tb2.S(0)
	tb2.S(0)
	if v := tb2.ExpectProduct([]int{0}, []pauli.Pauli{pauli.X}); v != -1 {
		t.Fatalf("S^2|+> X expectation = %d, want -1", v)
	}
}

func TestYPreparationViaMeasurement(t *testing.T) {
	// Measuring Y on |0> collapses to a Y eigenstate matching the outcome.
	for seed := int64(0); seed < 40; seed++ {
		tb := New(1, seed)
		out, det := tb.MeasureProduct([]int{0}, []pauli.Pauli{pauli.Y})
		if det {
			t.Fatal("Y measurement of |0> should be random")
		}
		want := 1
		if out {
			want = -1
		}
		if v := tb.ExpectProduct([]int{0}, []pauli.Pauli{pauli.Y}); v != want {
			t.Fatalf("Y eigenstate mismatch: outcome %v but expectation %d", out, v)
		}
	}
}

func TestReset(t *testing.T) {
	tb := New(2, 5)
	tb.H(0)
	tb.CX(0, 1)
	tb.Reset(0)
	out, det := tb.MeasureZ(0)
	if !det || out {
		t.Fatal("Reset did not restore |0>")
	}
}

// TestRandomBitMatchesRandomMeasurement pins RandomBit's premise: it draws
// exactly the bit a random-outcome measurement draws, so a caller can
// stand in for a measurement of an untracked |+> qubit without shifting
// the stream. The twins take turns drawing with RandomBit while the other
// measures a freshly Hadamard-ed qubit, then keep measuring in lockstep.
func TestRandomBitMatchesRandomMeasurement(t *testing.T) {
	twins := [2]*Tableau{New(3, 21), New(3, 21)}
	for i := 0; i < 1000; i++ {
		drawer, meter := twins[i%2], twins[1-i%2]
		meter.H(i % 3)
		out, det := meter.MeasureZ(i % 3)
		if det {
			t.Fatalf("draw %d: measurement after H was deterministic", i)
		}
		if got := drawer.RandomBit(); got != out {
			t.Fatalf("draw %d: RandomBit %v, random measurement %v", i, got, out)
		}
	}
	for i := 0; i < 64; i++ {
		var outs [2]bool
		for k, tb := range twins {
			tb.H(0)
			outs[k], _ = tb.MeasureZ(0)
		}
		if outs[0] != outs[1] {
			t.Fatalf("measurement %d after the draws: twins disagree", i)
		}
	}
}

func TestProductMeasurementJointParity(t *testing.T) {
	// Measure ZZ on |++>: random, then XX still has definite parity
	// history: after ZZ measurement, state is a Bell pair (up to sign).
	for seed := int64(0); seed < 30; seed++ {
		tb := New(2, seed)
		tb.H(0)
		tb.H(1)
		zz, det := tb.MeasureProduct([]int{0, 1}, []pauli.Pauli{pauli.Z, pauli.Z})
		if det {
			t.Fatal("ZZ on |++> should be random")
		}
		// XX was a stabilizer of |++> and commutes with ZZ: still +1.
		if v := tb.ExpectProduct([]int{0, 1}, []pauli.Pauli{pauli.X, pauli.X}); v != 1 {
			t.Fatal("XX expectation lost after commuting ZZ measurement")
		}
		// Repeat ZZ: deterministic, same value.
		zz2, det2 := tb.MeasureProduct([]int{0, 1}, []pauli.Pauli{pauli.Z, pauli.Z})
		if !det2 || zz2 != zz {
			t.Fatal("ZZ not repeatable")
		}
	}
}

func TestErrorPropagationThroughCX(t *testing.T) {
	// X on control before CX propagates to both qubits.
	tb := New(2, 1)
	tb.X(0)
	tb.CX(0, 1)
	for q := 0; q < 2; q++ {
		out, det := tb.MeasureZ(q)
		if !det || !out {
			t.Fatalf("qubit %d should be |1> after propagated X", q)
		}
	}
}

func TestInvariantsUnderRandomCircuits(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		n := 2 + r.Intn(8)
		tb := New(n, int64(trial))
		for step := 0; step < 100; step++ {
			switch r.Intn(5) {
			case 0:
				tb.H(r.Intn(n))
			case 1:
				tb.S(r.Intn(n))
			case 2:
				a, b := r.Intn(n), r.Intn(n)
				if a != b {
					tb.CX(a, b)
				}
			case 3:
				tb.ApplyPauli(r.Intn(n), pauli.Pauli(r.Intn(4)))
			case 4:
				tb.MeasureZ(r.Intn(n))
			}
		}
		if err := tb.CheckInvariants(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

func TestDeterministicExpectationMatchesMeasurement(t *testing.T) {
	// For random stabilizer states, ExpectProduct of a stabilizer row must
	// equal +1 (definition) and MeasureProduct must agree without
	// disturbing the state.
	r := rand.New(rand.NewSource(13))
	for trial := 0; trial < 20; trial++ {
		n := 3 + r.Intn(5)
		tb := New(n, int64(trial*7+1))
		for step := 0; step < 60; step++ {
			switch r.Intn(3) {
			case 0:
				tb.H(r.Intn(n))
			case 1:
				tb.S(r.Intn(n))
			case 2:
				a, b := r.Intn(n), r.Intn(n)
				if a != b {
					tb.CX(a, b)
				}
			}
		}
		row := tb.StabilizerRow(r.Intn(n))
		var qs []int
		var ops []pauli.Pauli
		for q, p := range row.Ops {
			if p != pauli.I {
				qs = append(qs, q)
				ops = append(ops, p)
			}
		}
		if len(qs) == 0 {
			continue
		}
		want := row.Phase == 2 // negative sign means outcome 1
		out, det := tb.MeasureProduct(qs, ops)
		if !det || out != want {
			t.Fatalf("stabilizer row measurement: out=%v det=%v want=%v", out, det, want)
		}
	}
}

func TestStabilizerRowOfBell(t *testing.T) {
	tb := New(2, 2)
	tb.H(0)
	tb.CX(0, 1)
	// The stabilizer group must be generated by {XX, ZZ} up to products.
	found := map[string]bool{}
	for i := 0; i < 2; i++ {
		found[tb.StabilizerRow(i).String()] = true
	}
	// Generators may appear as XX/ZZ or products like -YY; check group
	// membership by measuring.
	if v := tb.ExpectProduct([]int{0, 1}, []pauli.Pauli{pauli.X, pauli.X}); v != 1 {
		t.Error("XX not in stabilizer group")
	}
	if v := tb.ExpectProduct([]int{0, 1}, []pauli.Pauli{pauli.Z, pauli.Z}); v != 1 {
		t.Error("ZZ not in stabilizer group")
	}
	if v := tb.ExpectProduct([]int{0, 1}, []pauli.Pauli{pauli.Y, pauli.Y}); v != -1 {
		t.Error("YY should be -1 for Bell state")
	}
}

func TestLargeTableauSmoke(t *testing.T) {
	// Exercise the bit-packing across word boundaries: 130 qubits GHZ.
	n := 130
	tb := New(n, 9)
	tb.H(0)
	for q := 1; q < n; q++ {
		tb.CX(q-1, q)
	}
	qs := make([]int, n)
	ops := make([]pauli.Pauli, n)
	for q := 0; q < n; q++ {
		qs[q] = q
		ops[q] = pauli.X
	}
	if v := tb.ExpectProduct(qs, ops); v != 1 {
		t.Fatalf("GHZ(%d) X^n expectation = %d, want +1", n, v)
	}
	first, _ := tb.MeasureZ(0)
	out, det := tb.MeasureZ(n - 1)
	if !det || out != first {
		t.Fatal("GHZ long-range correlation broken")
	}
	if err := tb.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkMeasureProduct625(b *testing.B) {
	// Representative of the QAOA validation scale (25 patches x 25 data qubits).
	n := 625
	tb := New(n, 1)
	for q := 0; q < n; q++ {
		tb.H(q)
	}
	qs := []int{10, 11, 12, 13}
	ops := []pauli.Pauli{pauli.Z, pauli.Z, pauli.Z, pauli.Z}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tb.MeasureProduct(qs, ops)
	}
}
