package pauli

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestPauliString(t *testing.T) {
	cases := map[Pauli]string{I: "I", X: "X", Z: "Z", Y: "Y"}
	for p, want := range cases {
		if got := p.String(); got != want {
			t.Errorf("Pauli(%d).String() = %q, want %q", p, got, want)
		}
	}
	if got := Pauli(7).String(); got != "?" {
		t.Errorf("invalid Pauli string = %q, want ?", got)
	}
}

func TestParsePauli(t *testing.T) {
	for _, c := range []struct {
		in   byte
		want Pauli
		ok   bool
	}{
		{'I', I, true}, {'X', X, true}, {'Z', Z, true}, {'Y', Y, true},
		{'i', I, true}, {'x', X, true}, {'z', Z, true}, {'y', Y, true},
		{'A', I, false}, {'0', I, false},
	} {
		got, ok := ParsePauli(c.in)
		if ok != c.ok || (ok && got != c.want) {
			t.Errorf("ParsePauli(%q) = %v,%v, want %v,%v", c.in, got, ok, c.want, c.ok)
		}
	}
}

func TestBits(t *testing.T) {
	if I.XBit() || I.ZBit() {
		t.Error("I should have no bits")
	}
	if !X.XBit() || X.ZBit() {
		t.Error("X bits wrong")
	}
	if Z.XBit() || !Z.ZBit() {
		t.Error("Z bits wrong")
	}
	if !Y.XBit() || !Y.ZBit() {
		t.Error("Y bits wrong")
	}
	for _, p := range []Pauli{I, X, Y, Z} {
		if FromBits(p.XBit(), p.ZBit()) != p {
			t.Errorf("FromBits round trip failed for %v", p)
		}
	}
}

func TestCommutes(t *testing.T) {
	all := []Pauli{I, X, Y, Z}
	for _, p := range all {
		for _, q := range all {
			want := p == I || q == I || p == q
			if got := p.Commutes(q); got != want {
				t.Errorf("%v.Commutes(%v) = %v, want %v", p, q, got, want)
			}
		}
	}
}

func TestMulTable(t *testing.T) {
	// X*Y = iZ, Y*X = -iZ, etc.
	cases := []struct {
		a, b, prod Pauli
		phase      uint8
	}{
		{X, Y, Z, 1}, {Y, X, Z, 3},
		{Y, Z, X, 1}, {Z, Y, X, 3},
		{Z, X, Y, 1}, {X, Z, Y, 3},
		{X, X, I, 0}, {Y, Y, I, 0}, {Z, Z, I, 0},
		{I, X, X, 0}, {Z, I, Z, 0},
	}
	for _, c := range cases {
		if got := c.a.Mul(c.b); got != c.prod {
			t.Errorf("%v*%v = %v, want %v", c.a, c.b, got, c.prod)
		}
		if got := mulPhase(c.a, c.b); got != c.phase {
			t.Errorf("phase(%v*%v) = %d, want %d", c.a, c.b, got, c.phase)
		}
	}
}

func TestProductParseString(t *testing.T) {
	pr, ok := ParseProduct("XIZY")
	if !ok {
		t.Fatal("parse failed")
	}
	if pr.String() != "XIZY" {
		t.Errorf("round trip = %q", pr.String())
	}
	if pr.Weight() != 3 {
		t.Errorf("weight = %d, want 3", pr.Weight())
	}
	if _, ok := ParseProduct("XQ"); ok {
		t.Error("parse of invalid string succeeded")
	}
	neg := pr.Clone()
	neg.Phase = 2
	if neg.String() != "-XIZY" {
		t.Errorf("negative string = %q", neg.String())
	}
}

func TestProductMulAssociativePhase(t *testing.T) {
	// (XX)*(ZZ) = (iY)(iY) = -YY
	a, _ := ParseProduct("XX")
	b, _ := ParseProduct("ZZ")
	c := a.Times(b)
	if c.String() != "-YY" {
		t.Errorf("XX*ZZ = %q, want -YY", c.String())
	}
	// Commuting: XX and ZZ commute (two anticommuting positions).
	if !a.Commutes(b) {
		t.Error("XX should commute with ZZ")
	}
	d, _ := ParseProduct("ZI")
	if a.Commutes(d) {
		t.Error("XX should anticommute with ZI")
	}
}

func randomProduct(r *rand.Rand, n int) Product {
	pr := NewProduct(n)
	for i := range pr.Ops {
		pr.Ops[i] = Pauli(r.Intn(4))
	}
	pr.Phase = uint8(r.Intn(4))
	return pr
}

func TestProductPropertyInvolution(t *testing.T) {
	// P*P is the identity with phase 0 or 2 depending on Y count parity:
	// each Y*Y contributes phase 0 in our convention (same Pauli), so P*P = +I.
	r := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		p := randomProduct(r, 8)
		p.Phase = 0
		sq := p.Times(p)
		if !sq.IsIdentity() || sq.Phase != 0 {
			t.Fatalf("P*P = %v, want +I", sq)
		}
	}
}

func TestProductPropertyCommutation(t *testing.T) {
	// P*Q = (+/-) Q*P, sign by commutation; check the ops always match and
	// the phase differs by 2 exactly when the products anticommute.
	r := rand.New(rand.NewSource(2))
	for trial := 0; trial < 500; trial++ {
		p := randomProduct(r, 6)
		q := randomProduct(r, 6)
		pq := p.Times(q)
		qp := q.Times(p)
		for i := range pq.Ops {
			if pq.Ops[i] != qp.Ops[i] {
				t.Fatalf("ops mismatch at %d: %v vs %v", i, pq, qp)
			}
		}
		wantDiff := uint8(0)
		if !p.Commutes(q) {
			wantDiff = 2
		}
		if (pq.Phase-qp.Phase)&3 != wantDiff {
			t.Fatalf("phase diff = %d, want %d (p=%v q=%v)", (pq.Phase-qp.Phase)&3, wantDiff, p, q)
		}
	}
}

func TestProductMulAssociativity(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for trial := 0; trial < 300; trial++ {
		a := randomProduct(r, 5)
		b := randomProduct(r, 5)
		c := randomProduct(r, 5)
		left := a.Times(b).Times(c)
		right := a.Times(b.Times(c))
		if left.String() != right.String() {
			t.Fatalf("(ab)c = %v != a(bc) = %v", left, right)
		}
	}
}

func TestProductLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on length mismatch")
		}
	}()
	a := NewProduct(2)
	b := NewProduct(3)
	a.Mul(b)
}

func TestFrameUpdateAndFlip(t *testing.T) {
	f := NewFrame(4)
	f.Update(1, X)
	f.Update(2, Z)
	f.Update(3, X)
	f.Update(3, Z) // accumulates to Y
	if f.Get(0) != I || f.Get(1) != X || f.Get(2) != Z || f.Get(3) != Y {
		t.Fatalf("frame = %v", f.Ops)
	}
	// X record flips Z measurement, not X measurement.
	if !f.FlipsMeasurement(1, Z) || f.FlipsMeasurement(1, X) {
		t.Error("X record flip behaviour wrong")
	}
	// Z record flips X measurement, not Z.
	if !f.FlipsMeasurement(2, X) || f.FlipsMeasurement(2, Z) {
		t.Error("Z record flip behaviour wrong")
	}
	// Y record flips both X and Z, but not Y.
	if !f.FlipsMeasurement(3, X) || !f.FlipsMeasurement(3, Z) || f.FlipsMeasurement(3, Y) {
		t.Error("Y record flip behaviour wrong")
	}
	// X and Z records flip Y measurements.
	if !f.FlipsMeasurement(1, Y) || !f.FlipsMeasurement(2, Y) {
		t.Error("Y-basis flip behaviour wrong")
	}
}

func TestFrameConjugation(t *testing.T) {
	// H swaps X and Z records.
	f := NewFrame(2)
	f.Update(0, X)
	f.ConjugateByGate("H", 0, -1)
	if f.Get(0) != Z {
		t.Errorf("H conj: got %v, want Z", f.Get(0))
	}
	f.ConjugateByGate("H", 0, -1)
	if f.Get(0) != X {
		t.Errorf("H conj twice: got %v, want X", f.Get(0))
	}
	// S: X -> Y, Y -> X (mod phase), Z fixed.
	f2 := NewFrame(1)
	f2.Update(0, X)
	f2.ConjugateByGate("S", 0, -1)
	if f2.Get(0) != Y {
		t.Errorf("S conj X: got %v, want Y", f2.Get(0))
	}
	f2.ConjugateByGate("S", 0, -1)
	if f2.Get(0) != X {
		t.Errorf("S conj Y: got %v, want X", f2.Get(0))
	}
	// CX propagates X from control to target and Z from target to control.
	f3 := NewFrame(2)
	f3.Update(0, X)
	f3.ConjugateByGate("CX", 0, 1)
	if f3.Get(0) != X || f3.Get(1) != X {
		t.Errorf("CX conj X_c: %v", f3.Ops)
	}
	f4 := NewFrame(2)
	f4.Update(1, Z)
	f4.ConjugateByGate("CX", 0, 1)
	if f4.Get(0) != Z || f4.Get(1) != Z {
		t.Errorf("CX conj Z_t: %v", f4.Ops)
	}
	// CZ propagates X on either side to Z on the other.
	f5 := NewFrame(2)
	f5.Update(0, X)
	f5.ConjugateByGate("CZ", 0, 1)
	if f5.Get(0) != X || f5.Get(1) != Z {
		t.Errorf("CZ conj X_c: %v", f5.Ops)
	}
}

func TestFrameConjugationInvolutions(t *testing.T) {
	// H twice and CX twice are identity on frames; verify over all records.
	r := rand.New(rand.NewSource(4))
	for trial := 0; trial < 100; trial++ {
		f := NewFrame(2)
		f.Ops[0] = Pauli(r.Intn(4))
		f.Ops[1] = Pauli(r.Intn(4))
		orig := append([]Pauli(nil), f.Ops...)
		f.ConjugateByGate("CX", 0, 1)
		f.ConjugateByGate("CX", 0, 1)
		if f.Ops[0] != orig[0] || f.Ops[1] != orig[1] {
			t.Fatalf("CX not involutive on %v", orig)
		}
		f.ConjugateByGate("CZ", 0, 1)
		f.ConjugateByGate("CZ", 0, 1)
		if f.Ops[0] != orig[0] || f.Ops[1] != orig[1] {
			t.Fatalf("CZ not involutive on %v", orig)
		}
	}
}

func TestQuickMulClosure(t *testing.T) {
	// Multiplication never leaves the Pauli group encoding.
	f := func(a, b uint8) bool {
		p := Pauli(a % 4)
		q := Pauli(b % 4)
		return p.Mul(q).Valid()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Valid reports whether p is one of the four Pauli operators.
func (p Pauli) Valid() bool { return p <= Y }

// Get returns the recorded Pauli on qubit q.
func (f Frame) Get(q int) Pauli { return f.Ops[q] }
