package statevec

import (
	"math"
	"testing"

	"xqsim/internal/pauli"
)

const eps = 1e-9

func approx(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func prod(s string) pauli.Product {
	pr, ok := pauli.ParseProduct(s)
	if !ok {
		panic("bad product " + s)
	}
	return pr
}

func TestBasisPreparation(t *testing.T) {
	s := New(2, 1)
	probs := s.Probabilities()
	if !approx(probs[0], 1) {
		t.Fatalf("initial state not |00>: %v", probs)
	}
	s.X(0)
	probs = s.Probabilities()
	if !approx(probs[1], 1) {
		t.Fatalf("X|00> != |01>: %v", probs)
	}
}

func TestHadamardAndMeasurementProb(t *testing.T) {
	s := New(1, 1)
	s.H(0)
	pr := prod("Z")
	if p := s.MeasureProductProb(pr); !approx(p, 0.5) {
		t.Fatalf("P(+|Z on |+>) = %v, want 0.5", p)
	}
	pr = prod("X")
	if p := s.MeasureProductProb(pr); !approx(p, 1) {
		t.Fatalf("P(+|X on |+>) = %v, want 1", p)
	}
}

func TestBellState(t *testing.T) {
	s := New(2, 1)
	s.H(0)
	s.CX(0, 1)
	if e := s.ExpectProduct(prod("ZZ")); !approx(e, 1) {
		t.Fatalf("<ZZ> = %v", e)
	}
	if e := s.ExpectProduct(prod("XX")); !approx(e, 1) {
		t.Fatalf("<XX> = %v", e)
	}
	if e := s.ExpectProduct(prod("YY")); !approx(e, -1) {
		t.Fatalf("<YY> = %v", e)
	}
}

func TestSTRZConsistency(t *testing.T) {
	// T^2 = S, S^2 = Z (up to global phase); check on |+>.
	a := New(1, 1)
	a.H(0)
	a.T(0)
	a.T(0)
	b := New(1, 1)
	b.H(0)
	b.S(0)
	if f := a.FidelityWith(b); !approx(f, 1) {
		t.Fatalf("T^2 != S: fidelity %v", f)
	}
	// RZ(pi/2) equals S up to global phase.
	c := New(1, 1)
	c.H(0)
	c.RZ(0, math.Pi/2)
	if f := c.FidelityWith(b); !approx(f, 1) {
		t.Fatalf("RZ(pi/2) != S: fidelity %v", f)
	}
}

func TestApplyProductYPhases(t *testing.T) {
	// Y|0> = i|1>, so applying Y twice returns to |0> with (i)(-i)=+1.
	s := New(1, 1)
	s.ApplyProduct(prod("Y"))
	if p := s.Probabilities(); !approx(p[1], 1) {
		t.Fatalf("Y|0> amplitude misplaced: %v", p)
	}
	s.ApplyProduct(prod("Y"))
	if a := s.Amplitude(0); !approx(real(a), 1) || !approx(imag(a), 0) {
		t.Fatalf("Y^2|0> = %v, want +|0>", a)
	}
}

func TestProductPhasePrefactor(t *testing.T) {
	// Applying -I should negate amplitudes.
	s := New(1, 1)
	pr := prod("I")
	pr.Phase = 2
	s.ApplyProduct(pr)
	if a := s.Amplitude(0); !approx(real(a), -1) {
		t.Fatalf("(-I)|0> = %v", a)
	}
}

func TestPPRIdentityAngle(t *testing.T) {
	// exp(-i*0*P) = identity.
	s := New(2, 1)
	s.H(0)
	before := s.Clone()
	s.ApplyPPR(0, prod("XZ"))
	if f := s.FidelityWith(before); !approx(f, 1) {
		t.Fatalf("PPR(0) changed the state: %v", f)
	}
}

func TestPPRHalfPiIsPauli(t *testing.T) {
	// exp(-i*pi/2*P) = -i P: same state up to global phase as applying P.
	s := New(2, 1)
	s.H(0)
	s.CX(0, 1)
	a := s.Clone()
	a.ApplyPPR(math.Pi/2, prod("XZ"))
	b := s.Clone()
	b.ApplyProduct(prod("XZ"))
	if f := a.FidelityWith(b); !approx(f, 1) {
		t.Fatalf("PPR(pi/2) != P up to phase: fidelity %v", f)
	}
}

func TestPPRZEqualsRZ(t *testing.T) {
	// exp(-i theta Z) == RZ(2 theta) up to global phase.
	for _, theta := range []float64{math.Pi / 8, math.Pi / 4, 0.3} {
		a := New(1, 1)
		a.H(0)
		a.ApplyPPR(theta, prod("Z"))
		b := New(1, 1)
		b.H(0)
		b.RZ(0, 2*theta)
		if f := a.FidelityWith(b); !approx(f, 1) {
			t.Fatalf("theta=%v: PPR_Z != RZ: fidelity %v", theta, f)
		}
	}
}

func TestCollapseProduct(t *testing.T) {
	s := New(2, 1)
	s.H(0)
	s.H(1)
	// Measure ZZ, collapse to +1: state becomes (|00>+|11>)/sqrt2.
	p := s.CollapseProduct(prod("ZZ"), false)
	if !approx(p, 0.5) {
		t.Fatalf("collapse prob = %v, want 0.5", p)
	}
	if e := s.ExpectProduct(prod("ZZ")); !approx(e, 1) {
		t.Fatalf("after collapse <ZZ> = %v", e)
	}
	if e := s.ExpectProduct(prod("XX")); !approx(e, 1) {
		t.Fatalf("after collapse <XX> = %v (should remain +1)", e)
	}
}

func TestMeasureCollapsesConsistently(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		s := New(2, seed)
		s.H(0)
		s.CX(0, 1)
		out := s.MeasureZ(0)
		// Qubit 1 must agree.
		pr := prod("IZ")
		e := s.ExpectProduct(pr)
		want := 1.0
		if out {
			want = -1
		}
		if !approx(e, want) {
			t.Fatalf("Bell collapse inconsistent: out=%v <IZ>=%v", out, e)
		}
	}
}

func TestPrepareResourceMagic(t *testing.T) {
	// |m> = (|0> + e^{i pi/4}|1>)/sqrt2 has <X> = cos(pi/4), <Y> = sin(pi/4).
	s := New(1, 1)
	s.PrepareResource(0, math.Pi/4)
	if e := s.ExpectProduct(prod("X")); !approx(e, math.Cos(math.Pi/4)) {
		t.Fatalf("<X> on |m> = %v", e)
	}
	if e := s.ExpectProduct(prod("Y")); !approx(e, math.Sin(math.Pi/4)) {
		t.Fatalf("<Y> on |m> = %v", e)
	}
	// theta = pi/2 gives |+i>, a Y eigenstate.
	s2 := New(1, 2)
	s2.PrepareResource(0, math.Pi/2)
	if e := s2.ExpectProduct(prod("Y")); !approx(e, 1) {
		t.Fatalf("<Y> on |+i> = %v", e)
	}
}

func TestMarginalDistribution(t *testing.T) {
	s := New(3, 1)
	s.H(0)
	s.CX(0, 2)
	// Qubits 0 and 2 perfectly correlated; qubit 1 fixed 0.
	d := s.MarginalDistribution([]int{0, 2})
	if !approx(d[0], 0.5) || !approx(d[3], 0.5) || !approx(d[1], 0) || !approx(d[2], 0) {
		t.Fatalf("marginal = %v", d)
	}
	d1 := s.MarginalDistribution([]int{1})
	if !approx(d1[0], 1) {
		t.Fatalf("qubit1 marginal = %v", d1)
	}
}

func TestTotalVariation(t *testing.T) {
	p := []float64{0.5, 0.5, 0, 0}
	q := []float64{0.25, 0.25, 0.25, 0.25}
	if d := TotalVariation(p, q); !approx(d, 0.5) {
		t.Fatalf("dTV = %v, want 0.5", d)
	}
	if d := TotalVariation(p, p); !approx(d, 0) {
		t.Fatalf("dTV self = %v", d)
	}
}

func TestPPRCommutingSequence(t *testing.T) {
	// Two commuting PPRs can be applied in either order.
	a := New(3, 1)
	a.H(0)
	a.H(1)
	a.H(2)
	b := a.Clone()
	p1 := prod("ZZI")
	p2 := prod("IZZ")
	a.ApplyPPR(math.Pi/8, p1)
	a.ApplyPPR(math.Pi/8, p2)
	b.ApplyPPR(math.Pi/8, p2)
	b.ApplyPPR(math.Pi/8, p1)
	if f := a.FidelityWith(b); !approx(f, 1) {
		t.Fatalf("commuting PPR order mattered: %v", f)
	}
}

func TestNormPreservation(t *testing.T) {
	s := New(4, 1)
	for q := 0; q < 4; q++ {
		s.H(q)
	}
	s.ApplyPPR(math.Pi/8, prod("XYZX"))
	s.CZ(0, 3)
	s.T(2)
	var norm float64
	for _, p := range s.Probabilities() {
		norm += p
	}
	if !approx(norm, 1) {
		t.Fatalf("norm = %v", norm)
	}
}

// Probabilities returns |amp|^2 for every basis state.
func (s *State) Probabilities() []float64 {
	out := make([]float64, len(s.amps))
	for i, a := range s.amps {
		out[i] = real(a)*real(a) + imag(a)*imag(a)
	}
	return out
}

// MeasureZ measures qubit q in the Z basis.
func (s *State) MeasureZ(q int) bool {
	pr := pauli.NewProduct(s.n)
	pr.Ops[q] = pauli.Z
	return s.MeasureProduct(pr)
}
