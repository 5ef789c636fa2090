// Package statevec implements a small dense state-vector simulator.
//
// It substitutes for Qiskit in the paper's Table-3 validation: the ideal
// logical-level reference distribution of each benchmark is computed here
// (exactly, by branching over measurement outcomes), and compared against
// the XQ-simulator's noisy physical-level sampling via total variation
// distance.
//
// The simulator supports arbitrary Pauli-product measurements and
// Pauli-product rotations exp(-i*theta*P), which are the primitives of the
// lattice-surgery execution model. It is intended for <= ~16 qubits.
package statevec

import (
	"math"
	"math/cmplx"

	"xqsim/internal/pauli"
	"xqsim/internal/xrand"
)

// State is a dense n-qubit pure state. Qubit 0 is the least significant
// index bit.
type State struct {
	n    int
	amps []complex128
	rng  *xrand.Rand
}

// New returns |0...0> on n qubits.
func New(n int, seed int64) *State {
	if n < 1 || n > 24 {
		//xqlint:ignore nopanic constructor precondition: functional runs pass core.CheckRun (at most MaxRunLQ=20 logical qubits, 22 with the protocol oracle's resource slots) before a reference is built; the verify oracles draw at most 6 qubits
		panic("statevec: qubit count out of supported range")
	}
	s := &State{n: n, amps: make([]complex128, 1<<uint(n)), rng: xrand.New(seed)}
	s.amps[0] = 1
	return s
}

// N returns the number of qubits.
func (s *State) N() int { return s.n }

// Clone returns a deep copy sharing no state (the clone gets a derived RNG).
func (s *State) Clone() *State {
	c := &State{n: s.n, amps: make([]complex128, len(s.amps)), rng: xrand.New(s.rng.Int63())}
	copy(c.amps, s.amps)
	return c
}

// Amplitude returns the amplitude of the given basis index.
func (s *State) Amplitude(idx int) complex128 { return s.amps[idx] }

// apply1 applies a single-qubit unitary [[a,b],[c,d]] to qubit q.
func (s *State) apply1(q int, a, b, c, d complex128) {
	bit := 1 << uint(q)
	for i := 0; i < len(s.amps); i++ {
		if i&bit == 0 {
			j := i | bit
			u, v := s.amps[i], s.amps[j]
			s.amps[i] = a*u + b*v
			s.amps[j] = c*u + d*v
		}
	}
}

const invSqrt2 = 1 / math.Sqrt2

// H applies a Hadamard to qubit q.
func (s *State) H(q int) {
	s.apply1(q, complex(invSqrt2, 0), complex(invSqrt2, 0), complex(invSqrt2, 0), complex(-invSqrt2, 0))
}

// S applies the phase gate diag(1, i).
func (s *State) S(q int) { s.apply1(q, 1, 0, 0, complex(0, 1)) }

// T applies diag(1, e^{i pi/4}).
func (s *State) T(q int) { s.apply1(q, 1, 0, 0, cmplx.Exp(complex(0, math.Pi/4))) }

// RZ applies diag(e^{-i theta/2}, e^{i theta/2}).
func (s *State) RZ(q int, theta float64) {
	s.apply1(q, cmplx.Exp(complex(0, -theta/2)), 0, 0, cmplx.Exp(complex(0, theta/2)))
}

// X applies Pauli X to qubit q.
func (s *State) X(q int) { s.apply1(q, 0, 1, 1, 0) }

// Y applies Pauli Y to qubit q.
func (s *State) Y(q int) { s.apply1(q, 0, complex(0, -1), complex(0, 1), 0) }

// Z applies Pauli Z to qubit q.
func (s *State) Z(q int) { s.apply1(q, 1, 0, 0, -1) }

// CX applies a controlled-X with control c and target t.
func (s *State) CX(c, t int) {
	cb, tb := 1<<uint(c), 1<<uint(t)
	for i := 0; i < len(s.amps); i++ {
		if i&cb != 0 && i&tb == 0 {
			j := i | tb
			s.amps[i], s.amps[j] = s.amps[j], s.amps[i]
		}
	}
}

// CZ applies a controlled-Z between qubits a and b.
func (s *State) CZ(a, b int) {
	ab := (1 << uint(a)) | (1 << uint(b))
	for i := 0; i < len(s.amps); i++ {
		if i&ab == ab {
			s.amps[i] = -s.amps[i]
		}
	}
}

// PrepareResource sets qubit q (which must currently be |0>) to the state
// (|0> + e^{i theta} |1>)/sqrt(2). theta = pi/4 gives the magic state |m>;
// theta = pi/2 gives the stabilizer state |+i>.
func (s *State) PrepareResource(q int, theta float64) {
	s.H(q)
	s.apply1(q, 1, 0, 0, cmplx.Exp(complex(0, theta)))
}

// applyProduct multiplies the state by the Pauli product P (in place),
// including the phase from each Y factor (Y = [[0,-i],[i,0]]).
func (s *State) applyProduct(pr pauli.Product) {
	if pr.Len() != s.n {
		//xqlint:ignore nopanic unreachable guard: products are sized to the state by their builders
		panic("statevec: product length mismatch")
	}
	var xMask, zMask, yCount int
	for q, p := range pr.Ops {
		if p.XBit() {
			xMask |= 1 << uint(q)
		}
		if p.ZBit() {
			zMask |= 1 << uint(q)
		}
		if p == pauli.Y {
			yCount++
		}
	}
	// Global phase from Y factors: each Y contributes i to the |1>->|0>
	// entry bookkeeping; handled per basis state below. Apply the product
	// by permuting amplitudes (X part) and phasing (Z/Y part).
	out := make([]complex128, len(s.amps))
	phasePow := []complex128{1, complex(0, 1), -1, complex(0, -1)}
	_ = phasePow
	for i, a := range s.amps {
		//xqlint:ignore floateq exact sentinel: skips exactly-zero amplitudes, a pure optimization
		if a == 0 {
			continue
		}
		j := i ^ xMask
		// Z part: phase (-1)^{popcount(i & zMask)} acting before flip...
		// Convention: P|i> = phase * |i ^ xMask> where for each qubit:
		//   X|b> = |b^1>
		//   Z|b> = (-1)^b |b>
		//   Y|b> = i(-1)^b |b^1>
		ph := complex(1, 0)
		for q, p := range pr.Ops {
			bit := (i >> uint(q)) & 1
			switch p {
			case pauli.I, pauli.X:
				// X contributes no phase here: the index flip is applied
				// through xMask after the loop.
			case pauli.Z:
				if bit == 1 {
					ph = -ph
				}
			case pauli.Y:
				if bit == 1 {
					ph *= complex(0, -1)
				} else {
					ph *= complex(0, 1)
				}
			}
		}
		out[j] += ph * a
	}
	// Phase prefactor i^Phase of the product itself.
	pref := [4]complex128{1, complex(0, 1), -1, complex(0, -1)}[pr.Phase&3]
	for i := range out {
		out[i] *= pref
	}
	s.amps = out
}

// ApplyProduct multiplies the state by the Pauli product P.
func (s *State) ApplyProduct(pr pauli.Product) { s.applyProduct(pr) }

// ApplyPPR applies the Pauli-product rotation exp(-i*theta*P):
// cos(theta) I - i sin(theta) P. The paper's PPR(pi/8) corresponds to
// theta = pi/8 and PPR(pi/4) (the stabilizer-substituted validation form)
// to theta = pi/4; PPR(pi/2) is the Pauli byproduct itself.
func (s *State) ApplyPPR(theta float64, pr pauli.Product) {
	saved := make([]complex128, len(s.amps))
	copy(saved, s.amps)
	s.applyProduct(pr)
	c := complex(math.Cos(theta), 0)
	ms := complex(0, -math.Sin(theta))
	for i := range s.amps {
		s.amps[i] = c*saved[i] + ms*s.amps[i]
	}
}

// ExpectProduct returns <psi|P|psi> (real part; P is Hermitian for
// phase-0 products with an even number of i factors handled internally).
func (s *State) ExpectProduct(pr pauli.Product) float64 {
	c := s.Clone()
	c.applyProduct(pr)
	var acc complex128
	for i := range s.amps {
		acc += cmplx.Conj(s.amps[i]) * c.amps[i]
	}
	return real(acc)
}

// MeasureProductProb returns the probability of outcome +1 when measuring
// the Hermitian Pauli product P.
func (s *State) MeasureProductProb(pr pauli.Product) float64 {
	return (1 + s.ExpectProduct(pr)) / 2
}

// CollapseProduct projects the state onto the (+1 if outcome==false,
// -1 if outcome==true) eigenspace of P and renormalizes. It returns the
// probability the outcome had; collapsing onto a zero-probability branch
// leaves the state unchanged and returns 0.
func (s *State) CollapseProduct(pr pauli.Product, outcome bool) float64 {
	c := s.Clone()
	c.applyProduct(pr)
	sign := complex(1, 0)
	if outcome {
		sign = -1
	}
	var norm float64
	for i := range s.amps {
		s.amps[i] = (s.amps[i] + sign*c.amps[i]) / 2
		norm += real(s.amps[i])*real(s.amps[i]) + imag(s.amps[i])*imag(s.amps[i])
	}
	if norm < 1e-12 {
		copy(s.amps, c.amps) // degenerate branch; caller checks prob
		return 0
	}
	inv := complex(1/math.Sqrt(norm), 0)
	for i := range s.amps {
		s.amps[i] *= inv
	}
	return norm
}

// MeasureProduct samples an outcome for the product measurement, collapses
// the state, and returns the outcome (false => +1).
func (s *State) MeasureProduct(pr pauli.Product) bool {
	p := s.MeasureProductProb(pr)
	out := s.rng.Float64() >= p
	s.CollapseProduct(pr, out)
	return out
}

// MarginalDistribution returns the probability of each assignment of the
// listed qubits measured in the Z basis (index bit k of the result
// corresponds to qubits[k]).
func (s *State) MarginalDistribution(qubits []int) []float64 {
	out := make([]float64, 1<<uint(len(qubits)))
	for i, a := range s.amps {
		p := real(a)*real(a) + imag(a)*imag(a)
		//xqlint:ignore floateq exact sentinel: skips exactly-zero probabilities, a pure optimization
		if p == 0 {
			continue
		}
		key := 0
		for k, q := range qubits {
			if i&(1<<uint(q)) != 0 {
				key |= 1 << uint(k)
			}
		}
		out[key] += p
	}
	return out
}

// FidelityWith returns |<a|b>|^2.
func (s *State) FidelityWith(o *State) float64 {
	if s.n != o.n {
		//xqlint:ignore nopanic API-misuse guard: fidelity compares states of one machine size
		panic("statevec: qubit count mismatch")
	}
	var acc complex128
	for i := range s.amps {
		acc += cmplx.Conj(s.amps[i]) * o.amps[i]
	}
	return real(acc)*real(acc) + imag(acc)*imag(acc)
}

// TotalVariation computes the total variation distance between two
// distributions of equal length: 0.5 * sum |p - q|.
func TotalVariation(p, q []float64) float64 {
	if len(p) != len(q) {
		//xqlint:ignore nopanic API-misuse guard: distributions share one basis enumeration
		panic("statevec: distribution length mismatch")
	}
	var d float64
	for i := range p {
		d += math.Abs(p[i] - q[i])
	}
	return d / 2
}
