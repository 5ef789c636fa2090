package compiler

import (
	"fmt"

	"xqsim/internal/ftqc"
	"xqsim/internal/isa"
	"xqsim/internal/pauli"
	"xqsim/internal/xrand"
)

// Builder accumulates rotations for a circuit, providing the standard
// Clifford+T gate set in the Litinski PPR normal form. Every gate is a
// short sequence of pi/8, pi/4, and pi/2 Pauli product rotations (up to
// global phase), which is exactly the form the control processor executes.
type Builder struct {
	c Circuit
}

// NewBuilder starts a circuit over nLQ data qubits.
func NewBuilder(name string, nLQ int) *Builder {
	return &Builder{c: Circuit{NLQ: nLQ, Name: name}}
}

// InitPlus initializes qubit q to |+> (must be called before any gate).
func (b *Builder) InitPlus(q int) *Builder {
	if b.c.Init == nil {
		b.c.Init = make([]isa.LQMark, b.c.NLQ)
	}
	b.c.Init[q] = isa.MarkPlus
	return b
}

// Rotate appends PPR(angle, P) with P given as single-qubit factors.
func (b *Builder) Rotate(angle ftqc.Angle, neg bool, factors map[int]pauli.Pauli) *Builder {
	p := pauli.NewProduct(b.c.NLQ)
	//xqlint:ignore maprange each factor writes its own slot of a dense product; order cannot matter
	for q, op := range factors {
		if q < 0 || q >= b.c.NLQ {
			//xqlint:ignore nopanic API-misuse guard: Builder callers pass literal qubit indices
			panic(fmt.Sprintf("compiler: qubit %d out of range", q))
		}
		p.Ops[q] = op
	}
	b.c.Rotations = append(b.c.Rotations, ftqc.Rotation{P: p, Angle: angle, Neg: neg})
	return b
}

func (b *Builder) rot1(angle ftqc.Angle, neg bool, q int, op pauli.Pauli) *Builder {
	return b.Rotate(angle, neg, map[int]pauli.Pauli{q: op})
}

// H appends a Hadamard: Rz(pi/2) Rx(pi/2) Rz(pi/2) up to global phase,
// i.e. three pi/4 rotations.
func (b *Builder) H(q int) *Builder {
	return b.rot1(ftqc.AnglePi4, false, q, pauli.Z).
		rot1(ftqc.AnglePi4, false, q, pauli.X).
		rot1(ftqc.AnglePi4, false, q, pauli.Z)
}

// S appends the phase gate: PPR(pi/4, Z).
func (b *Builder) S(q int) *Builder { return b.rot1(ftqc.AnglePi4, false, q, pauli.Z) }

// T appends PPR(pi/8, Z) (the non-Clifford T gate up to phase).
func (b *Builder) T(q int) *Builder { return b.rot1(ftqc.AnglePi8, false, q, pauli.Z) }

// X appends a Pauli X (a tracked pi/2 rotation).
func (b *Builder) X(q int) *Builder { return b.rot1(ftqc.AnglePi2, false, q, pauli.X) }

// Z appends a Pauli Z.
func (b *Builder) Z(q int) *Builder { return b.rot1(ftqc.AnglePi2, false, q, pauli.Z) }

// CZ appends a controlled-Z:
// exp(-i pi/4 Z_a) exp(-i pi/4 Z_b) exp(+i pi/4 Z_a Z_b) up to phase.
func (b *Builder) CZ(a, q int) *Builder {
	return b.rot1(ftqc.AnglePi4, false, a, pauli.Z).
		rot1(ftqc.AnglePi4, false, q, pauli.Z).
		Rotate(ftqc.AnglePi4, true, map[int]pauli.Pauli{a: pauli.Z, q: pauli.Z})
}

// CX appends a controlled-X (control c, target t) via H-conjugated CZ.
func (b *Builder) CX(c, t int) *Builder {
	return b.H(t).CZ(c, t).H(t)
}

// CS appends a controlled-S (the QFT's controlled-phase(pi/2)):
// exp(-i pi/8 Z_a) exp(-i pi/8 Z_b) exp(+i pi/8 Z_a Z_b) up to phase.
func (b *Builder) CS(a, q int) *Builder {
	return b.rot1(ftqc.AnglePi8, false, a, pauli.Z).
		rot1(ftqc.AnglePi8, false, q, pauli.Z).
		Rotate(ftqc.AnglePi8, true, map[int]pauli.Pauli{a: pauli.Z, q: pauli.Z})
}

// Circuit returns the accumulated circuit.
func (b *Builder) Circuit() Circuit { return b.c }

// RandomPPR generates the paper's scalability workload: count random
// PPR(pi/8) rotations over nLQ logical qubits, with uniformly drawn
// non-identity Pauli products. With nLQ < 1 there is no such product,
// and the circuit has no rotations.
func RandomPPR(nLQ, count int, seed int64) Circuit {
	r := xrand.New(seed)
	c := Circuit{NLQ: nLQ, Name: fmt.Sprintf("random-ppr-%dx%d", nLQ, count)}
	for i := 0; i < count && nLQ > 0; i++ {
		p := pauli.NewProduct(nLQ)
		for {
			for q := 0; q < nLQ; q++ {
				p.Ops[q] = pauli.Pauli(r.Intn(4))
			}
			if !p.IsIdentity() {
				break
			}
		}
		c.Rotations = append(c.Rotations, ftqc.Rotation{P: p, Angle: ftqc.AnglePi8})
	}
	return c
}

// SinglePPR builds one rotation from a product string such as "ZZI",
// matching the paper's PPR validation benchmarks (Table 3).
func SinglePPR(product string, angle ftqc.Angle) Circuit {
	p, ok := pauli.ParseProduct(product)
	if !ok {
		//xqlint:ignore nopanic API-misuse guard: SinglePPR takes compile-time Pauli strings
		panic("compiler: bad product " + product)
	}
	return Circuit{
		NLQ:       p.Len(),
		Name:      fmt.Sprintf("ppr-%s", product),
		Rotations: []ftqc.Rotation{{P: p, Angle: angle}},
	}
}

// QFT2 builds the 2-qubit quantum Fourier transform in PPR form
// (bit-reversed output convention, i.e. without the final swap):
// H(1), CS(0,1), H(0). Optionally a basis-state preparation X layer is
// applied first via the input bit mask.
func QFT2(inputBits uint) Circuit {
	b := NewBuilder("qft2", 2)
	for q := 0; q < 2; q++ {
		if inputBits&(1<<uint(q)) != 0 {
			b.X(q)
		}
	}
	b.H(1).CS(0, 1).H(0)
	return b.Circuit()
}

// QAOA builds a depth-one quantum approximate optimization circuit for
// MaxCut on a ring of n vertices: |+>^n input, cost layer
// exp(-i pi/8 Z_i Z_j) per ring edge, and mixer exp(-i pi/8 X_i) per
// vertex — all natively pi/8 rotations as in the paper's benchmark.
func QAOA(n int) Circuit {
	b := NewBuilder(fmt.Sprintf("qaoa-ring%d", n), n)
	for q := 0; q < n; q++ {
		b.InitPlus(q)
	}
	for i := 0; i < n; i++ {
		j := (i + 1) % n
		if j == i {
			continue
		}
		b.Rotate(ftqc.AnglePi8, false, map[int]pauli.Pauli{i: pauli.Z, j: pauli.Z})
	}
	for q := 0; q < n; q++ {
		b.rot1(ftqc.AnglePi8, false, q, pauli.X)
	}
	return b.Circuit()
}

// MSD15To1 builds the 15-to-1 magic state distillation circuit in PPR
// form (Litinski's formulation of the [[15,1,3]] protocol): five logical
// qubits initialized to |+> — qubit 0 the output, qubits 1..4 the checks
// — and fifteen inverted pi/8 rotations, one per non-zero check subset v,
// whose product is Z over the subset plus Z_0 when |v| is even.
//
// With perfect rotations the checks always measure X=+1 and qubit 0 ends
// in the magic state |m> = (|0> + e^{i pi/4}|1>)/sqrt(2); the
// construction is verified numerically in the package tests.
func MSD15To1() Circuit {
	b := NewBuilder("msd-15to1", 5)
	for q := 0; q < 5; q++ {
		b.InitPlus(q)
	}
	for v := 1; v < 16; v++ {
		factors := map[int]pauli.Pauli{}
		w := 0
		for bit := 0; bit < 4; bit++ {
			if v&(1<<bit) != 0 {
				factors[bit+1] = pauli.Z
				w++
			}
		}
		if w%2 == 0 {
			factors[0] = pauli.Z
		}
		b.Rotate(ftqc.AnglePi8, true, factors)
	}
	return b.Circuit()
}

// MSD15To1SelfCheck appends an in-gate-set verification to the
// distillation: the output's magic phase is undone by one forward pi/8
// Z-rotation and every qubit is rotated into the Z basis, so a perfect
// run reads all zeros deterministically. Residual ones flag distillation
// or control-processor faults.
func MSD15To1SelfCheck() Circuit {
	b := NewBuilder("msd-15to1-check", 5)
	c := MSD15To1()
	b.c.Init = c.Init
	b.c.Rotations = append(b.c.Rotations, c.Rotations...)
	b.rot1(ftqc.AnglePi8, true, 0, pauli.Z) // e^{+i pi/8 Z}: removes the magic phase
	for q := 0; q < 5; q++ {
		b.H(q)
	}
	return b.Circuit()
}
