// Package pauli implements single- and multi-qubit Pauli algebra with
// global-phase tracking.
//
// The fault-tolerant control processor manipulates Pauli operators
// everywhere: the QISA's Pauli_list fields, the Pauli frame unit's
// per-data-qubit frames, the logical measure unit's byproduct register,
// and the error decoder's identified error chains are all Pauli products.
// This package is the shared substrate for those components.
package pauli

import "strings"

// Pauli is a single-qubit Pauli operator. The two-bit encoding matches the
// QISA Pauli_list field of the paper's Table 1 (two bits per logical qubit).
type Pauli uint8

const (
	I Pauli = 0 // identity
	X Pauli = 1 // bit flip
	Z Pauli = 2 // phase flip
	Y Pauli = 3 // both (Y = iXZ)
)

// String returns the conventional one-letter name.
func (p Pauli) String() string {
	switch p {
	case I:
		return "I"
	case X:
		return "X"
	case Z:
		return "Z"
	case Y:
		return "Y"
	}
	return "?"
}

// ParsePauli converts a one-letter name to a Pauli.
func ParsePauli(b byte) (Pauli, bool) {
	switch b {
	case 'I', 'i':
		return I, true
	case 'X', 'x':
		return X, true
	case 'Z', 'z':
		return Z, true
	case 'Y', 'y':
		return Y, true
	}
	return I, false
}

// XBit reports whether p contains an X component (X or Y).
func (p Pauli) XBit() bool { return p&1 != 0 }

// ZBit reports whether p contains a Z component (Z or Y).
func (p Pauli) ZBit() bool { return p&2 != 0 }

// FromBits builds a Pauli from its X and Z components.
func FromBits(xb, zb bool) Pauli {
	var p Pauli
	if xb {
		p |= X
	}
	if zb {
		p |= Z
	}
	return p
}

// Commutes reports whether p and q commute as operators. Distinct
// non-identity Paulis anticommute; everything else commutes.
func (p Pauli) Commutes(q Pauli) bool {
	if p == I || q == I || p == q {
		return true
	}
	return false
}

// Mul multiplies two single-qubit Paulis ignoring phase: the result is the
// Pauli whose X/Z bits are the XOR of the operands' bits.
func (p Pauli) Mul(q Pauli) Pauli { return p ^ q }

// mulPhase returns the power of i (0..3) picked up when multiplying p*q in
// the convention Y = iXZ. The table is symmetric up to sign: XY=iZ, YZ=iX,
// ZX=iY and the reverses pick up -i (phase 3).
func mulPhase(p, q Pauli) uint8 {
	if p == I || q == I || p == q {
		return 0
	}
	// Cyclic order X(1) -> Y(3) -> Z(2) -> X gives +i.
	switch {
	case p == X && q == Y, p == Y && q == Z, p == Z && q == X:
		return 1
	default:
		return 3
	}
}

// Product is an n-qubit Pauli product with a global phase i^Phase.
// The zero value is the identity on zero qubits.
type Product struct {
	Ops   []Pauli
	Phase uint8 // power of i, 0..3
}

// NewProduct returns the identity product on n qubits.
func NewProduct(n int) Product {
	return Product{Ops: make([]Pauli, n)}
}

// ParseProduct parses a string such as "XIZY" (one letter per qubit).
func ParseProduct(s string) (Product, bool) {
	ops := make([]Pauli, len(s))
	for i := 0; i < len(s); i++ {
		p, ok := ParsePauli(s[i])
		if !ok {
			return Product{}, false
		}
		ops[i] = p
	}
	return Product{Ops: ops}, true
}

// String renders the product as a phase prefix plus one letter per qubit.
func (pr Product) String() string {
	var sb strings.Builder
	switch pr.Phase {
	case 1:
		sb.WriteString("i*")
	case 2:
		sb.WriteString("-")
	case 3:
		sb.WriteString("-i*")
	}
	for _, p := range pr.Ops {
		sb.WriteString(p.String())
	}
	return sb.String()
}

// Len returns the number of qubits the product acts on.
func (pr Product) Len() int { return len(pr.Ops) }

// Clone returns a deep copy.
func (pr Product) Clone() Product {
	out := Product{Ops: make([]Pauli, len(pr.Ops)), Phase: pr.Phase}
	copy(out.Ops, pr.Ops)
	return out
}

// Weight returns the number of non-identity factors.
func (pr Product) Weight() int {
	w := 0
	for _, p := range pr.Ops {
		if p != I {
			w++
		}
	}
	return w
}

// IsIdentity reports whether every factor is I (phase ignored).
func (pr Product) IsIdentity() bool { return pr.Weight() == 0 }

// Mul multiplies pr by other in place (pr = pr * other), tracking phase.
// Both products must act on the same number of qubits.
func (pr *Product) Mul(other Product) {
	if len(pr.Ops) != len(other.Ops) {
		//xqlint:ignore nopanic API-misuse guard: products in one computation share the machine's qubit count
		panic("pauli: product length mismatch")
	}
	phase := pr.Phase + other.Phase
	for i, q := range other.Ops {
		phase += mulPhase(pr.Ops[i], q)
		pr.Ops[i] ^= q
	}
	pr.Phase = phase & 3
}

// Times returns pr*other without modifying either operand.
func (pr Product) Times(other Product) Product {
	out := pr.Clone()
	out.Mul(other)
	return out
}

// Commutes reports whether two products commute: they commute iff the
// number of positions with anticommuting factors is even.
func (pr Product) Commutes(other Product) bool {
	if len(pr.Ops) != len(other.Ops) {
		//xqlint:ignore nopanic API-misuse guard: products in one computation share the machine's qubit count
		panic("pauli: product length mismatch")
	}
	anti := 0
	for i, q := range other.Ops {
		if !pr.Ops[i].Commutes(q) {
			anti++
		}
	}
	return anti%2 == 0
}

// Frame is a per-qubit Pauli record used by the Pauli frame unit. It is a
// Product whose phase is irrelevant (frames act by conjugation).
type Frame struct {
	Ops []Pauli
}

// NewFrame returns an identity frame over n qubits.
func NewFrame(n int) Frame { return Frame{Ops: make([]Pauli, n)} }

// Update multiplies the recorded error on qubit q by p (phase-free).
func (f Frame) Update(q int, p Pauli) { f.Ops[q] ^= p }

// FlipsMeasurement reports whether the frame on qubit q flips a measurement
// in the given basis: an X-type record flips a Z-basis measurement and a
// Z-type record flips an X-basis measurement.
func (f Frame) FlipsMeasurement(q int, basis Pauli) bool {
	switch basis {
	case I:
		// The identity is not a measurement basis; nothing flips.
		return false
	case Z:
		return f.Ops[q].XBit()
	case X:
		return f.Ops[q].ZBit()
	case Y:
		return f.Ops[q] == X || f.Ops[q] == Z
	}
	return false
}

// ConjugateByGate rewrites the frame on the given qubits under conjugation
// by a named Clifford gate, matching the PFU's cwd_merger behaviour: an
// error E followed by gate G is equivalent to G followed by G E G†.
// Supported gates: "H", "S", "X", "Z", "Y", "CX" (q=control, q2=target),
// "CZ". Unknown gates leave the frame unchanged.
func (f Frame) ConjugateByGate(gate string, q, q2 int) {
	switch gate {
	case "H":
		// H X H = Z, H Z H = X, H Y H = -Y.
		p := f.Ops[q]
		f.Ops[q] = FromBits(p.ZBit(), p.XBit())
	case "S":
		// S X S† = Y, S Z S† = Z, S Y S† = -X.
		p := f.Ops[q]
		if p.XBit() {
			f.Ops[q] = p ^ Z
		}
	case "CX":
		// X_c -> X_c X_t, Z_t -> Z_c Z_t.
		if f.Ops[q].XBit() {
			f.Ops[q2] ^= X
		}
		if f.Ops[q2].ZBit() {
			f.Ops[q] ^= Z
		}
	case "CZ":
		// X_c -> X_c Z_t, X_t -> Z_c X_t.
		if f.Ops[q].XBit() {
			f.Ops[q2] ^= Z
		}
		if f.Ops[q2].XBit() {
			f.Ops[q] ^= Z
		}
	case "X", "Z", "Y", "I":
		// Paulis commute with the frame up to phase; no record change.
	}
}
