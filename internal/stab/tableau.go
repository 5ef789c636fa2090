// Package stab implements a bit-packed stabilizer-circuit simulator in the
// style of Aaronson & Gottesman's CHP algorithm, extended with direct
// measurement of arbitrary Pauli products.
//
// It substitutes for Stim in the paper's validation flow: the XQ-simulator
// forwards the control processor's output operations to this engine, which
// tracks the ideal (noiseless) quantum state; injected Pauli errors are
// propagated separately by internal/noise as Pauli frames, which is the same
// decomposition Stim uses for fast noisy sampling.
//
// The simulator stores 2n+1 rows (n destabilizers, n stabilizers, and one
// scratch row) of X/Z bit-vectors packed 64 per word, plus a sign bit per
// row. The rows live in two contiguous slabs (row r at word offset
// r*words), so the per-row scans that dominate measurement walk linear
// memory instead of chasing per-row slice headers. All Clifford operations
// are O(n) words; measurements are O(n^2/64).
package stab

import (
	"fmt"
	"math/bits"

	"xqsim/internal/pauli"
	"xqsim/internal/xrand"
)

// Tableau is the stabilizer tableau of an n-qubit state.
type Tableau struct {
	n     int
	words int // words per bit-row
	// x and z hold the X/Z bit-vectors of all 2n+1 rows as contiguous
	// slabs; row r spans words [r*words, (r+1)*words). Rows 0..n-1 are
	// destabilizers, rows n..2n-1 are stabilizers, row 2n is scratch.
	x []uint64
	z []uint64
	// r[row] is the sign: 0 => +1, 1 => -1 (phases stay real for
	// stabilizer rows; the intermediate 2-bit phase lives in rowsum).
	r   []uint8
	rng *xrand.Rand
	// pmx/pmz hold the bit-packed X/Z masks of the Pauli product being
	// measured, so per-row commutation checks are word-parallel popcounts
	// instead of per-qubit bit probes.
	pmx, pmz []uint64
}

// New returns an n-qubit tableau initialized to |0...0>.
func New(n int, seed int64) *Tableau {
	if n <= 0 {
		//xqlint:ignore nopanic constructor precondition: qubit counts derive from lattice geometry
		panic("stab: non-positive qubit count")
	}
	w := (n + 63) / 64
	t := &Tableau{
		n:     n,
		words: w,
		x:     make([]uint64, (2*n+1)*w),
		z:     make([]uint64, (2*n+1)*w),
		r:     make([]uint8, 2*n+1),
		rng:   xrand.New(seed),
		pmx:   make([]uint64, w),
		pmz:   make([]uint64, w),
	}
	for i := 0; i < n; i++ {
		t.setX(i, i, true)   // destabilizer i = X_i
		t.setZ(n+i, i, true) // stabilizer i = Z_i
	}
	return t
}

// Reinit restores the tableau to the state a fresh New(n, seed) would
// produce — |0...0> with a rewound random stream — without reallocating
// any row. It is the scratch-reuse hook for shot loops that rebuild their
// quantum state per shot; reinitialized and freshly constructed tableaus
// draw identical measurement outcomes for identical seeds.
func (t *Tableau) Reinit(seed int64) {
	for i := range t.x {
		t.x[i] = 0
		t.z[i] = 0
	}
	for i := range t.r {
		t.r[i] = 0
	}
	for i := 0; i < t.n; i++ {
		t.setX(i, i, true)     // destabilizer i = X_i
		t.setZ(t.n+i, i, true) // stabilizer i = Z_i
	}
	t.rng.Seed(seed)
}

// xrow/zrow view one row of the slab.
func (t *Tableau) xrow(row int) []uint64 { return t.x[row*t.words : (row+1)*t.words] }
func (t *Tableau) zrow(row int) []uint64 { return t.z[row*t.words : (row+1)*t.words] }

func (t *Tableau) getX(row, q int) bool { return t.x[row*t.words+q>>6]>>(uint(q)&63)&1 != 0 }
func (t *Tableau) getZ(row, q int) bool { return t.z[row*t.words+q>>6]>>(uint(q)&63)&1 != 0 }

func (t *Tableau) setX(row, q int, v bool) {
	if v {
		t.x[row*t.words+q>>6] |= 1 << (uint(q) & 63)
	} else {
		t.x[row*t.words+q>>6] &^= 1 << (uint(q) & 63)
	}
}

func (t *Tableau) setZ(row, q int, v bool) {
	if v {
		t.z[row*t.words+q>>6] |= 1 << (uint(q) & 63)
	} else {
		t.z[row*t.words+q>>6] &^= 1 << (uint(q) & 63)
	}
}

// H applies a Hadamard gate to qubit q.
func (t *Tableau) H(q int) {
	w, b := q>>6, uint64(1)<<(uint(q)&63)
	for row := 0; row < 2*t.n; row++ {
		i := row*t.words + w
		xr, zr := t.x[i]&b, t.z[i]&b
		if xr != 0 && zr != 0 {
			t.r[row] ^= 1
		}
		// Swap x and z bits.
		if (xr != 0) != (zr != 0) {
			t.x[i] ^= b
			t.z[i] ^= b
		}
	}
}

// S applies a phase gate to qubit q.
func (t *Tableau) S(q int) {
	w, b := q>>6, uint64(1)<<(uint(q)&63)
	for row := 0; row < 2*t.n; row++ {
		i := row*t.words + w
		xr, zr := t.x[i]&b, t.z[i]&b
		if xr != 0 && zr != 0 {
			t.r[row] ^= 1
		}
		if xr != 0 {
			t.z[i] ^= b
		}
	}
}

// CX applies a controlled-X gate with control c and target g.
func (t *Tableau) CX(c, g int) {
	cw, cb := c>>6, uint64(1)<<(uint(c)&63)
	gw, gb := g>>6, uint64(1)<<(uint(g)&63)
	for row := 0; row < 2*t.n; row++ {
		base := row * t.words
		xc := t.x[base+cw]&cb != 0
		zc := t.z[base+cw]&cb != 0
		xg := t.x[base+gw]&gb != 0
		zg := t.z[base+gw]&gb != 0
		if xc && zg && (xg == zc) {
			t.r[row] ^= 1
		}
		if xc {
			t.x[base+gw] ^= gb
		}
		if zg {
			t.z[base+cw] ^= cb
		}
	}
}

// CZ applies a controlled-Z gate between qubits a and b.
func (t *Tableau) CZ(a, b int) {
	t.H(b)
	t.CX(a, b)
	t.H(b)
}

// X applies a Pauli X to qubit q (flips signs of rows with a Z component).
func (t *Tableau) X(q int) {
	w, b := q>>6, uint64(1)<<(uint(q)&63)
	for row := 0; row < 2*t.n; row++ {
		if t.z[row*t.words+w]&b != 0 {
			t.r[row] ^= 1
		}
	}
}

// Z applies a Pauli Z to qubit q.
func (t *Tableau) Z(q int) {
	w, b := q>>6, uint64(1)<<(uint(q)&63)
	for row := 0; row < 2*t.n; row++ {
		if t.x[row*t.words+w]&b != 0 {
			t.r[row] ^= 1
		}
	}
}

// Y applies a Pauli Y to qubit q.
func (t *Tableau) Y(q int) { t.X(q); t.Z(q) }

// ApplyPauli applies the single-qubit Pauli p to qubit q.
func (t *Tableau) ApplyPauli(q int, p pauli.Pauli) {
	switch p {
	case pauli.I:
		// Identity: no-op.
	case pauli.X:
		t.X(q)
	case pauli.Z:
		t.Z(q)
	case pauli.Y:
		t.Y(q)
	}
}

// rowsum implements the CHP "rowsum(h, i)" operation: row h *= row i,
// with exact phase tracking. The phase function g is evaluated wordwise
// using the closed form: for each qubit, g in {-1,0,1} is accumulated;
// the total must be 0 mod 4 for +, 2 mod 4 for -.
func (t *Tableau) rowsum(h, i int) {
	var acc uint32 // 2*r_h + 2*r_i + sum g, mod 4
	acc = uint32(2*t.r[h] + 2*t.r[i])
	xh, zh := t.xrow(h), t.zrow(h)
	xi, zi := t.xrow(i), t.zrow(i)
	for w := 0; w < t.words; w++ {
		x1, z1 := xi[w], zi[w]
		x2, z2 := xh[w], zh[w]
		// For each bit position, g(x1,z1,x2,z2):
		//   (x1,z1)=(0,0): 0
		//   (1,1): z2 - x2
		//   (1,0): z2*(2*x2-1)
		//   (0,1): x2*(1-2*z2)
		// We accumulate mod 4, so count +1 and -1 contributions.
		// +1 cases: (1,1)&z2&~x2 | (1,0)&z2&x2 | (0,1)&x2&~z2
		plus := (x1 & z1 & z2 &^ x2) | (x1 &^ z1 & z2 & x2) | (z1 &^ x1 & x2 &^ z2)
		// -1 cases: (1,1)&x2&~z2 | (1,0)&z2&~x2... wait (1,0): z2*(2x2-1) = -1 when z2=1,x2=0
		minus := (x1 & z1 & x2 &^ z2) | (x1 &^ z1 & z2 &^ x2) | (z1 &^ x1 & x2 & z2)
		acc += uint32(bits.OnesCount64(plus))
		acc += 3 * uint32(bits.OnesCount64(minus)) // -1 == +3 mod 4
		xh[w] ^= x1
		zh[w] ^= z1
	}
	// For stabilizer and scratch rows the accumulated phase is always real
	// (0 or 2 mod 4). Destabilizer-row updates may produce an imaginary
	// phase, but destabilizer signs are never consumed, so we just keep the
	// top bit in that case too.
	t.r[h] = uint8((acc >> 1) & 1)
}

// clearRow zeroes row `row`'s bit-vectors.
func (t *Tableau) clearRow(row int) {
	base := row * t.words
	for w := 0; w < t.words; w++ {
		t.x[base+w] = 0
		t.z[base+w] = 0
	}
}

// loadProductMasks packs the Pauli product (qubits, ops) into t.pmx/t.pmz
// once per measurement, so every row check afterwards is word-parallel.
func (t *Tableau) loadProductMasks(qubits []int, ops []pauli.Pauli) {
	for w := range t.pmx {
		t.pmx[w] = 0
		t.pmz[w] = 0
	}
	for k, q := range qubits {
		p := ops[k]
		if p == pauli.I {
			continue
		}
		if p.XBit() {
			t.pmx[q>>6] |= 1 << (uint(q) & 63)
		}
		if p.ZBit() {
			t.pmz[q>>6] |= 1 << (uint(q) & 63)
		}
	}
}

// anticommutesWithMasks reports whether tableau row `row` anticommutes
// with the product loaded into t.pmx/t.pmz: the symplectic inner product
// sum x_row*z_p + z_row*x_p (mod 2) as a popcount parity.
func (t *Tableau) anticommutesWithMasks(row int) bool {
	base := row * t.words
	n := 0
	for w := range t.pmx {
		n += bits.OnesCount64(t.x[base+w]&t.pmz[w]) + bits.OnesCount64(t.z[base+w]&t.pmx[w])
	}
	return n&1 == 1
}

// MeasureProduct measures the Pauli product defined by parallel slices
// qubits/ops and returns the outcome bit (false => +1 eigenvalue) and
// whether the outcome was deterministic. Identity factors are allowed.
// Measuring the empty product returns (false, true).
func (t *Tableau) MeasureProduct(qubits []int, ops []pauli.Pauli) (bool, bool) {
	if len(qubits) != len(ops) {
		//xqlint:ignore nopanic API-misuse guard: both slices come from the same logical-operator table
		panic("stab: qubits/ops length mismatch")
	}
	t.loadProductMasks(qubits, ops)
	if t.words == 1 {
		return t.measureProductW1()
	}
	// Find first stabilizer row anticommuting with the product.
	p := -1
	for row := t.n; row < 2*t.n; row++ {
		if t.anticommutesWithMasks(row) {
			p = row
			break
		}
	}
	if p >= 0 {
		// Random outcome. Every other anticommuting row (destabilizer or
		// stabilizer) is multiplied by row p to restore commutation.
		for row := 0; row < 2*t.n; row++ {
			if row != p && t.anticommutesWithMasks(row) {
				t.rowsum(row, p)
			}
		}
		// Destabilizer for the new stabilizer is the old row p.
		d := p - t.n
		copy(t.xrow(d), t.xrow(p))
		copy(t.zrow(d), t.zrow(p))
		t.r[d] = t.r[p]
		// New stabilizer = +/- the measured product.
		outcome := t.RandomBit()
		var sign uint8
		if outcome {
			sign = 1
		}
		t.clearRow(p)
		t.r[p] = sign
		for k, q := range qubits {
			if ops[k].XBit() {
				t.setX(p, q, true)
			}
			if ops[k].ZBit() {
				t.setZ(p, q, true)
			}
		}
		return outcome, false
	}
	// Deterministic outcome: accumulate stabilizer rows whose destabilizer
	// partners anticommute with the product.
	s := 2 * t.n
	t.clearRow(s)
	t.r[s] = 0
	for row := 0; row < t.n; row++ {
		if t.anticommutesWithMasks(row) {
			t.rowsum(s, row+t.n)
		}
	}
	return t.r[s] == 1, true
}

// measureProductW1 is MeasureProduct's single-word specialization
// (n <= 64): each row's symplectic inner product with the loaded masks is
// two AND+popcounts on locals, with no per-row word loop or slab offset
// arithmetic. Outcomes, updates, and random draws are bit-identical to the
// general path; the new stabilizer row in the random branch is written
// directly from the product masks (exactly the bits the general path's
// clearRow+set loop produces).
func (t *Tableau) measureProductW1() (bool, bool) {
	px, pz := t.pmx[0], t.pmz[0]
	x, z := t.x, t.z
	n := t.n
	p := -1
	for row := n; row < 2*n; row++ {
		if (bits.OnesCount64(x[row]&pz)+bits.OnesCount64(z[row]&px))&1 == 1 {
			p = row
			break
		}
	}
	if p >= 0 {
		for row := 0; row < 2*n; row++ {
			if row != p && (bits.OnesCount64(x[row]&pz)+bits.OnesCount64(z[row]&px))&1 == 1 {
				t.rowsum(row, p)
			}
		}
		d := p - n
		x[d], z[d] = x[p], z[p]
		t.r[d] = t.r[p]
		outcome := t.RandomBit()
		var sign uint8
		if outcome {
			sign = 1
		}
		x[p], z[p] = px, pz
		t.r[p] = sign
		return outcome, false
	}
	s := 2 * n
	x[s], z[s] = 0, 0
	t.r[s] = 0
	for row := 0; row < n; row++ {
		if (bits.OnesCount64(x[row]&pz)+bits.OnesCount64(z[row]&px))&1 == 1 {
			t.rowsum(s, row+n)
		}
	}
	return t.r[s] == 1, true
}

// MeasureZ measures qubit q in the Z basis. It runs the same CHP update
// MeasureProduct performs for the product Z_q, but the per-row
// anticommutation test collapses to a single X-bit probe in the slab, so
// the scans that dominate single-qubit measurement cost are plain strided
// bit tests. Outcomes and post-measurement state are bit-identical to the
// general path.
func (t *Tableau) MeasureZ(q int) (bool, bool) {
	w, b := q>>6, uint64(1)<<(uint(q)&63)
	words := t.words
	// Row `row` anticommutes with Z_q iff its X bit at q is set.
	p := -1
	for row := t.n; row < 2*t.n; row++ {
		if t.x[row*words+w]&b != 0 {
			p = row
			break
		}
	}
	if p >= 0 {
		for row := 0; row < 2*t.n; row++ {
			if row != p && t.x[row*words+w]&b != 0 {
				t.rowsum(row, p)
			}
		}
		d := p - t.n
		copy(t.xrow(d), t.xrow(p))
		copy(t.zrow(d), t.zrow(p))
		t.r[d] = t.r[p]
		outcome := t.RandomBit()
		var sign uint8
		if outcome {
			sign = 1
		}
		t.clearRow(p)
		t.r[p] = sign
		t.setZ(p, q, true)
		return outcome, false
	}
	s := 2 * t.n
	t.clearRow(s)
	t.r[s] = 0
	for row := 0; row < t.n; row++ {
		if t.x[row*words+w]&b != 0 {
			t.rowsum(s, row+t.n)
		}
	}
	return t.r[s] == 1, true
}

// RandomBit draws the next bit of the tableau's random stream: exactly the
// draw a random-outcome measurement makes for its outcome. Callers that
// simulate a measurement known to be random and unentangled with the
// tracked state (a gauge qubit outside the tableau) draw it here, keeping
// the stream aligned with a tableau that tracks that qubit.
func (t *Tableau) RandomBit() bool { return t.rng.Intn(2) == 1 }

// Reset measures qubit q in the Z basis and flips it to |0> if needed.
func (t *Tableau) Reset(q int) {
	out, _ := t.MeasureZ(q)
	if out {
		t.X(q)
	}
}

// ExpectProduct returns the deterministic expectation of the product if the
// state is an eigenstate: +1, -1, or 0 when the outcome would be random.
// The state is not modified.
func (t *Tableau) ExpectProduct(qubits []int, ops []pauli.Pauli) int {
	t.loadProductMasks(qubits, ops)
	for row := t.n; row < 2*t.n; row++ {
		if t.anticommutesWithMasks(row) {
			return 0
		}
	}
	s := 2 * t.n
	t.clearRow(s)
	t.r[s] = 0
	for row := 0; row < t.n; row++ {
		if t.anticommutesWithMasks(row) {
			t.rowsum(s, row+t.n)
		}
	}
	if t.r[s] == 1 {
		return -1
	}
	return 1
}

// StabilizerRow returns stabilizer generator i (0<=i<n) as a Pauli product
// over all n qubits, with Phase 0 (+) or 2 (-).
func (t *Tableau) StabilizerRow(i int) pauli.Product {
	row := t.n + i
	pr := pauli.NewProduct(t.n)
	for q := 0; q < t.n; q++ {
		pr.Ops[q] = pauli.FromBits(t.getX(row, q), t.getZ(row, q))
	}
	if t.r[row] == 1 {
		pr.Phase = 2
	}
	return pr
}

// CheckInvariants verifies the tableau's internal consistency: all
// stabilizer rows commute pairwise, destabilizer i anticommutes with
// stabilizer i and commutes with all other stabilizers. It returns an
// error describing the first violation, or nil. Intended for tests.
func (t *Tableau) CheckInvariants() error {
	rowProd := func(row int) ([]int, []pauli.Pauli) {
		var qs []int
		var ops []pauli.Pauli
		for q := 0; q < t.n; q++ {
			p := pauli.FromBits(t.getX(row, q), t.getZ(row, q))
			if p != pauli.I {
				qs = append(qs, q)
				ops = append(ops, p)
			}
		}
		return qs, ops
	}
	for i := 0; i < t.n; i++ {
		qi, oi := rowProd(t.n + i)
		t.loadProductMasks(qi, oi)
		for j := i + 1; j < t.n; j++ {
			if t.anticommutesWithMasks(t.n + j) {
				return fmt.Errorf("stabilizers %d and %d anticommute", i, j)
			}
		}
		for j := 0; j < t.n; j++ {
			anti := t.anticommutesWithMasks(j)
			if (i == j) != anti {
				return fmt.Errorf("destabilizer %d vs stabilizer %d: anticommute=%v", j, i, anti)
			}
		}
	}
	return nil
}
