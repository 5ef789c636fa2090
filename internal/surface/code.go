// Package surface implements the rotated surface code and the patch-based
// lattice-surgery geometry the control processor operates on.
//
// It provides three views used by different parts of the stack:
//
//   - the stabilizer structure of a distance-d rotated patch (ancilla
//     plaquettes, their data-qubit supports, canonical logical operators),
//     consumed by the quantum backend and the error decoder;
//   - the patch lattice with static and dynamic patch information
//     (the paper's Table 2), consumed by the patch information unit;
//   - merge/split region computation for Pauli product measurements,
//     consumed by the compiler and the physical schedule unit.
package surface

import (
	"fmt"

	"xqsim/internal/pauli"
)

// Coord is a (row, column) position. For data qubits both coordinates are
// in [0, d); for ancilla plaquettes they are in [0, d].
type Coord struct {
	Row, Col int
}

// Stabilizer is one ancilla plaquette of a rotated surface-code patch.
type Stabilizer struct {
	// Basis is the stabilizer type: pauli.Z plaquettes detect X errors on
	// their support, pauli.X plaquettes detect Z errors.
	Basis pauli.Pauli
	// Anc is the plaquette position in the (d+1) x (d+1) ancilla grid.
	Anc Coord
	// Data lists the data qubits in the plaquette's support (2 on patch
	// boundaries, 4 in the interior).
	Data []Coord
}

// Code describes a distance-d rotated surface-code patch. The canonical
// orientation places the logical-Z string vertically (terminating on the
// top and bottom boundaries, the Z-boundaries) and the logical-X string
// horizontally (left/right, the X-boundaries).
type Code struct {
	D int
}

// NewCode returns the geometry of a distance-d patch. d must be odd and
// at least 3 for the boundary structure to be well formed.
func NewCode(d int) Code {
	if d < 3 || d%2 == 0 {
		//xqlint:ignore nopanic constructor precondition: user distances pass core.CheckCode (xqsim flags, xqd simulate jobs, sweep grid specs); experiments use fixed odd distances
		panic(fmt.Sprintf("surface: invalid code distance %d", d))
	}
	return Code{D: d}
}

// DataQubits returns the number of data qubits (d^2).
func (c Code) DataQubits() int { return c.D * c.D }

// DataIndex maps a data-qubit coordinate to its linear index in [0, d^2).
func (c Code) DataIndex(q Coord) int { return q.Row*c.D + q.Col }

// PhysPerPatch is the paper's per-patch physical-qubit accounting,
// 2*(d+1)^2, which includes boundary and seam ancillas.
func (c Code) PhysPerPatch() int { return 2 * (c.D + 1) * (c.D + 1) }

// Stabilizers enumerates the d^2-1 stabilizer generators of the patch.
//
// Plaquette (r, c) with r, c in [0, d] touches the data qubits
// (r-1, c-1), (r-1, c), (r, c-1), (r, c) that lie inside the patch.
// Interior plaquettes alternate in a checkerboard ((r+c) even => Z).
// On the top and bottom boundaries only X plaquettes survive; on the left
// and right boundaries only Z plaquettes survive. This yields vertical
// logical-Z connectivity (Z-boundaries top/bottom).
func (c Code) Stabilizers() []Stabilizer {
	d := c.D
	var out []Stabilizer
	for r := 0; r <= d; r++ {
		for col := 0; col <= d; col++ {
			basis := pauli.Z
			if (r+col)%2 == 1 {
				basis = pauli.X
			}
			var data []Coord
			for _, q := range [4]Coord{{r - 1, col - 1}, {r - 1, col}, {r, col - 1}, {r, col}} {
				if q.Row >= 0 && q.Row < d && q.Col >= 0 && q.Col < d {
					data = append(data, q)
				}
			}
			switch len(data) {
			case 0, 1:
				continue // corner positions hold no stabilizer
			case 2:
				// Boundary plaquettes: the top/bottom edges are the
				// Z-boundaries (logical Z terminates there), so only Z-type
				// weight-2 checks survive there; symmetrically the
				// left/right edges keep only X-type checks.
				onTopBottom := r == 0 || r == d
				if onTopBottom && basis != pauli.Z {
					continue
				}
				if !onTopBottom && basis != pauli.X {
					continue
				}
			}
			out = append(out, Stabilizer{Basis: basis, Anc: Coord{r, col}, Data: data})
		}
	}
	return out
}

// LogicalZ returns the canonical support of the logical Z operator:
// the left-most column, running between the two Z-boundaries.
func (c Code) LogicalZ() []Coord {
	out := make([]Coord, c.D)
	for i := range out {
		out[i] = Coord{i, 0}
	}
	return out
}

// LogicalX returns the canonical support of the logical X operator:
// the top row, running between the two X-boundaries.
func (c Code) LogicalX() []Coord {
	out := make([]Coord, c.D)
	for i := range out {
		out[i] = Coord{0, i}
	}
	return out
}

// Side identifies one of the four patch boundaries.
type Side int

// Boundary sides in the PIU's storage order.
const (
	Left Side = iota
	Top
	Right
	Bottom
	NoSide
)

// String returns the side name.
func (s Side) String() string {
	switch s {
	case Left:
		return "Left"
	case Top:
		return "Top"
	case Right:
		return "Right"
	case Bottom:
		return "Bottom"
	case NoSide:
		return "None"
	}
	return "None"
}

// Opposite returns the facing side.
func (s Side) Opposite() Side {
	switch s {
	case Left:
		return Right
	case Right:
		return Left
	case Top:
		return Bottom
	case Bottom:
		return Top
	case NoSide:
		return NoSide
	}
	return NoSide
}

// BoundaryBasis returns the boundary type of a side in the canonical
// orientation: top/bottom are Z-boundaries (logical Z terminates there),
// left/right are X-boundaries.
func (c Code) BoundaryBasis(s Side) pauli.Pauli {
	if s == Top || s == Bottom {
		return pauli.Z
	}
	return pauli.X
}

// ConditionalStabilizer is a weight-2 boundary check that exists only
// while its side participates in a merge: the canonical patch drops (say)
// X-type checks on the top/bottom edges, but when that side becomes a
// Z&X seam (ESMBoth) during lattice surgery, the dropped checks turn on
// and stitch the patches together. The physical schedule unit's mask
// generators enable them from the dynamic patch information.
type ConditionalStabilizer struct {
	Stabilizer
	// Side is the patch boundary the check lives on.
	Side Side
}

// ConditionalStabilizers enumerates the dropped boundary checks of the
// canonical patch: X-type weight-2 plaquettes on the top/bottom edges and
// Z-type on the left/right edges.
func (c Code) ConditionalStabilizers() []ConditionalStabilizer {
	d := c.D
	var out []ConditionalStabilizer
	for r := 0; r <= d; r++ {
		for col := 0; col <= d; col++ {
			onTopBottom := r == 0 || r == d
			onLeftRight := col == 0 || col == d
			if !onTopBottom && !onLeftRight {
				continue
			}
			basis := pauli.Z
			if (r+col)%2 == 1 {
				basis = pauli.X
			}
			var data []Coord
			for _, q := range [4]Coord{{r - 1, col - 1}, {r - 1, col}, {r, col - 1}, {r, col}} {
				if q.Row >= 0 && q.Row < d && q.Col >= 0 && q.Col < d {
					data = append(data, q)
				}
			}
			if len(data) != 2 {
				continue
			}
			// Keep exactly the complements of Stabilizers()'s survival
			// rule.
			var side Side
			switch {
			case onTopBottom && basis == pauli.X:
				side = Top
				if r == d {
					side = Bottom
				}
			case onLeftRight && basis == pauli.Z:
				side = Left
				if col == d {
					side = Right
				}
			default:
				continue
			}
			out = append(out, ConditionalStabilizer{
				Stabilizer: Stabilizer{Basis: basis, Anc: Coord{r, col}, Data: data},
				Side:       side,
			})
		}
	}
	return out
}

// StabilizerActive evaluates the mask-generator rule for a regular
// stabilizer under the patch's dynamic information: interior checks run
// whenever the patch's ESM is on; a boundary check runs when its side's
// ESM type includes its basis.
func StabilizerActive(c Code, st Stabilizer, dyn Dynamic) bool {
	if !dyn.ESMOn {
		return false
	}
	if len(st.Data) == 4 {
		return true
	}
	side := boundarySideOf(c, st.Anc)
	return esmIncludes(dyn.ESM[side], st.Basis)
}

// ConditionalActive evaluates the mask-generator rule for a seam check:
// it runs only when its side is a Z&X seam.
func ConditionalActive(cs ConditionalStabilizer, dyn Dynamic) bool {
	return dyn.ESMOn && dyn.ESM[cs.Side] == ESMBoth
}

// boundarySideOf locates which edge a weight-2 plaquette sits on.
func boundarySideOf(c Code, anc Coord) Side {
	switch {
	case anc.Row == 0:
		return Top
	case anc.Row == c.D:
		return Bottom
	case anc.Col == 0:
		return Left
	case anc.Col == c.D:
		return Right
	}
	return NoSide
}

// esmIncludes reports whether an ESM participation type covers a basis.
func esmIncludes(e ESMType, b pauli.Pauli) bool {
	switch e {
	case ESMBoth:
		return true
	case ESMZ:
		return b == pauli.Z
	case ESMX:
		return b == pauli.X
	case ESMNone:
		return false
	}
	return false
}
