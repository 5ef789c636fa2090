package surface

import "xqsim/internal/pauli"

// CZTarget returns the data qubit an ancilla plaquette entangles with at
// entangling layer k (0..3), or ok=false when the plaquette has no
// neighbor in that direction (boundary plaquettes skip those layers).
//
// The interaction order avoids hook errors by traversing the plaquette's
// corners in an N shape for X-type stabilizers and a Z shape for Z-type
// stabilizers (Fig. 2(b)/(c)): the two orders are mutually transposed so
// simultaneously scheduled X and Z plaquettes never contend for a data
// qubit.
func (c Code) CZTarget(st Stabilizer, k int) (Coord, bool) {
	// Corner offsets relative to the plaquette coordinate: the data
	// qubits at (r-1,c-1), (r-1,c), (r,c-1), (r,c).
	nw := Coord{st.Anc.Row - 1, st.Anc.Col - 1}
	ne := Coord{st.Anc.Row - 1, st.Anc.Col}
	sw := Coord{st.Anc.Row, st.Anc.Col - 1}
	se := Coord{st.Anc.Row, st.Anc.Col}
	var order [4]Coord
	if st.Basis == pauli.X {
		order = [4]Coord{nw, ne, sw, se} // N order
	} else {
		order = [4]Coord{nw, sw, ne, se} // Z order
	}
	q := order[k]
	if q.Row < 0 || q.Row >= c.D || q.Col < 0 || q.Col >= c.D {
		return Coord{}, false
	}
	// Boundary plaquettes only touch qubits in their support.
	for _, d := range st.Data {
		if d == q {
			return q, true
		}
	}
	return Coord{}, false
}
