package surface

import (
	"testing"

	"xqsim/internal/pauli"
)

func TestCZTargetCoversSupport(t *testing.T) {
	// Over the four entangling layers, every plaquette must touch exactly
	// its support, each data qubit once.
	for _, d := range []int{3, 5, 7} {
		c := NewCode(d)
		for _, st := range c.Stabilizers() {
			touched := map[Coord]int{}
			for k := 0; k < 4; k++ {
				if q, ok := c.CZTarget(st, k); ok {
					touched[q]++
				}
			}
			if len(touched) != len(st.Data) {
				t.Fatalf("d=%d %v@%v: touched %d qubits, support %d",
					d, st.Basis, st.Anc, len(touched), len(st.Data))
			}
			for _, q := range st.Data {
				if touched[q] != 1 {
					t.Fatalf("d=%d %v@%v: qubit %v touched %d times",
						d, st.Basis, st.Anc, q, touched[q])
				}
			}
		}
	}
}

func TestNoDataQubitContentionPerLayer(t *testing.T) {
	// Within one entangling layer, no data qubit may be targeted by two
	// plaquettes (the N/Z order transposition guarantees this).
	for _, d := range []int{3, 5, 7} {
		c := NewCode(d)
		stabs := c.Stabilizers()
		for k := 0; k < 4; k++ {
			busy := map[Coord]bool{}
			for _, st := range stabs {
				q, ok := c.CZTarget(st, k)
				if !ok {
					continue
				}
				if busy[q] {
					t.Fatalf("d=%d layer %d: data qubit %v double-booked", d, k, q)
				}
				busy[q] = true
			}
		}
	}
}

func TestXZOrdersAreTransposed(t *testing.T) {
	// The N and Z orders differ exactly in the middle two layers.
	c := NewCode(5)
	var xs, zs *Stabilizer
	for i, st := range c.Stabilizers() {
		st := st
		if len(st.Data) != 4 {
			continue
		}
		if st.Basis == pauli.X && xs == nil {
			xs = &c.Stabilizers()[i]
		}
		if st.Basis == pauli.Z && zs == nil {
			zs = &c.Stabilizers()[i]
		}
	}
	if xs == nil || zs == nil {
		t.Fatal("interior stabilizers not found")
	}
	relX := make([]Coord, 4)
	relZ := make([]Coord, 4)
	for k := 0; k < 4; k++ {
		qx, _ := c.CZTarget(*xs, k)
		qz, _ := c.CZTarget(*zs, k)
		relX[k] = Coord{qx.Row - xs.Anc.Row, qx.Col - xs.Anc.Col}
		relZ[k] = Coord{qz.Row - zs.Anc.Row, qz.Col - zs.Anc.Col}
	}
	if relX[0] != relZ[0] || relX[3] != relZ[3] {
		t.Error("first/last layers should coincide")
	}
	if relX[1] == relZ[1] || relX[2] == relZ[2] {
		t.Error("middle layers must be swapped between X and Z plaquettes")
	}
}
