package surface

import (
	"xqsim/internal/pauli"
	"xqsim/internal/stab"
)

// appendESMRound appends one syndrome-extraction round to circ: ancilla
// resets, Hadamards on X-plaquette ancillas, the four CZ/CX entangling
// layers in schedule order (CZTarget), closing Hadamards, and ancilla
// measurements. p2q adds depolarizing noise after every two-qubit gate
// and pMeas flips each ancilla readout.
func (c Code) appendESMRound(circ *stab.Circuit, stabs []Stabilizer, p2q, pMeas float64) {
	anc := func(i int) int { return c.D*c.D + i }
	for i := range stabs {
		circ.Reset(anc(i))
	}
	for i, st := range stabs {
		if st.Basis == pauli.X {
			circ.H(anc(i))
		}
	}
	for k := 0; k < 4; k++ {
		for i, st := range stabs {
			q, ok := c.CZTarget(st, k)
			if !ok {
				continue
			}
			if st.Basis == pauli.X {
				circ.CX(anc(i), c.DataIndex(q))
			} else {
				circ.CX(c.DataIndex(q), anc(i))
			}
			if p2q > 0 {
				circ.Depolarize1(anc(i), p2q)
				circ.Depolarize1(c.DataIndex(q), p2q)
			}
		}
	}
	for i, st := range stabs {
		if st.Basis == pauli.X {
			circ.H(anc(i))
		}
	}
	for i := range stabs {
		if pMeas > 0 {
			circ.FlipX(anc(i), pMeas)
		}
		circ.MeasureZ(anc(i))
	}
}

// ESMCircuit builds the explicit gate-level syndrome-extraction circuit
// of one patch for the given number of rounds.
//
// Qubit numbering: data qubits first (d*d, row-major), then one ancilla
// per stabilizer in Stabilizers() order. The measurement record contains
// rounds * len(stabs) ancilla outcomes, round-major.
//
// With depolarizing noise after every two-qubit gate and flip noise on
// measurements this is the circuit-level counterpart of the simulator's
// phenomenological model; TestESMCircuitNoiseBridge checks that the two
// produce syndrome densities of the same order, the standard
// phenomenological-vs-circuit-level relation of Tomita & Svore.
func (c Code) ESMCircuit(rounds int, p2q, pMeas float64) *stab.Circuit {
	stabs := c.Stabilizers()
	circ := stab.NewCircuit(c.D*c.D + len(stabs))
	for r := 0; r < rounds; r++ {
		c.appendESMRound(circ, stabs, p2q, pMeas)
	}
	return circ
}

// MemoryCircuit builds the circuit-level Z-basis memory experiment:
// rounds-1 noisy syndrome-extraction rounds, one final noise-free round
// (the standard closure of the decoding window, mirroring the
// phenomenological model's perfect final round), and a transversal
// noise-free Z readout of every data qubit.
//
// The record is the ESM layout (rounds * len(stabs) ancilla outcomes,
// round-major) followed by d*d data outcomes in row-major DataIndex
// order. Decoding consumes the final round's Z-plaquette flips; the
// logical Z outcome is the data-readout parity over LogicalZ().
func (c Code) MemoryCircuit(rounds int, p2q, pMeas float64) *stab.Circuit {
	stabs := c.Stabilizers()
	circ := stab.NewCircuit(c.D*c.D + len(stabs))
	for r := 0; r < rounds-1; r++ {
		c.appendESMRound(circ, stabs, p2q, pMeas)
	}
	if rounds > 0 {
		c.appendESMRound(circ, stabs, 0, 0)
	}
	for q := 0; q < c.D*c.D; q++ {
		circ.MeasureZ(q)
	}
	return circ
}
