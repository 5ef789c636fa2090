package compiler

import (
	"xqsim/internal/ftqc"
	"xqsim/internal/isa"
	"xqsim/internal/statevec"
)

// ReferenceDistribution computes the exact final Z-basis distribution of a
// circuit at the logical level, applying every rotation as a unitary on
// the dense simulator. This is the paper's "Qiskit without any errors"
// side of the Table-3 comparison. Index bit q of the result corresponds
// to data qubit q.
func ReferenceDistribution(c Circuit) []float64 {
	s := statevec.New(c.NLQ, 1)
	for q, m := range dataInits(c) {
		switch m {
		case isa.MarkPlus:
			s.H(q)
		case isa.MarkMagic:
			s.PrepareResource(q, ftqc.AnglePi8.ResourceTheta())
		case isa.MarkNone, isa.MarkZero:
			// |0> is the simulator's initial state; nothing to prepare.
		}
	}
	for _, rot := range c.Rotations {
		s.ApplyPPR(rot.Theta(), rot.P)
	}
	qs := make([]int, c.NLQ)
	for q := range qs {
		qs[q] = q
	}
	return s.MarginalDistribution(qs)
}
