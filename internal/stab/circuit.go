package stab

import (
	"fmt"

	"xqsim/internal/pauli"
	"xqsim/internal/xrand"
)

// OpKind enumerates circuit-IR operations.
type OpKind int

// Circuit operations.
const (
	OpH OpKind = iota
	OpS
	OpCX
	OpCZ
	OpX
	OpY
	OpZ
	OpMeasureZ // records one outcome bit
	OpReset
	// OpDepolarize1 applies X, Y or Z with probability p/3 each.
	OpDepolarize1
	// OpFlipX / OpFlipZ apply the Pauli with probability p.
	OpFlipX
	OpFlipZ
)

// Op is one circuit operation.
type Op struct {
	Kind OpKind
	A, B int     // qubits (B for two-qubit gates)
	P    float64 // noise probability
}

// Circuit is a Clifford circuit with Pauli noise channels — the
// stabilizer-circuit IR of our Stim substitute.
type Circuit struct {
	N   int
	Ops []Op
}

// NewCircuit returns an empty circuit over n qubits.
func NewCircuit(n int) *Circuit { return &Circuit{N: n} }

func (c *Circuit) check(q int) {
	if q < 0 || q >= c.N {
		//xqlint:ignore nopanic API-misuse guard: circuit builders index a fixed qubit count
		panic(fmt.Sprintf("stab: qubit %d out of range", q))
	}
}

// H appends a Hadamard.
func (c *Circuit) H(q int) *Circuit { c.check(q); c.Ops = append(c.Ops, Op{Kind: OpH, A: q}); return c }

// S appends a phase gate.
func (c *Circuit) S(q int) *Circuit { c.check(q); c.Ops = append(c.Ops, Op{Kind: OpS, A: q}); return c }

// CX appends a controlled-X.
func (c *Circuit) CX(a, b int) *Circuit {
	c.check(a)
	c.check(b)
	c.Ops = append(c.Ops, Op{Kind: OpCX, A: a, B: b})
	return c
}

// CZ appends a controlled-Z.
func (c *Circuit) CZ(a, b int) *Circuit {
	c.check(a)
	c.check(b)
	c.Ops = append(c.Ops, Op{Kind: OpCZ, A: a, B: b})
	return c
}

// X appends a Pauli X.
func (c *Circuit) X(q int) *Circuit { c.check(q); c.Ops = append(c.Ops, Op{Kind: OpX, A: q}); return c }

// MeasureZ appends a Z-basis measurement.
func (c *Circuit) MeasureZ(q int) *Circuit {
	c.check(q)
	c.Ops = append(c.Ops, Op{Kind: OpMeasureZ, A: q})
	return c
}

// Reset appends a |0> reset.
func (c *Circuit) Reset(q int) *Circuit {
	c.check(q)
	c.Ops = append(c.Ops, Op{Kind: OpReset, A: q})
	return c
}

// Depolarize1 appends single-qubit depolarizing noise.
func (c *Circuit) Depolarize1(q int, p float64) *Circuit {
	c.check(q)
	c.Ops = append(c.Ops, Op{Kind: OpDepolarize1, A: q, P: p})
	return c
}

// FlipX appends an X-flip channel.
func (c *Circuit) FlipX(q int, p float64) *Circuit {
	c.check(q)
	c.Ops = append(c.Ops, Op{Kind: OpFlipX, A: q, P: p})
	return c
}

// FlipZ appends a Z-flip channel.
func (c *Circuit) FlipZ(q int, p float64) *Circuit {
	c.check(q)
	c.Ops = append(c.Ops, Op{Kind: OpFlipZ, A: q, P: p})
	return c
}

// Measurements counts measurement operations.
func (c *Circuit) Measurements() int {
	n := 0
	for _, op := range c.Ops {
		if op.Kind == OpMeasureZ {
			n++
		}
	}
	return n
}

// SimulateTableau runs the circuit once on the full tableau (noise
// channels sampled with the given seed) and returns the measurement
// record.
func (c *Circuit) SimulateTableau(seed int64) []bool {
	t := New(c.N, seed)
	rng := xrand.New(seed + 0x9e3779b9)
	var rec []bool
	for _, op := range c.Ops {
		switch op.Kind {
		case OpH:
			t.H(op.A)
		case OpS:
			t.S(op.A)
		case OpCX:
			t.CX(op.A, op.B)
		case OpCZ:
			t.CZ(op.A, op.B)
		case OpX:
			t.X(op.A)
		case OpY:
			t.Y(op.A)
		case OpZ:
			t.Z(op.A)
		case OpMeasureZ:
			out, _ := t.MeasureZ(op.A)
			rec = append(rec, out)
		case OpReset:
			t.Reset(op.A)
		case OpDepolarize1:
			if rng.Float64() < op.P {
				t.ApplyPauli(op.A, pauli.Pauli(1+rng.Intn(3)))
			}
		case OpFlipX:
			if rng.Float64() < op.P {
				t.X(op.A)
			}
		case OpFlipZ:
			if rng.Float64() < op.P {
				t.Z(op.A)
			}
		}
	}
	return rec
}

// noiselessReference strips the noise channels from c and runs the
// remaining Clifford circuit once on the full tableau: the resulting
// record (random measurement outcomes included) is the reference both
// frame samplers flip against.
func noiselessReference(c *Circuit, seed int64) []bool {
	noiseless := &Circuit{N: c.N}
	for _, op := range c.Ops {
		switch op.Kind {
		case OpDepolarize1, OpFlipX, OpFlipZ:
		default:
			noiseless.Ops = append(noiseless.Ops, op)
		}
	}
	return noiseless.SimulateTableau(seed)
}

// FrameSampler is the scalar frame sampler and the oracle for
// BatchFrameSampler: one noiseless tableau run fixes the reference
// record (random measurement outcomes included); per-shot noise then
// propagates as a Pauli frame in O(ops) bit work per shot, flipping
// reference outcomes where the frame anticommutes with the measurement.
// This is the decomposition Stim uses for noisy sampling — correct for
// circuits whose measurement randomness does not feed back into the
// gate sequence.
//
// Records follow the documented (seed, shot-index) contract (see
// compile.go): shot k of seed s is the same bit string no matter which
// sampler draws it or in what order. The scalar path walks the original
// IR with the string-dispatched pauli.Frame conjugations — deliberately
// sharing no gate code with the batch path, so the equivalence tests
// compare two independent implementations.
type FrameSampler struct {
	c    *Circuit
	ref  []bool
	seed int64
	shot int // next shot index
}

// NewFrameSampler builds the sampler (runs the reference simulation).
func NewFrameSampler(c *Circuit, seed int64) *FrameSampler {
	return &FrameSampler{c: c, ref: noiselessReference(c, seed), seed: seed}
}

// Sample draws the record of the cursor's shot index and advances the
// cursor.
func (fs *FrameSampler) Sample() []bool {
	rec := fs.SampleShot(fs.shot)
	fs.shot++
	return rec
}

// SampleShot draws the record of one shot as a pure function of
// (circuit, seed, shot): the replay entry point for reproducing a
// single failing shot out of a batch.
func (fs *FrameSampler) SampleShot(shot int) []bool {
	frame := pauli.NewFrame(fs.c.N)
	rec := make([]bool, 0, len(fs.ref))
	block, lane := shot>>6, uint(shot&63)
	mi, site := 0, 0
	for _, op := range fs.c.Ops {
		switch op.Kind {
		case OpH:
			frame.ConjugateByGate("H", op.A, -1)
		case OpS:
			frame.ConjugateByGate("S", op.A, -1)
		case OpCX:
			frame.ConjugateByGate("CX", op.A, op.B)
		case OpCZ:
			frame.ConjugateByGate("CZ", op.A, op.B)
		case OpX, OpY, OpZ:
			// Deterministic Paulis are part of the reference.
		case OpMeasureZ:
			out := fs.ref[mi]
			if frame.FlipsMeasurement(op.A, pauli.Z) {
				out = !out
			}
			rec = append(rec, out)
			mi++
			// Measurement discards the qubit's phase freedom: the Z
			// component of the frame is absorbed.
			frame.Ops[op.A] &= pauli.X
		case OpReset:
			frame.Ops[op.A] = pauli.I
		case OpDepolarize1:
			st := xrand.NewStream(noiseStreamSeed(fs.seed, site, block))
			xm, zm := depolarizeMasks(&st, xrand.QuantizeProb(op.P))
			frame.Update(op.A, pauli.FromBits(xm>>lane&1 == 1, zm>>lane&1 == 1))
			site++
		case OpFlipX:
			st := xrand.NewStream(noiseStreamSeed(fs.seed, site, block))
			if st.BernoulliWord(xrand.QuantizeProb(op.P))>>lane&1 == 1 {
				frame.Update(op.A, pauli.X)
			}
			site++
		case OpFlipZ:
			st := xrand.NewStream(noiseStreamSeed(fs.seed, site, block))
			if st.BernoulliWord(xrand.QuantizeProb(op.P))>>lane&1 == 1 {
				frame.Update(op.A, pauli.Z)
			}
			site++
		}
	}
	return rec
}
