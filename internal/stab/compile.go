package stab

import (
	"fmt"

	"xqsim/internal/xrand"
)

// This file implements the bit-sliced batch frame sampler: a one-time
// compiler lowers Circuit.Ops into a flat op-stream, and
// BatchFrameSampler propagates 64 Pauli frames per machine word over
// that stream. It is the production Monte-Carlo path; the scalar
// FrameSampler walking the original IR remains as the oracle.
//
// # Determinism contract
//
// The (seed, shot-index) -> record mapping is a pure function, shared
// bit-for-bit by the scalar and batch samplers and frozen so replay
// seeds (including the PR-4 fault machinery's per-shot repro seeds)
// keep reproducing individual shots:
//
//   - The reference record is the noiseless tableau run
//     SimulateTableau(seed) of the circuit with noise channels removed.
//   - Shots are grouped into blocks of 64: block = shot>>6, with the
//     shot occupying lane = shot&63 (bit `lane` of each frame word).
//   - Noise channels are numbered by site: the program-order index of
//     the channel among all noise operations in Circuit.Ops (including
//     p=0 channels, which consume no randomness).
//   - Each (site, block) pair owns a private xoshiro stream seeded
//     xrand.Mix(seed+noiseSeedSalt, site, block). A site draws its
//     64-lane Bernoulli masks from that stream and nothing else, so a
//     shot's record depends only on (seed, shot) — never on how many
//     shots were drawn before it, batch sizes, or evaluation order.
//   - Depolarizing sites draw, in order: the hit mask for p, then —
//     only if the whole 64-lane hit word is nonzero — a Bernoulli(1/3)
//     word and one uniform word selecting X/Y/Z per lane (see
//     depolarizeMasks). Conditioning on the full word, not the lane,
//     keeps the draw count computable by both samplers.
//
// Changing any part of this mapping invalidates stored replay seeds;
// TestFrameSamplerContractPinned pins sampled records to frozen values.

// noiseSeedSalt decorrelates the per-(site, block) noise streams from
// the other streams derived from the same user seed: the tableau
// measurement stream (seed), its noise stream (seed+0x9e3779b9), and
// the retired sequential frame stream (seed+1).
const noiseSeedSalt = 0x51a07d43

// noiseStreamSeed derives the private stream seed for one noise site in
// one 64-shot block.
func noiseStreamSeed(seed int64, site, block int) int64 {
	return xrand.Mix(seed+noiseSeedSalt, uint64(site), uint64(block))
}

// probThird is the quantized probability of choosing X at a hit
// depolarizing site. Quantization makes P(X) differ from 1/3 by
// ~3e-10 (P(Y) and P(Z) split the remainder evenly) — far below
// Monte-Carlo resolution at any reachable shot count.
var probThird = xrand.QuantizeProb(1.0 / 3)

// depolarizeMasks draws one depolarizing site's 64-lane X/Z flip masks
// for quantized probability m. Both samplers funnel through this
// function, which fixes the site's draw order: hit mask, then (only if
// any lane hit) the X-choice mask and one uniform word. Per hit lane,
// the channel applies X with probability probThird/2^ProbBits and Y or
// Z with half the remainder each.
func depolarizeMasks(st *xrand.Stream, m uint32) (xm, zm uint64) {
	hit := st.BernoulliWord(m)
	if hit == 0 {
		return 0, 0
	}
	choice := st.BernoulliWord(probThird) // lanes choosing X
	w := st.Uint64()                      // splits the rest into Y/Z
	return hit & (choice | w), hit &^ choice
}

// frameOpKind is the compiled opcode set. It is denser than OpKind:
// deterministic Paulis vanish at compile time (they live in the
// reference record) and the FlipX;MeasureZ pair every ESM round ends
// with is fused into one opcode.
type frameOpKind uint8

const (
	fopH frameOpKind = iota
	fopS
	fopCX
	fopCZ
	fopMeasure
	fopReset
	fopDepolarize
	fopFlipX
	fopFlipZ
	// fopFlipXMeasure is a fused FlipX immediately followed by MeasureZ
	// on the same qubit (the measurement-noise idiom of ESM circuits).
	fopFlipXMeasure
)

// frameOp is one compiled operation. Qubits, the measurement index and
// the noise-site index are resolved and bounds-checked at compile time,
// so the block loop runs with no per-op validation, no map lookups and
// a dense jump table instead of the scalar path's string-dispatched
// gate conjugation.
type frameOp struct {
	kind frameOpKind
	a, b int32  // qubit operands
	mi   int32  // measurement index (fopMeasure, fopFlipXMeasure)
	site int32  // noise-site index (noise opcodes)
	m    uint32 // quantized probability numerator (noise opcodes)
}

// FrameProgram is a circuit lowered for batch frame propagation.
type FrameProgram struct {
	n     int // qubit count
	meas  int // measurement record length
	sites int // noise sites in the source circuit (p=0 sites included)
	ops   []frameOp
}

// CompileFrame lowers the circuit into a FrameProgram. It returns an
// error (rather than compiling a diverging program) for circuits the
// frame decomposition cannot represent faithfully: out-of-range qubit
// operands and two-qubit gates with identical operands.
func (c *Circuit) CompileFrame() (*FrameProgram, error) {
	p := &FrameProgram{n: c.N, ops: make([]frameOp, 0, len(c.Ops))}
	check := func(q int) error {
		if q < 0 || q >= c.N {
			return fmt.Errorf("stab: compile: qubit %d out of range [0,%d)", q, c.N)
		}
		return nil
	}
	for i, op := range c.Ops {
		if err := check(op.A); err != nil {
			return nil, fmt.Errorf("op %d: %w", i, err)
		}
		a := int32(op.A)
		switch op.Kind {
		case OpH:
			p.ops = append(p.ops, frameOp{kind: fopH, a: a})
		case OpS:
			p.ops = append(p.ops, frameOp{kind: fopS, a: a})
		case OpCX, OpCZ:
			if err := check(op.B); err != nil {
				return nil, fmt.Errorf("op %d: %w", i, err)
			}
			if op.A == op.B {
				return nil, fmt.Errorf("stab: compile: op %d: two-qubit gate with identical operands (qubit %d)", i, op.A)
			}
			k := fopCX
			if op.Kind == OpCZ {
				k = fopCZ
			}
			p.ops = append(p.ops, frameOp{kind: k, a: a, b: int32(op.B)})
		case OpX, OpY, OpZ:
			// Deterministic Paulis commute through the frame into the
			// reference record; the compiled stream drops them.
		case OpMeasureZ:
			mi := int32(p.meas)
			p.meas++
			// Fuse the ESM measurement-noise idiom FlipX(q); MeasureZ(q).
			if n := len(p.ops); n > 0 && p.ops[n-1].kind == fopFlipX && p.ops[n-1].a == a {
				p.ops[n-1].kind = fopFlipXMeasure
				p.ops[n-1].mi = mi
				continue
			}
			p.ops = append(p.ops, frameOp{kind: fopMeasure, a: a, mi: mi})
		case OpReset:
			p.ops = append(p.ops, frameOp{kind: fopReset, a: a})
		case OpDepolarize1, OpFlipX, OpFlipZ:
			site := int32(p.sites)
			p.sites++
			m := xrand.QuantizeProb(op.P)
			if m == 0 {
				// A p=0 channel draws nothing and flips nothing; it only
				// occupies a site number, which is already recorded.
				continue
			}
			k := fopDepolarize
			switch op.Kind {
			case OpFlipX:
				k = fopFlipX
			case OpFlipZ:
				k = fopFlipZ
			default:
			}
			p.ops = append(p.ops, frameOp{kind: k, a: a, site: site, m: m})
		default:
			return nil, fmt.Errorf("stab: compile: op %d: unknown op kind %d", i, op.Kind)
		}
	}
	return p, nil
}

// BatchFrameSampler draws measurement records 64 shots at a time by
// propagating bit-sliced Pauli frames over a compiled FrameProgram:
// xf[q] and zf[q] hold the X- and Z-components of 64 shots' frames on
// qubit q, one shot per bit lane, so each gate conjugation is one or
// two word-wide XOR/AND identities and each noise channel is a
// Bernoulli bitmask. See the determinism contract at the top of this
// file for the exact (seed, shot) -> record mapping, which matches
// FrameSampler bit for bit.
//
// The sampler keeps a shot cursor: Sample* calls consume consecutive
// shot indices, and Seek repositions the cursor at O(1) cost (blocks
// are self-seeded, so no state has to be replayed).
type BatchFrameSampler struct {
	prog    *FrameProgram //xqlint:shared compiled op-stream is write-once; clones replay it read-only
	seed    int64
	ref     []bool   //xqlint:shared noiseless reference record is write-once
	refMask []uint64 // per measurement: all-ones when the reference bit is 1
	xf, zf  []uint64 // bit-sliced frame components, one word per qubit
	cols    []uint64 // current block's record columns, one word per measurement
	out     []uint64 // delivery scratch for SampleColumns
	rows    []uint64 // transposed block records: 64 shots x ceil(meas/64) words
	cur     int      // block held in cols, -1 when none
	next    int      // next shot index
}

// NewBatchFrameSampler compiles the circuit and builds the batch
// sampler (running the noiseless reference simulation). It fails only
// when CompileFrame rejects the circuit.
func NewBatchFrameSampler(c *Circuit, seed int64) (*BatchFrameSampler, error) {
	prog, err := c.CompileFrame()
	if err != nil {
		return nil, err
	}
	return newBatchSampler(prog, seed, noiselessReference(c, seed)), nil
}

// newBatchSampler wires a compiled program to an already-computed
// reference record (FrameSampler reuses its own reference this way).
func newBatchSampler(prog *FrameProgram, seed int64, ref []bool) *BatchFrameSampler {
	bs := &BatchFrameSampler{
		prog:    prog,
		seed:    seed,
		ref:     ref,
		refMask: make([]uint64, prog.meas),
		xf:      make([]uint64, prog.n),
		zf:      make([]uint64, prog.n),
		cols:    make([]uint64, prog.meas),
		out:     make([]uint64, prog.meas),
		rows:    make([]uint64, 64*((prog.meas+63)/64)),
		cur:     -1,
	}
	for i, b := range ref {
		if b {
			bs.refMask[i] = ^uint64(0)
		}
	}
	return bs
}

// Clone returns an independent sampler sharing the immutable compiled
// program and reference record with bs — the parallel-consumer idiom:
// compile and simulate the reference once, hand one Clone per worker,
// Seek each to a disjoint shot range. Individual samplers are not
// goroutine-safe; clones are independent. The clone's cursor starts at
// shot 0.
func (bs *BatchFrameSampler) Clone() *BatchFrameSampler {
	return newBatchSampler(bs.prog, bs.seed, bs.ref)
}

// Measurements returns the record length of one shot.
func (bs *BatchFrameSampler) Measurements() int { return bs.prog.meas }

// Reference returns a copy of the noiseless reference record. Hot loops
// should call it once or use RefBit.
func (bs *BatchFrameSampler) Reference() []bool { return append([]bool(nil), bs.ref...) }

// RefBit returns bit i of the reference record without allocating.
func (bs *BatchFrameSampler) RefBit(i int) bool { return bs.ref[i] }

// Seek positions the cursor so the next Sample* call starts at shot.
// Records are a pure function of (seed, shot), so seeking is exact and
// O(1); negative shots are clamped to 0.
func (bs *BatchFrameSampler) Seek(shot int) {
	if shot < 0 {
		shot = 0
	}
	bs.next = shot
}

// runBlock propagates the 64 frames of one shot block through the
// compiled stream, leaving the block's raw record columns in bs.cols:
// bit lane j of cols[mi] is measurement mi of shot block*64+j.
//
//xqlint:noalloc the 64-shot frame propagation inner loop
func (bs *BatchFrameSampler) runBlock(block int) {
	if bs.cur == block {
		return
	}
	xf, zf, cols := bs.xf, bs.zf, bs.cols
	for i := range xf {
		xf[i] = 0
	}
	for i := range zf {
		zf[i] = 0
	}
	for i := range bs.prog.ops {
		op := &bs.prog.ops[i]
		switch op.kind {
		case fopH:
			// H swaps X and Z components.
			xf[op.a], zf[op.a] = zf[op.a], xf[op.a]
		case fopS:
			// S maps X -> Y: the Z component absorbs the X component.
			zf[op.a] ^= xf[op.a]
		case fopCX:
			// X_c -> X_c X_t, Z_t -> Z_c Z_t.
			xf[op.b] ^= xf[op.a]
			zf[op.a] ^= zf[op.b]
		case fopCZ:
			// X_c -> X_c Z_t, X_t -> Z_c X_t.
			zf[op.b] ^= xf[op.a]
			zf[op.a] ^= xf[op.b]
		case fopMeasure:
			cols[op.mi] = bs.refMask[op.mi] ^ xf[op.a]
			zf[op.a] = 0 // measurement absorbs the phase freedom
		case fopReset:
			xf[op.a] = 0
			zf[op.a] = 0
		case fopDepolarize:
			st := xrand.NewStream(noiseStreamSeed(bs.seed, int(op.site), block))
			xm, zm := depolarizeMasks(&st, op.m)
			xf[op.a] ^= xm
			zf[op.a] ^= zm
		case fopFlipX:
			st := xrand.NewStream(noiseStreamSeed(bs.seed, int(op.site), block))
			xf[op.a] ^= st.BernoulliWord(op.m)
		case fopFlipZ:
			st := xrand.NewStream(noiseStreamSeed(bs.seed, int(op.site), block))
			zf[op.a] ^= st.BernoulliWord(op.m)
		case fopFlipXMeasure:
			st := xrand.NewStream(noiseStreamSeed(bs.seed, int(op.site), block))
			xf[op.a] ^= st.BernoulliWord(op.m)
			cols[op.mi] = bs.refMask[op.mi] ^ xf[op.a]
			zf[op.a] = 0
		}
	}
	bs.cur = block
}

// SampleColumns draws the next n shots and hands them to fn column-wise
// in up to ceil(n/64)+1 chunks: lane j of cols[mi] is measurement mi of
// shot base+j, for j < lanes. Bits at lanes and above are zero, cols is
// a scratch buffer valid only during the callback, and chunks are
// 64-aligned except possibly the first (when the cursor starts
// mid-block) and the last. This is the allocation-free bulk API —
// consumers that reduce whole words (syndrome densities, parity
// accumulators, SyndromeBitmap fills) read the columns directly and
// never materialize per-shot records.
func (bs *BatchFrameSampler) SampleColumns(n int, fn func(base, lanes int, cols []uint64)) {
	for n > 0 {
		block, off := bs.next>>6, bs.next&63
		lanes := 64 - off
		if lanes > n {
			lanes = n
		}
		bs.runBlock(block)
		if off == 0 && lanes == 64 {
			copy(bs.out, bs.cols)
		} else {
			mask := uint64(1)<<uint(lanes) - 1
			for i, w := range bs.cols {
				bs.out[i] = w >> uint(off) & mask
			}
		}
		fn(bs.next, lanes, bs.out)
		bs.next += lanes
		n -= lanes
	}
}

// SampleInto draws the next n shots and hands each shot's record to fn
// row-wise. rec is reused across calls — fn must copy it to retain it.
// Blocks are transposed 64x64 bits at a time, so the per-shot cost is
// O(meas/64) words plus the bool unpack.
func (bs *BatchFrameSampler) SampleInto(n int, fn func(shot int, rec []bool)) {
	meas := bs.prog.meas
	chunks := (meas + 63) / 64
	rec := make([]bool, meas)
	for n > 0 {
		block, off := bs.next>>6, bs.next&63
		lanes := 64 - off
		if lanes > n {
			lanes = n
		}
		bs.runBlock(block)
		bs.transposeBlock(chunks)
		for j := 0; j < lanes; j++ {
			row := bs.rows[(off+j)*chunks : (off+j+1)*chunks]
			for mi := 0; mi < meas; mi++ {
				rec[mi] = row[mi>>6]>>(uint(mi)&63)&1 == 1
			}
			fn(bs.next+j, rec)
		}
		bs.next += lanes
		n -= lanes
	}
}

// transposeBlock converts the current block's record columns into
// per-shot rows: after the call, bit mi&63 of
// rows[lane*chunks + mi>>6] is measurement mi of shot lane.
//
//xqlint:noalloc scratch is a fixed-size stack array
func (bs *BatchFrameSampler) transposeBlock(chunks int) {
	var buf [64]uint64
	for c := 0; c < chunks; c++ {
		lo := c * 64
		hi := lo + 64
		if hi > bs.prog.meas {
			hi = bs.prog.meas
		}
		n := copy(buf[:], bs.cols[lo:hi])
		for i := n; i < 64; i++ {
			buf[i] = 0
		}
		transpose64(&buf)
		for lane := 0; lane < 64; lane++ {
			bs.rows[lane*chunks+c] = buf[lane]
		}
	}
}

// transpose64 transposes a 64x64 bit matrix in place (the recursive
// block-swap of Hacker's Delight §7-3, widened to 64 bits): afterwards
// bit i of a[j] equals the former bit j of a[i].
func transpose64(a *[64]uint64) {
	m := uint64(0x00000000FFFFFFFF)
	for j := 32; j != 0; j, m = j>>1, m^(m<<uint(j>>1)) {
		// Swap the high bit-block of a[k] with the low bit-block of
		// a[k+j] (the LSB-order mirror of Hacker's Delight's MSB-order
		// formulation, so bit 0 is row 0 rather than row 63).
		for k := 0; k < 64; k = (k + j + 1) &^ j {
			t := (a[k]>>uint(j) ^ a[k+j]) & m
			a[k] ^= t << uint(j)
			a[k+j] ^= t
		}
	}
}
