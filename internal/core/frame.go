package core

import (
	"context"
	"fmt"
	"math/bits"

	"xqsim/internal/decoder"
	"xqsim/internal/pauli"
	"xqsim/internal/stab"
	"xqsim/internal/surface"
)

// memoryTables are the immutable decode-index tables of one compiled
// memory-experiment circuit (surface.MemoryCircuit: `rounds` syndrome
// rounds, then a data readout), shared by every worker's frame or
// stream cell.
type memoryTables struct {
	code   surface.Code
	rounds int
	// roundLen is one syndrome round's measurement count; zOff[k] is the
	// k-th Z-stabilizer's index within a round's block (round r measures
	// it at r*roundLen+zOff[k]), zAnc[k] its plaquette cell.
	roundLen int
	zOff     []int
	zAnc     []surface.Coord
	// logicalMis are the data-readout measurement indices on the
	// logical-Z support.
	logicalMis []int
	// refMask broadcasts each reference bit across all 64 lanes, so
	// flip column = record column XOR refMask.
	refMask []uint64
}

// newMemoryTables validates the distance and round count, compiles the
// memory circuit at physical error rate p into a batch frame sampler for
// the given seed, and builds its decode tables. Errors carry the prefix
// "core: <what>: ".
func newMemoryTables(what string, d int, p float64, rounds int, seed int64) (*memoryTables, *stab.BatchFrameSampler, error) {
	if d < 3 || d%2 == 0 {
		return nil, nil, fmt.Errorf("core: %s: invalid code distance %d", what, d)
	}
	if rounds < 1 {
		return nil, nil, fmt.Errorf("core: %s: rounds must be >= 1, got %d", what, rounds)
	}
	code := surface.NewCode(d)
	bs, err := stab.NewBatchFrameSampler(code.MemoryCircuit(rounds, p, p), seed)
	if err != nil {
		return nil, nil, fmt.Errorf("core: %s: %w", what, err)
	}
	stabs := code.Stabilizers()
	half := len(stabs) / 2 // capacity: half the plaquettes are Z-type
	t := &memoryTables{
		code: code, rounds: rounds, roundLen: len(stabs),
		zOff: make([]int, 0, half), zAnc: make([]surface.Coord, 0, half),
	}
	for i, st := range stabs {
		if st.Basis == pauli.Z {
			t.zOff = append(t.zOff, i)
			t.zAnc = append(t.zAnc, st.Anc)
		}
	}
	dataBase := rounds * len(stabs)
	lz := code.LogicalZ()
	t.logicalMis = make([]int, len(lz))
	for i, q := range lz {
		t.logicalMis[i] = dataBase + code.DataIndex(q)
	}
	t.refMask = make([]uint64, bs.Measurements())
	for i := range t.refMask {
		if bs.RefBit(i) {
			t.refMask[i] = ^uint64(0)
		}
	}
	return t, bs, nil
}

// FrameMemoryCell is one compiled circuit-level memory-experiment cell:
// the gate-level memory circuit (surface.MemoryCircuit with depolarizing
// strength p after every two-qubit gate and readout flip probability p)
// compiled once into the bit-sliced batch frame sampler, plus every
// decode index and scratch buffer the shot loop needs. Rate draws shots
// 64 per machine word and decodes only the lanes that light up, so the
// steady-state cell costs zero heap allocations (pinned by
// TestFrameMemoryCellSteadyStateAllocs).
//
// A cell is single-goroutine; Clone gives each worker its own sampler
// position and scratch over the shared compiled op-stream.
type FrameMemoryCell struct {
	tab *memoryTables //xqlint:shared immutable decode tables built at construction
	bs  *stab.BatchFrameSampler

	// zMis are the final-round Z-plaquette measurement indices, whose
	// flips at tab.zAnc are the decode syndrome. (The final ESM round is
	// noise-free, so its flips are the accumulated data-error parities,
	// the same telescoped detection-event sum the window-parity decode
	// uses.)
	zMis []int //xqlint:shared immutable decode indices built at construction

	syn   *decoder.SyndromeBitmap
	sc    decoder.Scratch
	res   decoder.Result
	fails int
	// fn is the column callback bound once at construction, so the hot
	// loop never materializes a new closure.
	fn func(base, lanes int, cols []uint64)
}

// NewFrameMemoryCell compiles the distance-d memory experiment with
// `rounds` syndrome rounds at physical error rate p. Shot k is fixed by
// the frame sampler's determinism contract for the given seed.
func NewFrameMemoryCell(d int, p float64, rounds int, seed int64) (*FrameMemoryCell, error) {
	tab, bs, err := newMemoryTables("frame memory cell", d, p, rounds, seed)
	if err != nil {
		return nil, err
	}
	c := &FrameMemoryCell{tab: tab, bs: bs, syn: decoder.NewSyndromeBitmap(tab.code)}
	finalBase := (rounds - 1) * tab.roundLen
	c.zMis = make([]int, len(tab.zOff))
	for k, off := range tab.zOff {
		c.zMis[k] = finalBase + off
	}
	c.fn = c.decodeColumns
	return c, nil
}

// Clone returns a cell over the same compiled circuit with its own
// sampler position and decode scratch, for concurrent workers.
func (c *FrameMemoryCell) Clone() *FrameMemoryCell {
	n := *c
	n.bs = c.bs.Clone()
	n.syn = decoder.NewSyndromeBitmap(c.tab.code)
	n.sc = decoder.Scratch{}
	n.res = decoder.Result{}
	n.fn = n.decodeColumns
	return &n
}

// decodeColumns scores one 64-lane record block: a lane fails when the
// decoder's correction does not cancel the data readout's logical-Z
// flip. Only lanes with a detection event or a logical flip can fail, so
// the loop word-skips straight to them; everything else is a guaranteed
// pass — at sub-threshold error rates most blocks cost three XOR sweeps
// and no decode at all.
func (c *FrameMemoryCell) decodeColumns(_, lanes int, cols []uint64) {
	ref, zAnc := c.tab.refMask, c.tab.zAnc
	laneMask := ^uint64(0)
	if lanes < 64 {
		laneMask = uint64(1)<<uint(lanes) - 1
	}
	// Logical-Z flip parity of all 64 lanes at once.
	var parity uint64
	for _, mi := range c.tab.logicalMis {
		parity ^= cols[mi] ^ ref[mi]
	}
	parity &= laneMask
	any := parity
	for _, mi := range c.zMis {
		any |= (cols[mi] ^ ref[mi]) & laneMask
	}
	for m := any; m != 0; m &= m - 1 {
		j := uint(bits.TrailingZeros64(m))
		c.syn.Reset()
		hot := 0
		for k, mi := range c.zMis {
			if (cols[mi]^ref[mi])>>j&1 == 1 {
				c.syn.Set(zAnc[k])
				hot++
			}
		}
		corr := false
		if hot > 0 {
			decoder.DecodePatchInto(c.tab.code, pauli.Z, c.syn, &c.sc, &c.res)
			for _, q := range c.res.Flips {
				if q.Col == 0 {
					corr = !corr
				}
			}
		}
		if (parity>>j&1 == 1) != corr {
			c.fails++
		}
	}
}

// failsIn decodes shots [start, start+n) and returns the failure count.
func (c *FrameMemoryCell) failsIn(start, n int) int {
	c.fails = 0
	c.bs.Seek(start)
	c.bs.SampleColumns(n, c.fn)
	return c.fails
}

// Rate samples the first `shots` shots of the cell's stream and returns
// the logical failure fraction. Repeated calls rewind the sampler and
// return the identical rate.
func (c *FrameMemoryCell) Rate(ctx context.Context, shots int) (float64, error) {
	if shots <= 0 {
		return 0, nil
	}
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	return float64(c.failsIn(0, shots)) / float64(shots), nil
}

// FrameLogicalErrorRate measures the logical Z-memory error rate of a
// distance-d patch under circuit-level noise by direct batch frame
// sampling through a FrameMemoryCell compiled once and cloned per
// worker — no per-shot []bool is ever materialized.
//
// This is the circuit-level counterpart of MemoryExperiment.ErrorRate
// (which drives the microarchitectural backend's phenomenological
// model).
// Shot k of seed s is fixed by the frame sampler's determinism
// contract, so the rate is a pure count: identical under any worker
// scheduling, and any single shot replays via stab.FrameSampler.
// SampleShot on the same circuit and seed.
func FrameLogicalErrorRate(ctx context.Context, d int, p float64, rounds, shots int, seed int64) (float64, error) {
	base, err := NewFrameMemoryCell(d, p, rounds, seed)
	if err != nil {
		return 0, fmt.Errorf("core: frame logical error rate: %w", err)
	}
	if shots <= 0 {
		return 0, nil
	}

	blocks := (shots + 63) / 64
	workers := Workers(blocks)
	cells := perWorker(base, workers)
	fails := make([]int, workers)
	if err := ParallelFor(ctx, blocks, workers, func(w, b int) error {
		fails[w] += cells[w].failsIn(b*64, min(64, shots-b*64))
		return nil
	}); err != nil {
		return 0, err
	}
	total := 0
	for _, f := range fails {
		total += f
	}
	return float64(total) / float64(shots), nil
}
