package core

import (
	"context"
	"fmt"
	"math/bits"

	"xqsim/internal/decoder"
	"xqsim/internal/faults"
	"xqsim/internal/pauli"
	"xqsim/internal/stab"
)

// StreamMemoryConfig configures a real-time streaming memory experiment:
// the distance-d memory circuit's syndrome rounds are replayed one at a
// time through a decoder.StreamDecoder, so the decode backend's latency
// (measured against BudgetCycles per ESM round) feeds the syndrome-buffer
// backlog and, under overload, visibly degrades the logical error rate.
type StreamMemoryConfig struct {
	D         int
	PhysError float64
	Rounds    int
	// Backend is the decode implementation (nil: the exact matcher); each
	// cell installs its own Clone.
	Backend decoder.Backend
	// WindowRounds, BudgetCycles, BufferRounds, and Policy are the
	// streaming-decode knobs (see decoder.StreamConfig). BudgetCycles 0
	// disables latency pressure, reducing the experiment to
	// FrameLogicalErrorRate's whole-shot decode bit-for-bit.
	WindowRounds int
	BudgetCycles uint64
	BufferRounds int
	Policy       faults.Policy
}

// StreamMemoryResult is the outcome of a streamed memory experiment.
type StreamMemoryResult struct {
	// Rate is the logical Z-memory failure fraction.
	Rate float64
	// Shots and Fails are the raw counts behind Rate.
	Shots int
	Fails int
	// Stats aggregates the per-shot stream accounting (integer sums, so
	// the reduction is order-independent under parallel workers; the two
	// Max fields take the maximum instead).
	Stats decoder.StreamStats
}

// StreamMemoryCell is the streaming counterpart of FrameMemoryCell: the
// same compiled bit-sliced batch sampler, but failing lanes replay their
// syndrome rounds through a StreamDecoder instead of decoding the final
// accumulated syndrome in one shot. Lanes with no detection events and no
// logical flip are skipped exactly as in FrameMemoryCell — a quiet lane's
// windows all decode empty syndromes at zero cycles, so skipping it
// cannot change drops, stats beyond round counts, or the verdict.
//
// A cell is single-goroutine; Clone gives each worker its own sampler
// position, stream decoder, and backend scratch.
type StreamMemoryCell struct {
	cfg StreamMemoryConfig
	tab *memoryTables //xqlint:shared immutable decode tables built at construction
	bs  *stab.BatchFrameSampler

	sd     *decoder.StreamDecoder
	events *decoder.SyndromeBitmap
	prev   []uint8 // previous round's flip bit per Z-stabilizer
	fails  int
	stats  decoder.StreamStats
	fn     func(base, lanes int, cols []uint64)
}

// NewStreamMemoryCell compiles the memory experiment and builds the
// stream decoder. Shot k is fixed by the frame sampler's determinism
// contract for the given seed.
func NewStreamMemoryCell(cfg StreamMemoryConfig, seed int64) (*StreamMemoryCell, error) {
	tab, bs, err := newMemoryTables("stream memory cell", cfg.D, cfg.PhysError, cfg.Rounds, seed)
	if err != nil {
		return nil, err
	}
	backend := cfg.Backend
	if backend == nil {
		backend = decoder.NewMatchingBackend()
	}
	sd, err := decoder.NewStreamDecoder(decoder.StreamConfig{
		Code: tab.code, Basis: pauli.Z, Backend: backend.Clone(),
		WindowRounds: cfg.WindowRounds, BudgetCycles: cfg.BudgetCycles,
		BufferRounds: cfg.BufferRounds, Policy: cfg.Policy,
	})
	if err != nil {
		return nil, fmt.Errorf("core: stream memory cell: %w", err)
	}
	c := &StreamMemoryCell{
		cfg: cfg, tab: tab, bs: bs, sd: sd,
		events: decoder.NewSyndromeBitmap(tab.code),
		prev:   make([]uint8, len(tab.zOff)),
	}
	c.fn = c.decodeColumns
	return c, nil
}

// Clone returns a cell over the same compiled circuit with its own
// sampler position, stream decoder, and backend scratch, for concurrent
// workers.
func (c *StreamMemoryCell) Clone() *StreamMemoryCell {
	n := *c
	n.bs = c.bs.Clone()
	sd, err := decoder.NewStreamDecoder(decoder.StreamConfig{
		Code: c.tab.code, Basis: pauli.Z, Backend: c.sd.Backend().Clone(),
		WindowRounds: c.cfg.WindowRounds, BudgetCycles: c.cfg.BudgetCycles,
		BufferRounds: c.cfg.BufferRounds, Policy: c.cfg.Policy,
	})
	if err != nil {
		//xqlint:ignore nopanic the source cell validated this exact config; a failure here is a programming error
		panic(err)
	}
	n.sd = sd
	n.events = decoder.NewSyndromeBitmap(c.tab.code)
	n.prev = make([]uint8, len(c.prev))
	n.fn = n.decodeColumns
	return &n
}

// decodeColumns scores one 64-lane record block. A lane is replayed
// through the stream decoder only when some round's Z-flip column or the
// logical readout lights up; all-quiet lanes are guaranteed passes whose
// streamed windows would all decode empty at zero cycles.
func (c *StreamMemoryCell) decodeColumns(_, lanes int, cols []uint64) {
	t := c.tab
	ref := t.refMask
	laneMask := ^uint64(0)
	if lanes < 64 {
		laneMask = uint64(1)<<uint(lanes) - 1
	}
	var parity uint64
	for _, mi := range t.logicalMis {
		parity ^= cols[mi] ^ ref[mi]
	}
	parity &= laneMask
	any := parity
	for r := 0; r < t.rounds; r++ {
		base := r * t.roundLen
		for _, off := range t.zOff {
			mi := base + off
			any |= (cols[mi] ^ ref[mi]) & laneMask
		}
	}
	for m := any; m != 0; m &= m - 1 {
		j := uint(bits.TrailingZeros64(m))
		c.sd.Reset()
		for k := range c.prev {
			c.prev[k] = 0
		}
		for r := 0; r < t.rounds; r++ {
			base := r * t.roundLen
			c.events.Reset()
			hot := false
			for k, off := range t.zOff {
				mi := base + off
				flip := uint8((cols[mi] ^ ref[mi]) >> j & 1)
				if flip != c.prev[k] {
					c.events.Set(t.zAnc[k])
					hot = true
				}
				c.prev[k] = flip
			}
			// The physical stream always advances; a dropped round just
			// never delivers its events to the decoder.
			if hot {
				c.sd.Round(c.events)
			} else {
				c.sd.Round(nil)
			}
		}
		res := c.sd.Finish()
		corr := false
		for _, q := range res.Flips {
			if q.Col == 0 {
				corr = !corr
			}
		}
		if (parity>>j&1 == 1) != corr {
			c.fails++
		}
		c.stats.Add(c.sd.Stats())
	}
}

// failsIn streams shots [start, start+n) and returns the failure count.
func (c *StreamMemoryCell) failsIn(start, n int) int {
	c.fails = 0
	c.bs.Seek(start)
	c.bs.SampleColumns(n, c.fn)
	return c.fails
}

// Run streams the first `shots` shots and returns the result. Repeated
// calls rewind the sampler and return the identical result.
func (c *StreamMemoryCell) Run(ctx context.Context, shots int) (StreamMemoryResult, error) {
	if shots <= 0 {
		return StreamMemoryResult{}, nil
	}
	if err := ctx.Err(); err != nil {
		return StreamMemoryResult{}, err
	}
	c.stats = decoder.StreamStats{}
	fails := c.failsIn(0, shots)
	return StreamMemoryResult{
		Rate:  float64(fails) / float64(shots),
		Shots: shots,
		Fails: fails,
		Stats: c.stats,
	}, nil
}

// StreamLogicalErrorRate measures the logical Z-memory error rate of a
// distance-d patch with the syndrome stream replayed in real time through
// a windowed decode backend. With BudgetCycles 0 (no latency pressure) it
// reproduces FrameLogicalErrorRate bit-for-bit (pinned by
// TestStreamMemoryMatchesFrame); with a finite budget, windows that
// overrun queue rounds in the syndrome buffer and the overflow policy
// turns the backlog into dropped rounds (degrading Rate) or backpressure.
// Shot k of seed s is fixed by the frame sampler's determinism contract,
// so the counts are identical under any worker scheduling.
func StreamLogicalErrorRate(ctx context.Context, cfg StreamMemoryConfig, shots int, seed int64) (StreamMemoryResult, error) {
	base, err := NewStreamMemoryCell(cfg, seed)
	if err != nil {
		return StreamMemoryResult{}, fmt.Errorf("core: stream logical error rate: %w", err)
	}
	if shots <= 0 {
		return StreamMemoryResult{}, nil
	}

	// base is fresh, so every worker's cell starts with zero stats and
	// serves as that worker's stats tally.
	blocks := (shots + 63) / 64
	workers := Workers(blocks)
	cells := perWorker(base, workers)
	fails := make([]int, workers)
	if err := ParallelFor(ctx, blocks, workers, func(w, b int) error {
		fails[w] += cells[w].failsIn(b*64, min(64, shots-b*64))
		return nil
	}); err != nil {
		return StreamMemoryResult{}, err
	}
	out := StreamMemoryResult{Shots: shots}
	for w, c := range cells {
		out.Fails += fails[w]
		out.Stats.Add(c.stats)
	}
	out.Rate = float64(out.Fails) / float64(shots)
	return out, nil
}
