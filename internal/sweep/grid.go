package sweep

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"strconv"
	"strings"

	"xqsim/internal/core"
	"xqsim/internal/faults"
	"xqsim/internal/xrand"
)

// Grid kinds. A grid is a rectangle of independent memory-experiment
// cells over (code distance, physical error rate); the kind picks the
// noise model and execution engine per cell.
const (
	// GridThreshold runs the phenomenological memory experiment through
	// the cycle-accurate backend (core.MemoryExperiment), the same loop
	// ThresholdStudy drives. Rounds defaults to 3 decode windows.
	GridThreshold = "threshold"
	// GridCircuit runs the circuit-level memory experiment through the
	// bit-sliced batch frame sampler (core.FrameMemoryCell). Rounds
	// defaults to the cell's code distance.
	GridCircuit = "circuit"
)

// GridKinds lists the valid GridSpec.Kind values.
func GridKinds() []string { return []string{GridCircuit, GridThreshold} }

// DefaultGridTrials is the per-cell trial/shot count used when a spec
// leaves Trials 0.
const DefaultGridTrials = 256

// maxGridCells bounds a grid so a typo'd spec cannot ask the lease
// coordinator to track millions of durable records.
const maxGridCells = 1 << 20

// maxGridRounds bounds a spec's rounds. A circuit cell compiles its
// whole memory circuit before sampling, so its memory grows linearly in
// rounds: at 64 trials one cell peaks at 22 MB RSS for 1,000 rounds at
// d=3, and at 474 MB (5.2 s on 2 vCPUs) for 1,000 rounds at d=15; 10^8
// rounds at d=3 dies out of memory. A threshold cell's memory stays flat,
// but at d=15 its 64 trials take about 1.2 ms more per round (decode
// window). Every default (3 windows, or d ESM rounds up to
// core.MaxDistance) is far below the bound.
const maxGridRounds = 1000

// maxGridTrials bounds a spec's trials. A cell's memory stays flat in
// trials (a d=3 circuit cell asked for 10^8 held 7.8 MB RSS while it
// ran), but its time grows linearly: on 2 vCPUs a d=3 circuit cell takes 0.45 s at
// 10^6 trials and a d=15 one 0.81 s at 6,400 trials, so 10^6 trials at
// d=15 take about 2 minutes and 10^8 over 3 hours, one lease renewal
// after another. Every grid built here (the 256 default, 64 to 2,048 in
// the benchmarks, scripts and tests) is far below the bound.
const maxGridTrials = 1000000

// GridSpec describes a parameter grid of independent cells: the cross
// product of code distances and physical error rates, in the order
// given. The JSON schema is pinned — it is the wire format for grid
// submission to xqd, the header line of shard JSONL files, and the
// input to the content-address Hash — so field order and tags must not
// change.
//
// Cell enumeration is row-major over (Ds outer, Ps inner): cell index
// i maps to (Ds[i/len(Ps)], Ps[i%len(Ps)]). Every cell derives its own
// seed as xrand.Mix(Seed, uint64(i)), so a cell is a pure function of
// (normalized spec, index) no matter which process runs it — the
// property that makes shard outputs merge to bytes identical to a
// single-process run.
type GridSpec struct {
	Kind string `json:"kind"`
	// Ds are the code distances (odd, >= 3), in sweep order.
	Ds []int `json:"d"`
	// Ps are the physical error rates, in sweep order.
	Ps []float64 `json:"p"`
	// Rounds is the syndrome-round / decode-window count per trial;
	// 0 selects the kind's default (3 for threshold, d for circuit). At
	// most maxGridRounds.
	Rounds int `json:"rounds"`
	// Trials is the per-cell trial (threshold) or shot (circuit) count;
	// 0 selects DefaultGridTrials. At most maxGridTrials.
	Trials int `json:"trials"`
	// Seed is the base seed every cell seed is mixed from.
	Seed int64 `json:"seed"`
}

// Normalize fills defaults and validates the spec. The normalized form
// is the canonical identity: Hash and all cell enumeration must be
// taken on a normalized spec.
func (g GridSpec) Normalize() (GridSpec, error) {
	switch g.Kind {
	case GridThreshold, GridCircuit:
	default:
		return g, fmt.Errorf("sweep: unknown grid kind %q (have %v)", g.Kind, GridKinds())
	}
	if len(g.Ds) == 0 {
		return g, fmt.Errorf("sweep: grid has no code distances")
	}
	for _, d := range g.Ds {
		if err := core.CheckCode(d, 0); err != nil {
			return g, fmt.Errorf("sweep: grid: %w", err)
		}
	}
	if len(g.Ps) == 0 {
		return g, fmt.Errorf("sweep: grid has no error rates")
	}
	for _, p := range g.Ps {
		if !(p > 0 && p < 1) {
			return g, fmt.Errorf("sweep: invalid physical error rate %g (want 0 < p < 1)", p)
		}
	}
	if g.Rounds < 0 || g.Rounds > maxGridRounds {
		return g, fmt.Errorf("sweep: invalid rounds %d (want 0 to %d)", g.Rounds, maxGridRounds)
	}
	if g.Trials == 0 {
		g.Trials = DefaultGridTrials
	}
	if g.Trials < 0 || g.Trials > maxGridTrials {
		return g, fmt.Errorf("sweep: invalid trials %d (want 0 to %d)", g.Trials, maxGridTrials)
	}
	if n := len(g.Ds) * len(g.Ps); n > maxGridCells {
		return g, fmt.Errorf("sweep: grid has %d cells, max %d", n, maxGridCells)
	}
	return g, nil
}

// Hash is the grid's content address: the SHA-256 of the normalized
// spec's pinned JSON. Identical studies submitted from different
// machines land on the same grid.
func (g GridSpec) Hash() string {
	b, err := json.Marshal(g)
	if err != nil {
		// GridSpec has no unmarshalable fields; keep the signature clean.
		return "unhashable"
	}
	sum := sha256.Sum256(b)
	return fmt.Sprintf("%x", sum[:8])
}

// NumCells is the grid size.
func (g GridSpec) NumCells() int { return len(g.Ds) * len(g.Ps) }

// Cell resolves cell i of the grid: its parameters and its derived
// seed. i must be in [0, NumCells()).
func (g GridSpec) Cell(i int) Cell {
	d := g.Ds[i/len(g.Ps)]
	rounds := g.Rounds
	if rounds == 0 {
		rounds = 3
		if g.Kind == GridCircuit {
			rounds = d
		}
	}
	return Cell{
		Index:  i,
		D:      d,
		P:      g.Ps[i%len(g.Ps)],
		Rounds: rounds,
		Trials: g.Trials,
		Seed:   xrand.Mix(g.Seed, uint64(i)),
	}
}

// ShardCells returns shard `shard` of `of`: the cells whose index is
// congruent to shard mod of, ascending. Round-robin assignment keeps
// every shard sampling the whole (d, p) rectangle, so shard run times
// stay balanced even when large-d cells dominate; when NumCells is not
// a multiple of `of` the trailing shards are one cell short (the
// "ragged last shard").
func (g GridSpec) ShardCells(shard, of int) ([]Cell, error) {
	if of < 1 || shard < 0 || shard >= of {
		return nil, fmt.Errorf("sweep: invalid shard %d/%d", shard, of)
	}
	var out []Cell
	for i := shard; i < g.NumCells(); i += of {
		out = append(out, g.Cell(i))
	}
	return out, nil
}

// ParseShard parses an "i/N" shard selector. The empty string means
// the whole grid (0/1).
func ParseShard(s string) (shard, of int, err error) {
	if s == "" {
		return 0, 1, nil
	}
	i := strings.IndexByte(s, '/')
	if i < 0 {
		return 0, 0, fmt.Errorf("sweep: shard %q is not i/N", s)
	}
	shard, err = strconv.Atoi(s[:i])
	if err != nil {
		return 0, 0, fmt.Errorf("sweep: shard %q is not i/N", s)
	}
	of, err = strconv.Atoi(s[i+1:])
	if err != nil {
		return 0, 0, fmt.Errorf("sweep: shard %q is not i/N", s)
	}
	if of < 1 || shard < 0 || shard >= of {
		return 0, 0, fmt.Errorf("sweep: shard %d/%d out of range", shard, of)
	}
	return shard, of, nil
}

// FlagString renders the spec as the xqsweep flag set that reproduces
// it — the full flag-grid reference embedded in CSV output.
func (g GridSpec) FlagString() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "-grid %s -d %s -p %s", g.Kind, joinInts(g.Ds), joinFloats(g.Ps))
	fmt.Fprintf(&sb, " -rounds %d -trials %d -seed %d", g.Rounds, g.Trials, g.Seed)
	return sb.String()
}

func joinInts(xs []int) string {
	var sb strings.Builder
	for i, x := range xs {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(strconv.Itoa(x))
	}
	return sb.String()
}

func joinFloats(xs []float64) string {
	var sb strings.Builder
	for i, x := range xs {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(strconv.FormatFloat(x, 'g', -1, 64))
	}
	return sb.String()
}

// Cell is one resolved grid cell: everything a worker needs to run it,
// with the defaults filled and the per-cell seed mixed in. The JSON
// schema is pinned (it rides the xqd lease protocol).
type Cell struct {
	Index  int     `json:"index"`
	D      int     `json:"d"`
	P      float64 `json:"p"`
	Rounds int     `json:"rounds"`
	Trials int     `json:"trials"`
	Seed   int64   `json:"seed"`
}

// CellResult is one completed cell. The JSON schema is pinned: its
// bytes are the unit of the bit-identical merge contract, so the
// record holds only deterministic fields — wall-clock timings travel
// separately (CellTiming, CSV only).
type CellResult struct {
	Index  int     `json:"index"`
	D      int     `json:"d"`
	P      float64 `json:"p"`
	Rounds int     `json:"rounds"`
	Trials int     `json:"trials"`
	Seed   int64   `json:"seed"`
	// Rate is the measured logical error rate: a failure count over
	// Trials, so it is an exact dyadic value reproduced bit-for-bit by
	// any process that runs the cell.
	Rate float64 `json:"rate"`
}

// CellTiming is one cell's per-phase wall-clock split: BuildNs covers
// construction/compilation (circuit lowering, sampler or backend
// setup), RunNs the trial loop. Timings are diagnostics, never part of
// the pinned result bytes.
type CellTiming struct {
	BuildNs int64
	RunNs   int64
}

// TotalNs is the cell's end-to-end latency.
func (t CellTiming) TotalNs() int64 { return t.BuildNs + t.RunNs }

// ValidateCell checks that a reported result's parameter fields match
// what the spec derives for its index — the guard the lease
// coordinator runs before accepting a completion, so a buggy or
// mismatched worker cannot poison a grid.
func (g GridSpec) ValidateCell(c CellResult) error {
	if c.Index < 0 || c.Index >= g.NumCells() {
		return fmt.Errorf("sweep: cell index %d out of range [0, %d)", c.Index, g.NumCells())
	}
	want := g.Cell(c.Index)
	//xqlint:ignore floateq exact identity check: P is copied verbatim from the spec (JSON float round-trip is exact)
	if c.D != want.D || c.P != want.P || c.Rounds != want.Rounds || c.Trials != want.Trials || c.Seed != want.Seed {
		return fmt.Errorf("sweep: cell %d does not match the grid spec (got d=%d p=%g rounds=%d trials=%d seed=%d, want d=%d p=%g rounds=%d trials=%d seed=%d)",
			c.Index, c.D, c.P, c.Rounds, c.Trials, c.Seed, want.D, want.P, want.Rounds, want.Trials, want.Seed)
	}
	return nil
}

// RunGridCell executes one cell. The result is a pure function of
// (normalized spec, cell.Index): the threshold kind replays the
// MemoryExperiment trial loop (deterministic under any worker
// scheduling), the circuit kind replays the batch frame sampler's
// (seed, shot) contract. clock, when non-nil, supplies monotonic
// nanosecond readings for the phase timings (callers outside the
// determinism boundary pass a time.Now-based clock; nil leaves the
// timings zero).
func RunGridCell(ctx context.Context, g GridSpec, cell Cell, clock func() int64) (CellResult, CellTiming, error) {
	read := func() int64 {
		if clock == nil {
			return 0
		}
		return clock()
	}
	t0 := read()
	var (
		rate float64
		t1   int64
	)
	switch g.Kind {
	case GridThreshold:
		exp := core.NewMemoryExperiment(cell.D)
		t1 = read()
		r, _, err := exp.ErrorRate(ctx, cell.P, cell.Rounds, cell.Trials, cell.Seed, faults.Config{})
		if err != nil {
			return CellResult{}, CellTiming{}, err
		}
		rate = r
	case GridCircuit:
		fc, err := core.NewFrameMemoryCell(cell.D, cell.P, cell.Rounds, cell.Seed)
		if err != nil {
			return CellResult{}, CellTiming{}, err
		}
		t1 = read()
		r, err := fc.Rate(ctx, cell.Trials)
		if err != nil {
			return CellResult{}, CellTiming{}, err
		}
		rate = r
	default:
		return CellResult{}, CellTiming{}, fmt.Errorf("sweep: unknown grid kind %q", g.Kind)
	}
	t2 := read()
	res := CellResult{
		Index:  cell.Index,
		D:      cell.D,
		P:      cell.P,
		Rounds: cell.Rounds,
		Trials: cell.Trials,
		Seed:   cell.Seed,
		Rate:   rate,
	}
	return res, CellTiming{BuildNs: t1 - t0, RunNs: t2 - t1}, nil
}
