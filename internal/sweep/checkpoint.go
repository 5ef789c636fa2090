package sweep

import (
	"context"
	"encoding/json"
	"fmt"
	"os"

	"xqsim/internal/store"
)

// Checkpoint is a resumable snapshot of a multi-experiment sweep: the
// results of every completed experiment, keyed by experiment ID. xqsweep
// saves one after each experiment and, with -resume, skips the cells a
// previous (killed or canceled) run already completed. Experiments are
// deterministic in (ID, seed, shots), so resuming reproduces exactly the
// grid a single uninterrupted run would have produced.
type Checkpoint struct {
	// Version guards the on-disk format.
	Version int `json:"version"`
	// Seed and Shots record the grid parameters the snapshot was taken
	// under; a resume with different parameters must start over, not mix
	// cells from incompatible runs.
	Seed  int64 `json:"seed"`
	Shots int   `json:"shots"`
	// Results holds the completed experiments keyed by Result.ID.
	Results map[string]Result `json:"results"`

	// Grid is the content hash of the GridSpec a grid-cell snapshot
	// belongs to (empty for experiment sweeps). A snapshot's cells can
	// only be reused for the identical normalized grid.
	Grid string `json:"grid,omitempty"`
	// Cells holds completed grid cells keyed by cell index. A sharded
	// or work-stealing run saves one after each cell, so a killed
	// worker resumes (or re-pushes) without recomputing.
	Cells map[int]CellResult `json:"cells,omitempty"`
}

// checkpointVersion is bumped whenever the snapshot format changes.
const checkpointVersion = 1

// NewCheckpoint starts an empty snapshot for the given grid parameters.
func NewCheckpoint(seed int64, shots int) *Checkpoint {
	return &Checkpoint{
		Version: checkpointVersion,
		Seed:    seed,
		Shots:   shots,
		Results: map[string]Result{},
	}
}

// LoadCheckpoint reads a snapshot from disk. A missing file is not an
// error: it returns (nil, nil) so callers can treat it as "start fresh".
func LoadCheckpoint(path string) (*Checkpoint, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("sweep: read checkpoint: %w", err)
	}
	var c Checkpoint
	if err := json.Unmarshal(data, &c); err != nil {
		return nil, fmt.Errorf("sweep: parse checkpoint %s: %w", path, err)
	}
	if c.Version != checkpointVersion {
		return nil, fmt.Errorf("sweep: checkpoint %s has version %d, want %d", path, c.Version, checkpointVersion)
	}
	if c.Results == nil {
		c.Results = map[string]Result{}
	}
	return &c, nil
}

// Has reports whether the experiment with the given ID is already done.
func (c *Checkpoint) Has(id string) bool {
	if c == nil {
		return false
	}
	_, ok := c.Results[id]
	return ok
}

// Put records a completed experiment.
func (c *Checkpoint) Put(r Result) { c.Results[r.ID] = r }

// NewGridCheckpoint starts an empty snapshot for one grid, identified
// by the normalized spec's content hash.
func NewGridCheckpoint(g GridSpec) *Checkpoint {
	c := NewCheckpoint(g.Seed, g.Trials)
	c.Grid = g.Hash()
	c.Cells = map[int]CellResult{}
	return c
}

// CellAt returns a completed cell result, if present.
func (c *Checkpoint) CellAt(i int) (CellResult, bool) {
	if c == nil {
		return CellResult{}, false
	}
	r, ok := c.Cells[i]
	return r, ok
}

// PutCell records a completed grid cell.
func (c *Checkpoint) PutCell(r CellResult) {
	if c.Cells == nil {
		c.Cells = map[int]CellResult{}
	}
	c.Cells[r.Index] = r
}

// sameRun reports whether c was taken for the run fresh starts: the
// same grid hash for grid snapshots, else the same seed and shot count.
func (c *Checkpoint) sameRun(fresh *Checkpoint) bool {
	if c.Grid != "" || fresh.Grid != "" {
		return c.Grid == fresh.Grid
	}
	return c.Seed == fresh.Seed && c.Shots == fresh.Shots
}

// Resume is how every resumable run opens its snapshot: it returns the
// one saved at path when it was taken for the run fresh starts
// (sameRun), and fresh otherwise. note is the line to show an
// operator: empty when there was no file, else whether the run resumes
// or starts over. A file that cannot be read is an error, returned
// with fresh; xqsweep stops on it, and xqd starts fresh.
func Resume(path string, fresh *Checkpoint) (ck *Checkpoint, note string, err error) {
	loaded, err := LoadCheckpoint(path)
	if err != nil || loaded == nil {
		return fresh, "", err
	}
	done, what, other := len(loaded.Results), "experiments", "was taken with a different seed or shot count"
	if fresh.Grid != "" {
		done, what, other = len(loaded.Cells), "cells", "belongs to a different grid"
	}
	if !loaded.sameRun(fresh) {
		return fresh, fmt.Sprintf("checkpoint %s %s; starting over", path, other), nil
	}
	return loaded, fmt.Sprintf("resuming from %s (%d %s done)", path, done, what), nil
}

// Experiment is the checkpointed run step of an experiment sweep: it
// returns experiment id from the snapshot (cached), or runs it, Puts
// the result and Saves the snapshot to path. A nil snapshot only runs.
// A result whose save fails is still returned, with the save's error;
// only a failed run returns the zero Result.
func (c *Checkpoint) Experiment(ctx context.Context, path, id string, opts ExperimentOptions) (r Result, cached bool, err error) {
	if cid := CanonicalExperimentID(id); c.Has(cid) {
		return c.Results[cid], true, nil
	}
	if r, err = RunExperiment(ctx, id, opts); err != nil || c == nil {
		return r, false, err
	}
	c.Put(r)
	return r, false, c.Save(path)
}

// Cell is Experiment for one grid cell; a checkpointed cell comes
// back with zero timings.
func (c *Checkpoint) Cell(ctx context.Context, path string, g GridSpec, cell Cell, clock func() int64) (r CellResult, t CellTiming, cached bool, err error) {
	if r, ok := c.CellAt(cell.Index); ok {
		return r, CellTiming{}, true, nil
	}
	if r, t, err = RunGridCell(ctx, g, cell, clock); err != nil || c == nil {
		return r, t, false, err
	}
	c.PutCell(r)
	return r, t, false, c.Save(path)
}

// Save writes the snapshot with store.WriteFileAtomic (temp file, fsync,
// rename in the target directory), so a kill mid-write leaves the
// previous snapshot intact.
func (c *Checkpoint) Save(path string) error {
	data, err := json.MarshalIndent(c, "", "  ")
	if err != nil {
		return fmt.Errorf("sweep: encode checkpoint: %w", err)
	}
	if err := store.WriteFileAtomic(path, data); err != nil {
		return fmt.Errorf("sweep: save checkpoint: %w", err)
	}
	return nil
}
