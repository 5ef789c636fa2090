package sweep

import (
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

// Compatible reports whether the snapshot was taken under the same grid
// parameters, i.e. whether its completed cells can be reused.
func (c *Checkpoint) Compatible(seed int64, shots int) bool {
	return c != nil && c.Seed == seed && c.Shots == shots
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

// CompatibleGrid reports whether the snapshot belongs to the grid with
// the given content hash.
func (c *Checkpoint) CompatibleGrid(hash string) bool {
	return c != nil && c.Grid == hash
}

// HasCell reports whether the cell at the given index is already done.
func (c *Checkpoint) HasCell(i int) bool {
	if c == nil {
		return false
	}
	_, ok := c.Cells[i]
	return ok
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
