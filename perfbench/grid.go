package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"

	"xqsim/internal/sweep"
)

const (
	// gridTrials is the per-cell trial (threshold) or shot (circuit) count.
	gridTrials = 1024
	// gridPrefix operations enter the digest and the failure count.
	gridPrefix = 4
)

// gridPart is one rectangle of the grid pass.
type gridPart struct {
	name string
	ds   []int
	ps   []float64
}

// gridParts split the pass by regime: below threshold the cells are
// sampling-bound, near it decode takes a larger share, so a sampler gain
// and a decoder gain land in different parts. Cells with d >= 9 and
// p >= 0.5% stay out: each takes seconds in cluster decode.
var gridParts = []gridPart{
	{"sub", []int{3, 5, 7, 9}, []float64{0.001, 0.002}},
	{"near", []int{3, 5, 7}, []float64{0.005, 0.01}},
}

// grid runs one pass of sweep.RunGridCell over a fixed cell list per
// operation, in both grid kinds — the threshold kind on the
// cycle-accurate backend's memory experiment, the circuit kind on the
// bit-sliced batch frame sampler — and ends each rectangle by writing
// two shard JSONL files and merging them with sweep.MergeGridFiles.
// The merged bytes must equal the single-process encoding.
//
// Traced operations hand RunGridCell a clock, whose readings split each
// cell into its build and run phases.
type grid struct {
	seed     int64
	dir      string
	failures float64
}

func (w *grid) setup(_ context.Context, seed int64, dir string) error {
	w.seed, w.dir = seed, dir
	return nil
}

func (w *grid) warmup(ctx context.Context, r *recorder) error {
	if _, err := w.op(ctx, warmupSeed(0), spanRef{}, false); warmupErr(err) != nil {
		return err
	}
	if r.tr == nil {
		return nil
	}
	_, err := w.op(ctx, warmupSeed(1), newTracer().root("warmup"), false)
	return warmupErr(err)
}

func (w *grid) loop(ctx context.Context, r *recorder) error {
	return seqLoop(ctx, r, gridPrefix, func(ctx context.Context, k int, root spanRef) ([]byte, error) {
		return w.op(ctx, opSeed(w.seed, k), root, k < gridPrefix && root.t != nil)
	}, nil)
}

// op runs every cell of the pass; its outputs are the merged JSONL
// bytes of each rectangle. count adds the logical failures to the run's
// total.
func (w *grid) op(ctx context.Context, seed int64, root spanRef, count bool) ([]byte, error) {
	var out []byte
	for _, kind := range []string{sweep.GridThreshold, sweep.GridCircuit} {
		for _, part := range gridParts {
			g, err := sweep.GridSpec{Kind: kind, Ds: part.ds, Ps: part.ps, Trials: gridTrials, Seed: seed}.Normalize()
			if err != nil {
				return nil, err
			}
			cells := make([]sweep.CellResult, g.NumCells())
			for i := range cells {
				c, err := w.cell(ctx, root, g, g.Cell(i), part.name)
				if err != nil {
					return nil, err
				}
				if !(c.Rate >= 0 && c.Rate <= 1) {
					return nil, checkFailed("grid %s cell %d: rate %v outside [0, 1]", kind, i, c.Rate)
				}
				if count {
					w.failures += math.Round(c.Rate * float64(c.Trials))
				}
				cells[i] = c
			}
			merged, err := w.mergeShards(root, g, cells)
			if err != nil {
				return nil, err
			}
			out = append(out, merged...)
		}
	}
	return out, nil
}

// cell runs one cell; when traced, the clock's three readings (entry,
// built, done) become the build and run spans.
func (w *grid) cell(ctx context.Context, root spanRef, g sweep.GridSpec, c sweep.Cell, part string) (sweep.CellResult, error) {
	if root.t == nil {
		res, _, err := sweep.RunGridCell(ctx, g, c, nil)
		return res, err
	}
	var marks []int64
	clock := func() int64 {
		t := root.t.now()
		marks = append(marks, t)
		return t
	}
	res, _, err := sweep.RunGridCell(ctx, g, c, clock)
	if err != nil {
		return res, err
	}
	if len(marks) != 3 {
		return res, fmt.Errorf("grid: RunGridCell read the clock %d times, want 3", len(marks))
	}
	build, run := "core.memory_build", "core.memory_rate."+part
	if g.Kind == sweep.GridCircuit {
		build, run = "core.frame_cell_build", "core.frame_cell_rate."+part
	}
	root.t.add(build, root, marks[0], marks[1])
	root.t.add(run, root, marks[1], marks[2])
	return res, nil
}

// mergeShards writes the cells as two round-robin shard files, merges
// them, and checks the merge against the single-process encoding.
func (w *grid) mergeShards(root spanRef, g sweep.GridSpec, cells []sweep.CellResult) ([]byte, error) {
	var files []string
	sp := root.child("sweep.write_shards")
	for s := 0; s < 2; s++ {
		var shard []sweep.CellResult
		for i := s; i < len(cells); i += 2 {
			shard = append(shard, cells[i])
		}
		path := filepath.Join(w.dir, fmt.Sprintf("shard-%d.jsonl", s))
		if err := writeShard(path, g, shard); err != nil {
			return nil, err
		}
		files = append(files, path)
	}
	sp.end()

	var merged bytes.Buffer
	var err error
	root.call("sweep.merge", func() { err = mergeFiles(&merged, files) })
	if err != nil {
		return nil, err
	}
	var single bytes.Buffer
	if err := sweep.WriteGridJSONL(&single, g, cells); err != nil {
		return nil, err
	}
	if !bytes.Equal(merged.Bytes(), single.Bytes()) {
		return nil, checkFailed("grid %s: merged shard bytes differ from the single-process bytes", g.Hash())
	}
	return merged.Bytes(), nil
}

func writeShard(path string, g sweep.GridSpec, cells []sweep.CellResult) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := sweep.WriteGridJSONL(f, g, cells); err != nil {
		_ = f.Close() // the write has already failed
		return err
	}
	return f.Close()
}

func mergeFiles(w io.Writer, paths []string) error {
	var readers []io.Reader
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			return err
		}
		defer func() { _ = f.Close() }() // opened read-only
		readers = append(readers, f)
	}
	return sweep.MergeGridFiles(w, readers)
}

func (w *grid) finish(_ context.Context, r *recorder) error {
	r.set("core.logical_failures", w.failures)
	return nil
}

func (w *grid) close() error { return nil }
