package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"xqsim"
)

// gridFlags collects the sharded-grid flag set (see main).
type gridFlags struct {
	kind       string // -grid
	ds         string // -d
	ps         string // -p
	rounds     int
	trials     int
	seed       int64
	shard      string // -shard i/N
	jsonl      string
	csv        string
	checkpoint string
	resume     bool
	submit     string // -submit <url>
	fetch      string // -fetch <url> (with -grid-id)
	gridID     string
	// stdout receives the grid JSONL when no -jsonl/-csv file is given
	// (and -submit's grid id); stderr the progress notes.
	stdout, stderr io.Writer
}

// buildGridSpec assembles and normalizes the GridSpec from the flags.
func (f gridFlags) buildGridSpec() (xqsim.GridSpec, error) {
	ds, err := parseInts(f.ds)
	if err != nil {
		return xqsim.GridSpec{}, fmt.Errorf("-d: %w", err)
	}
	ps, err := parseFloats(f.ps)
	if err != nil {
		return xqsim.GridSpec{}, fmt.Errorf("-p: %w", err)
	}
	return xqsim.GridSpec{
		Kind:   f.kind,
		Ds:     ds,
		Ps:     ps,
		Rounds: f.rounds,
		Trials: f.trials,
		Seed:   f.seed,
	}.Normalize()
}

func parseInts(s string) ([]int, error) {
	if s == "" {
		return nil, fmt.Errorf("empty list")
	}
	parts := strings.Split(s, ",")
	out := make([]int, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, fmt.Errorf("bad int %q", p)
		}
		out = append(out, v)
	}
	return out, nil
}

func parseFloats(s string) ([]float64, error) {
	if s == "" {
		return nil, fmt.Errorf("empty list")
	}
	parts := strings.Split(s, ",")
	out := make([]float64, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return nil, fmt.Errorf("bad float %q", p)
		}
		out = append(out, v)
	}
	return out, nil
}

// monotonicClock returns nanosecond readings for per-phase timings.
// The sim layer cannot read clocks itself (determinism analyzers), so
// the cmd layer injects one.
func monotonicClock() func() int64 {
	start := time.Now()
	return func() int64 { return int64(time.Since(start)) }
}

// runGridLocal runs one shard of the grid (the whole grid when -shard
// is empty) in this process, writing the shard JSONL/CSV and saving a
// checkpoint after every cell when asked.
func runGridLocal(ctx context.Context, f gridFlags) error {
	g, err := f.buildGridSpec()
	if err != nil {
		return err
	}
	shard, of, err := xqsim.ParseShard(f.shard)
	if err != nil {
		return err
	}
	cells, err := g.ShardCells(shard, of)
	if err != nil {
		return err
	}

	var ck *xqsim.SweepCheckpoint
	if f.checkpoint != "" {
		if f.resume {
			loaded, err := xqsim.LoadSweepCheckpoint(f.checkpoint)
			if err != nil {
				return err
			}
			if loaded.CompatibleGrid(g.Hash()) {
				ck = loaded
				_, _ = fmt.Fprintf(f.stderr, "resuming from %s (%d cells done)\n", f.checkpoint, len(loaded.Cells))
			} else if loaded != nil {
				_, _ = fmt.Fprintf(f.stderr, "checkpoint %s belongs to a different grid; starting over\n", f.checkpoint)
			}
		}
		if ck == nil {
			ck = xqsim.NewGridCheckpoint(g)
		}
	}

	clock := monotonicClock()
	results := make([]xqsim.GridCellResult, 0, len(cells))
	timings := make([]xqsim.GridCellTiming, 0, len(cells))
	for _, cell := range cells {
		if r, ok := ck.CellAt(cell.Index); ok {
			_, _ = fmt.Fprintf(f.stderr, "skipping cell %d (checkpointed)\n", cell.Index)
			results = append(results, r)
			timings = append(timings, xqsim.GridCellTiming{})
			continue
		}
		r, t, err := xqsim.RunGridCell(ctx, g, cell, clock)
		if err != nil {
			return fmt.Errorf("cell %d (d=%d p=%g): %w", cell.Index, cell.D, cell.P, err)
		}
		results = append(results, r)
		timings = append(timings, t)
		if ck != nil {
			ck.PutCell(r)
			if err := ck.Save(f.checkpoint); err != nil {
				return err
			}
		}
	}

	if f.jsonl != "" {
		if err := writeFileWith(f.jsonl, func(w *os.File) error {
			return xqsim.WriteGridJSONL(w, g, results)
		}); err != nil {
			return err
		}
		_, _ = fmt.Fprintf(f.stderr, "wrote %d cells to %s\n", len(results), f.jsonl)
	}
	if f.csv != "" {
		shardLabel := f.shard
		if err := writeFileWith(f.csv, func(w *os.File) error {
			return xqsim.WriteGridCSV(w, g, shardLabel, results, timings)
		}); err != nil {
			return err
		}
		_, _ = fmt.Fprintf(f.stderr, "wrote timings to %s\n", f.csv)
	}
	if f.jsonl == "" && f.csv == "" {
		if err := xqsim.WriteGridJSONL(f.stdout, g, results); err != nil {
			return err
		}
	}
	return nil
}

// runGridMerge combines shard JSONL files (the positional arguments)
// into the single-process-identical grid JSONL, plus an optional CSV
// reference (timings zero: per-cell wall clocks lived in the shards).
func runGridMerge(f gridFlags, shardPaths []string) error {
	if len(shardPaths) == 0 {
		return fmt.Errorf("-merge needs shard JSONL files as arguments")
	}
	files := make([]*os.File, 0, len(shardPaths))
	defer func() {
		for _, fh := range files {
			_ = fh.Close()
		}
	}()
	readers := make([]io.Reader, 0, len(shardPaths))
	for _, p := range shardPaths {
		fh, err := os.Open(p)
		if err != nil {
			return err
		}
		files = append(files, fh)
		readers = append(readers, fh)
	}

	if f.jsonl != "" {
		if err := writeFileWith(f.jsonl, func(w *os.File) error {
			return xqsim.MergeGridFiles(w, readers)
		}); err != nil {
			return err
		}
		_, _ = fmt.Fprintf(f.stderr, "merged %d shards into %s\n", len(shardPaths), f.jsonl)
	} else if err := xqsim.MergeGridFiles(f.stdout, readers); err != nil {
		return err
	}
	if f.csv != "" {
		g, cells, err := readMerged(f.jsonl)
		if err != nil {
			return err
		}
		if err := writeFileWith(f.csv, func(w *os.File) error {
			return xqsim.WriteGridCSV(w, g, "", cells, nil)
		}); err != nil {
			return err
		}
		_, _ = fmt.Fprintf(f.stderr, "wrote merged reference CSV to %s\n", f.csv)
	}
	return nil
}

func readMerged(path string) (xqsim.GridSpec, []xqsim.GridCellResult, error) {
	if path == "" {
		return xqsim.GridSpec{}, nil, fmt.Errorf("-csv with -merge needs -jsonl too (the merged file is re-read for the CSV)")
	}
	fh, err := os.Open(path)
	if err != nil {
		return xqsim.GridSpec{}, nil, err
	}
	defer func() { _ = fh.Close() }()
	return xqsim.ReadGridJSONL(fh)
}

// writeFileWith creates path and streams through fn, closing cleanly.
func writeFileWith(path string, fn func(*os.File) error) error {
	fh, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := fn(fh); err != nil {
		_ = fh.Close()
		return err
	}
	return fh.Close()
}
