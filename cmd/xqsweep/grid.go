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
	worker     string // -worker <url> (with -grid-id)
	gridID     string
	workerName string
	leaseBatch int
	// stdout receives the grid JSONL when no -jsonl/-csv file is given
	// (and -submit's grid id); stderr the progress notes.
	stdout, stderr io.Writer
}

// buildGridSpec assembles and normalizes the GridSpec from the flags.
func (f gridFlags) buildGridSpec() (xqsim.GridSpec, error) {
	ds, err := parseList(f.ds, strconv.Atoi)
	if err != nil {
		return xqsim.GridSpec{}, fmt.Errorf("-d: %w", err)
	}
	ps, err := parseList(f.ps, func(s string) (float64, error) { return strconv.ParseFloat(s, 64) })
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

// parseList parses a comma-separated flag value, one parse per item.
func parseList[T any](s string, parse func(string) (T, error)) ([]T, error) {
	if s == "" {
		return nil, fmt.Errorf("empty list")
	}
	var out []T
	for _, p := range strings.Split(s, ",") {
		v, err := parse(strings.TrimSpace(p))
		if err != nil {
			return nil, fmt.Errorf("bad value %q", p)
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

	ck, err := openCheckpoint(f.checkpoint, f.resume, xqsim.NewGridCheckpoint(g), f.stderr, "")
	if err != nil {
		return err
	}

	clock := monotonicClock()
	results := make([]xqsim.GridCellResult, 0, len(cells))
	timings := make([]xqsim.GridCellTiming, 0, len(cells))
	for _, cell := range cells {
		r, t, cached, err := ck.Cell(ctx, f.checkpoint, g, cell, clock)
		if err != nil {
			return fmt.Errorf("cell %d (d=%d p=%g): %w", cell.Index, cell.D, cell.P, err)
		}
		if cached {
			_, _ = fmt.Fprintf(f.stderr, "skipping cell %d (checkpointed)\n", cell.Index)
		}
		results = append(results, r)
		timings = append(timings, t)
	}

	if f.jsonl != "" {
		if err := writeFileWith(f.jsonl, func(w io.Writer) error {
			return xqsim.WriteGridJSONL(w, g, results)
		}); err != nil {
			return err
		}
		_, _ = fmt.Fprintf(f.stderr, "wrote %d cells to %s\n", len(results), f.jsonl)
	}
	if f.csv != "" {
		shardLabel := f.shard
		if err := writeFileWith(f.csv, func(w io.Writer) error {
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
		if err := writeFileWith(f.jsonl, func(w io.Writer) error {
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
		if err := writeFileWith(f.csv, func(w io.Writer) error {
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
func writeFileWith(path string, fn func(io.Writer) error) error {
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
