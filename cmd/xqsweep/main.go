// Command xqsweep regenerates the paper's evaluation tables and figures,
// printing measured-vs-paper anchors and optionally dumping the sweep
// series as CSV or JSONL.
//
// Usage:
//
//	xqsweep -all
//	xqsweep -all -checkpoint sweep.json          # snapshot after each cell
//	xqsweep -all -checkpoint sweep.json -resume  # continue a killed run
//	xqsweep -fig 14
//	xqsweep -table 3 -shots 2048
//	xqsweep -degradation
//	xqsweep -fig 19 -csv fig19.csv
//	xqsweep -all -jsonl results.jsonl            # one pinned-schema JSON value per line
//	xqsweep -fig 5 -cpuprofile cpu.prof -memprofile mem.prof
//
// Sharded grids (distributed sweeps — see README "Distributed sweeps"):
//
//	xqsweep -grid circuit -d 3,5,7 -p 1e-3,3e-3 -jsonl grid.jsonl    # whole grid, one process
//	xqsweep -grid circuit -d 3,5,7 -p 1e-3,3e-3 -shard 0/3 -jsonl s0.jsonl
//	xqsweep -merge -jsonl grid.jsonl s0.jsonl s1.jsonl s2.jsonl      # == single-process bytes
//	xqsweep -grid circuit -d 3,5,7 -p 1e-3,3e-3 -submit http://localhost:8080
//	xqsweep -worker http://localhost:8080 -grid-id <id>              # work-stealing worker
//	xqsweep -fetch http://localhost:8080 -grid-id <id> -jsonl grid.jsonl
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"xqsim"
	"xqsim/internal/cli"
	"xqsim/internal/prof"
)

func main() {
	// SIGINT/SIGTERM cancel the sweep between grid cells; the checkpoint
	// keeps every completed cell, so -resume continues where it stopped.
	ctx, stop := cli.SignalContext()
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

// run is the whole command: it parses args, runs the selected mode and
// returns the exit status (0 ok, 1 failure, 2 usage error, 130
// interrupted).
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("xqsweep", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		fig         = fs.String("fig", "", "figure to regenerate: 5, 10, 12, 14, 16, 17, 18, 19")
		sensitivity = fs.Bool("sensitivity", false, "run the Section-6.2 parameter sensitivity study")
		threshold   = fs.Bool("threshold", false, "run the surface-code memory threshold study")
		circuitThr  = fs.Bool("circuit-threshold", false, "run the circuit-level threshold study (batch frame sampler)")
		degradation = fs.Bool("degradation", false, "run the fault-injection degradation study (logical error rate vs decoder-stall rate)")
		tournament  = fs.Bool("tournament", false, "race the decode backends on accuracy, ns/round, max sustainable distance and backlog degradation")
		decoderName = fs.String("decoder", "", "with -tournament: restrict the race to one backend ("+strings.Join(xqsim.DecoderBackendNames(), ", ")+")")
		table       = fs.String("table", "", "table to regenerate: 3, 4")
		all         = fs.Bool("all", false, "regenerate everything")
		shots       = fs.Int("shots", 512, "shots for the Table-3 functional validation")
		seed        = fs.Int64("seed", 1, "random seed")
		csv         = fs.String("csv", "", "write the sweep series to this CSV file")
		jsonl       = fs.String("jsonl", "", "write one pinned-schema JSON result per line to this file")
		md          = fs.String("md", "", "write a Markdown reproduction report to this file")
		checkpoint  = fs.String("checkpoint", "", "snapshot completed experiments to this JSON file after each cell")
		resume      = fs.Bool("resume", false, "with -checkpoint: skip experiments the snapshot already holds")
		profiles    = prof.RegisterFlags(fs)

		// Sharded grid modes.
		grid       = fs.String("grid", "", "run a parameter grid of this kind ("+strings.Join(xqsim.GridKinds(), ", ")+"); cells enumerate row-major over -d × -p with per-cell seeds")
		gridDs     = fs.String("d", "", "with -grid: comma-separated code distances (odd, >= 3)")
		gridPs     = fs.String("p", "", "with -grid: comma-separated physical error rates")
		gridRounds = fs.Int("rounds", 0, "with -grid: syndrome rounds per trial (0 = kind default)")
		gridTrials = fs.Int("trials", 0, "with -grid: trials per cell (0 = default 256)")
		shard      = fs.String("shard", "", "with -grid: run only shard i/N of the cells (round-robin)")
		merge      = fs.Bool("merge", false, "merge shard JSONL files (arguments) into the single-process-identical grid JSONL")
		submit     = fs.String("submit", "", "with -grid: register the grid with the xqd daemon at this URL and print its id")
		worker     = fs.String("worker", "", "work-stealing worker: lease cells from the xqd daemon at this URL (needs -grid-id)")
		fetch      = fs.String("fetch", "", "fetch the merged grid JSONL from the xqd daemon at this URL (needs -grid-id)")
		gridID     = fs.String("grid-id", "", "grid id for -worker / -fetch")
		workerName = fs.String("worker-name", "", "worker identity for leases (default host-pid)")
		leaseBatch = fs.Int("lease-batch", 1, "cells to lease per request in -worker mode")
	)
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}
	fail := func(err error) int {
		_, _ = fmt.Fprintln(stderr, "xqsweep:", err)
		if ctx.Err() != nil {
			return cli.ExitInterrupted
		}
		return 1
	}

	if *grid != "" || *merge || *worker != "" || *fetch != "" {
		gf := gridFlags{
			kind: *grid, ds: *gridDs, ps: *gridPs, rounds: *gridRounds, trials: *gridTrials,
			seed: *seed, shard: *shard, jsonl: *jsonl, csv: *csv,
			checkpoint: *checkpoint, resume: *resume,
			submit: *submit, fetch: *fetch, worker: *worker, gridID: *gridID,
			workerName: *workerName, leaseBatch: *leaseBatch,
			stdout: stdout, stderr: stderr,
		}
		var err error
		switch {
		case *merge:
			err = runGridMerge(gf, fs.Args())
		case *worker != "":
			err = runGridWorker(ctx, gf)
		case *fetch != "":
			err = runGridFetch(ctx, gf)
		case *submit != "":
			err = runGridSubmit(ctx, gf)
		default:
			err = runGridLocal(ctx, gf)
		}
		if err != nil {
			return fail(err)
		}
		return 0
	}
	stopProf, err := prof.StartPaths(profiles.CPU, profiles.Mem)
	if err != nil {
		_, _ = fmt.Fprintln(stderr, "prof:", err)
		return 1
	}
	defer func() {
		if err := stopProf(); err != nil {
			_, _ = fmt.Fprintln(stderr, "prof:", err)
		}
	}()
	opts := xqsim.ExperimentOptions{Shots: *shots, Seed: *seed, TournamentDecoder: *decoderName}
	ck, err := openCheckpoint(*checkpoint, *resume, xqsim.NewSweepCheckpoint(*seed, *shots), stderr, "")
	if err != nil {
		return fail(err)
	}

	var ids []string
	switch {
	case *all:
		ids = []string{"t4", "10", "12", "t3", "5", "14", "16", "17", "18", "19", "sensitivity"}
	case *sensitivity:
		ids = []string{"sensitivity"}
	case *threshold:
		ids = []string{"threshold"}
	case *circuitThr:
		ids = []string{"circuit-threshold"}
	case *degradation:
		ids = []string{"degradation"}
	case *tournament:
		ids = []string{"tournament"}
	case *fig != "":
		ids = []string{*fig}
	case *table != "":
		ids = []string{"t" + *table}
	default:
		fs.Usage()
		return 2
	}

	var results []xqsim.ExperimentResult
	code := 0
	for _, id := range ids {
		r, cached, err := ck.Experiment(ctx, *checkpoint, id, opts)
		if cached {
			_, _ = fmt.Fprintf(stderr, "skipping %s (checkpointed)\n", r.ID)
		}
		if r.ID != "" { // a run whose checkpoint save failed still counts
			results = append(results, r)
		}
		if err != nil {
			code = fail(err)
			break
		}
	}
	if err := writeResults(stdout, stderr, results, *md, *csv, *jsonl); err != nil {
		code = fail(err)
	}
	return code
}

// openCheckpoint is xqsweep's side of the checkpoint protocol. With a
// path it starts from fresh, or with resume from whatever
// sweep.Resume finds there, printing the protocol's note after prefix;
// with none it returns nil, and every step only runs.
func openCheckpoint(path string, resume bool, fresh *xqsim.SweepCheckpoint, stderr io.Writer, prefix string) (*xqsim.SweepCheckpoint, error) {
	if path == "" {
		return nil, nil
	}
	if !resume {
		return fresh, nil
	}
	ck, note, err := xqsim.ResumeSweepCheckpoint(path, fresh)
	if note != "" {
		_, _ = fmt.Fprintln(stderr, prefix+note)
	}
	return ck, err
}

// writeResults is the experiment mode's one output path, after a clean
// run and after a failure or interrupt alike: it prints every finished
// result and writes the -md, -csv and -jsonl files, so a failed sweep
// still leaves its partial report behind. It returns the first write
// error.
func writeResults(stdout, stderr io.Writer, results []xqsim.ExperimentResult, md, csv, jsonl string) error {
	if len(results) == 0 {
		return nil
	}
	for _, r := range results {
		_, _ = fmt.Fprintln(stdout, r)
	}
	worst, where := xqsim.WorstDeviationPct(results)
	outputs := []struct {
		path, note string
		render     func(io.Writer) error
	}{
		{md, fmt.Sprintf("wrote report to %s (worst deviation %.1f%% at %s)", md, worst, where), func(w io.Writer) error {
			_, err := io.WriteString(w, xqsim.MarkdownReport(results))
			return err
		}},
		{csv, "wrote series to " + csv, func(w io.Writer) error { return writeSeriesCSV(w, results) }},
		{jsonl, fmt.Sprintf("wrote %d JSONL results to %s", len(results), jsonl), func(w io.Writer) error {
			return xqsim.WriteExperimentsJSONL(w, results)
		}},
	}
	var first error
	for _, o := range outputs {
		if o.path == "" {
			continue
		}
		if err := writeFileWith(o.path, o.render); err != nil {
			if first == nil {
				first = err
			}
			continue
		}
		_, _ = fmt.Fprintln(stderr, o.note)
	}
	return first
}

// writeSeriesCSV writes every result's series as experiment,series,x,y
// rows.
func writeSeriesCSV(w io.Writer, results []xqsim.ExperimentResult) error {
	bw := bufio.NewWriter(w)
	_, _ = bw.WriteString("experiment,series,x,y\n")
	for _, r := range results {
		for _, s := range r.Series {
			for i := range s.X {
				_, _ = fmt.Fprintf(bw, "%s,%s,%g,%g\n", r.ID, s.Name, s.X[i], s.Y[i])
			}
		}
	}
	return bw.Flush()
}
