// Command xqverify runs the cross-layer differential verification suite:
// random Clifford circuits checked against exact state-vector oracles,
// Pauli-algebra and assembler property tests, and the bit-packed decoder
// against the frozen reference matcher.
//
// Usage:
//
//	xqverify -depth quick                  # pre-commit / CI depth (~1s)
//	xqverify -depth deep -seed 7           # release depth, custom base seed
//	xqverify -case lockstep -case decoder  # only the named checks
//	xqverify -depth deep -replay isa:42    # re-run one reported failure
//
// Every failure prints its repro (depth, check name and seed) and, for
// circuit-shaped checks, a minimal shrunk circuit dump; feed the repro
// back through -depth and -replay to reproduce it byte-identically.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"xqsim/internal/cli"
	"xqsim/internal/verify"
)

type caseList []string

func (c *caseList) String() string     { return strings.Join(*c, ",") }
func (c *caseList) Set(v string) error { *c = append(*c, v); return nil }

func main() {
	var (
		depthName = flag.String("depth", "quick", "suite depth: quick | standard | deep")
		seed      = flag.Int64("seed", 1, "base seed for the suite's per-check seed streams")
		replay    = flag.String("replay", "", "replay one trial as \"check:seed\" and exit")
		cases     caseList
	)
	flag.Var(&cases, "case", "run only this check (repeatable); default all")
	flag.Parse()

	depth, err := verify.DepthByName(*depthName)
	if err != nil {
		fatalf("xqverify: %v", err)
	}

	if *replay != "" {
		runReplay(*replay, depth)
		return
	}

	only := make(map[string]bool)
	for _, c := range cases {
		only[c] = true
	}
	known := verify.CheckNames()
	for c := range only {
		found := false
		for _, k := range known {
			if c == k {
				found = true
			}
		}
		if !found {
			fatalf("xqverify: unknown check %q (have %v)", c, known)
		}
	}

	// SIGINT/SIGTERM stop the suite between trials; the partial report
	// still prints, so an interrupted run shows what it got through.
	ctx, stop := cli.SignalContext()
	defer stop()

	start := time.Now()
	rep := verify.RunCtx(ctx, depth, *seed, only)
	fmt.Printf("xqverify depth=%s seed=%d (%.2fs)\n%s", depth.Name, *seed, time.Since(start).Seconds(), rep.Summary())
	if ctx.Err() != nil {
		_, _ = fmt.Fprintln(os.Stderr, "xqverify: interrupted; report above is partial")
		os.Exit(cli.ExitInterrupted)
	}
	if !rep.OK() {
		for _, f := range rep.Failures {
			_, _ = fmt.Fprintf(os.Stderr, "\n%v\n", f)
		}
		os.Exit(1)
	}
}

func runReplay(spec string, depth verify.Depth) {
	check, seedStr, ok := strings.Cut(spec, ":")
	if !ok {
		fatalf("xqverify: -replay wants \"check:seed\", got %q", spec)
	}
	seed, err := strconv.ParseInt(seedStr, 10, 64)
	if err != nil {
		fatalf("xqverify: bad replay seed %q: %v", seedStr, err)
	}
	f, err := verify.Replay(check, seed, depth)
	if err != nil {
		fatalf("xqverify: %v", err)
	}
	if f == nil {
		fmt.Printf("replay %s: PASS (the failure no longer reproduces)\n", spec)
		return
	}
	_, _ = fmt.Fprintf(os.Stderr, "%v\n", f)
	os.Exit(1)
}

func fatalf(format string, args ...any) {
	_, _ = fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(1)
}
