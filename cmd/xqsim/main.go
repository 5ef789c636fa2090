// Command xqsim runs a workload through the full control-processor stack
// and reports the scalability metrics and (optionally) the functional
// output distribution.
//
// Usage:
//
//	xqsim -workload random -lq 4 -pprs 10 -d 15 -system future-final
//	xqsim -workload qaoa -lq 4 -d 5 -shots 512 -functional
//	xqsim -workload qft2 -d 5 -shots 2048 -functional
//	xqsim -workload random -d 15 -cpuprofile cpu.prof -memprofile mem.prof
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"

	"xqsim"
	"xqsim/internal/cli"
	"xqsim/internal/config"
	"xqsim/internal/core"
	"xqsim/internal/prof"
)

func main() {
	// SIGINT/SIGTERM cancel the run between pipeline instructions, so
	// partial results and profiles still flush instead of dying mid-write.
	ctx, stop := cli.SignalContext()
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

// run is the whole command: it parses args, runs the workload and
// returns the exit status (0 ok, 1 failure, 2 usage error, 130
// interrupted).
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("xqsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload   = fs.String("workload", "random", "workload: random | qft2 | qaoa | ppr")
		lq         = fs.Int("lq", 4, "logical qubits (random/qaoa)")
		pprs       = fs.Int("pprs", 10, "rotation count (random)")
		product    = fs.String("product", "ZZZ", "Pauli product (ppr workload)")
		d          = fs.Int("d", 15, "code distance")
		p          = fs.Float64("p", 0.001, "physical error rate")
		seed       = fs.Int64("seed", 1, "random seed")
		shots      = fs.Int("shots", 256, "shots (functional mode)")
		functional = fs.Bool("functional", false, "run the noisy quantum backend and report the output distribution")
		system     = fs.String("system", "current", "system: current | current-opt1 | nf-rsfq | nf-rsfq-opt | nf-cmos | nf-cmos-vs | future | future-edu4k | future-final")
		nphys      = fs.Int("n", 0, "evaluate scalability at this qubit count (0 = workload size)")
		trace      = fs.String("trace", "", "write a per-instruction JSON trace of one shot to this file")
		profiles   = prof.RegisterFlags(fs)

		faultsOn    = fs.Bool("faults", false, "inject control-processor faults (decoder stalls, buffer overflow, link corruption) into every shot")
		faultStall  = fs.Float64("fault-stall", config.DefaultFaultStallProb, "per-window decoder stall probability (with -faults)")
		faultFactor = fs.Float64("fault-stall-factor", config.DefaultFaultStallFactor, "decode latency multiplier during a stall spike")
		faultBuffer = fs.Int("fault-buffer", 0, "syndrome buffer capacity in ESM rounds (0 = one window, i.e. d rounds)")
		faultPolicy = fs.String("fault-policy", "drop-oldest", "buffer overflow policy: drop-oldest | backpressure")
		faultLink   = fs.Float64("fault-link", config.DefaultFaultLinkProb, "per-round cross-temperature link corruption probability")
		faultRetry  = fs.Int("fault-retries", config.DefaultFaultLinkRetries, "link retransmission budget per round")
		shotTimeout = fs.Duration("shot-timeout", 0, "per-shot watchdog timeout (0 = none)")
	)
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}
	if *functional && *shots < 1 {
		_, _ = fmt.Fprintf(stderr, "xqsim: -shots must be at least 1 with -functional, got %d\n", *shots)
		return 2
	}
	if err := core.CheckCode(*d, *p); err != nil {
		_, _ = fmt.Fprintln(stderr, "xqsim:", err)
		return 2
	}
	// An unknown -workload exits 1, like an unknown -system; inputs its
	// generator cannot build are usage errors.
	w, err := core.Workload{Kind: *workload, LQ: *lq, PPRs: *pprs, Product: *product, Seed: *seed}.Canonical()
	if err != nil {
		_, _ = fmt.Fprintln(stderr, "xqsim:", err)
		return 1
	}
	if err := w.Check(); err != nil {
		_, _ = fmt.Fprintln(stderr, "xqsim:", err)
		return 2
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
	fail := func(err error) int {
		_, _ = fmt.Fprintln(stderr, "xqsim:", err)
		if ctx.Err() != nil {
			return cli.ExitInterrupted
		}
		return 1
	}

	circ, err := w.Circuit()
	if err != nil {
		return fail(err)
	}
	if *functional {
		if err := core.CheckRun(circ.NLQ, *d, *p); err != nil {
			_, _ = fmt.Fprintln(stderr, "xqsim:", err)
			return 2
		}
	}

	sys, scheme, err := buildSystem(*system, *d)
	if err != nil {
		return fail(err)
	}

	if *trace != "" {
		if err := writeTrace(circ, *d, *p, *seed, *trace); err != nil {
			return fail(err)
		}
		_, _ = fmt.Fprintf(stderr, "wrote trace to %s\n", *trace)
	}

	opts := xqsim.RunOptions{ShotTimeout: *shotTimeout}
	if *faultsOn {
		policy, err := xqsim.ParseFaultPolicy(*faultPolicy)
		if err != nil {
			return fail(err)
		}
		buffer := *faultBuffer
		if buffer == 0 {
			buffer = *d // one decode window
		}
		opts.Faults = xqsim.FaultConfig{
			StallProb:     *faultStall,
			StallFactor:   *faultFactor,
			BufferRounds:  buffer,
			Policy:        policy,
			LinkErrorProb: *faultLink,
			LinkRetries:   *faultRetry,
		}
		if err := opts.Faults.Validate(); err != nil {
			return fail(err)
		}
	}

	if *functional {
		dist, metrics, err := xqsim.RunShotsOpt(ctx, circ.SubstituteStabilizer(), *d, *p, *shots, *seed, opts)
		if err != nil {
			return fail(err)
		}
		ref := xqsim.ReferenceDistribution(circ.SubstituteStabilizer())
		_, _ = fmt.Fprintf(stdout, "workload %s (%d logical qubits, d=%d, p=%g, %d shots)\n",
			circ.Name, circ.NLQ, *d, *p, *shots)
		_, _ = fmt.Fprintln(stdout, "outcome   measured   reference")
		for i := range dist {
			if dist[i] > 0.002 || ref[i] > 0.002 {
				_, _ = fmt.Fprintf(stdout, "  %0*b    %6.4f     %6.4f\n", circ.NLQ, i, dist[i], ref[i])
			}
		}
		_, _ = fmt.Fprintf(stdout, "ESM rounds: %d, decode windows: %d, instructions: %d\n",
			metrics.ESMRounds, metrics.DecodeWindows, metrics.Instructions)
		if *faultsOn {
			f := metrics.Faults
			_, _ = fmt.Fprintf(stdout, "fault injection: stall windows %d (%d cycles), dropped rounds %d, backpressure rounds %d, retransmits %d (%d backoff cycles)\n",
				f.StallWindows, f.StallCycles, f.DroppedRounds, f.BackpressureRounds, f.Retransmits, f.BackoffCycles)
		}
	}

	if err := ctx.Err(); err != nil {
		_, _ = fmt.Fprintln(stderr, "xqsim: interrupted before the scalability evaluation:", err)
		return cli.ExitInterrupted
	}

	rates := xqsim.MeasureRates(*d, *p, scheme, *seed)
	n := *nphys
	if n == 0 {
		n = xqsim.NewPPRLayout(circ.NLQ, *d).PhysicalQubits()
	}
	rep := sys.Evaluate(n, rates)
	_, _ = fmt.Fprintf(stdout, "\nsystem %s at %d physical qubits:\n", sys.Name, n)
	_, _ = fmt.Fprintf(stdout, "  instruction bandwidth : %8.1f Gbps\n", rep.InstBandwidthGbps)
	_, _ = fmt.Fprintf(stdout, "  decode latency        : %8.1f ns\n", rep.DecodeLatencyNs)
	_, _ = fmt.Fprintf(stdout, "  300K-4K transfer      : %8.1f Gbps (%.3f W cable heat)\n", rep.CrossTransferGbps, rep.CrossHeatW)
	_, _ = fmt.Fprintf(stdout, "  4K device power       : %8.4f W\n", rep.Power4KW)
	_, _ = fmt.Fprintf(stdout, "  4K device area        : %8.2f cm^2\n", rep.Area4KCm2)
	if rep.OK() {
		_, _ = fmt.Fprintln(stdout, "  all constraints satisfied")
	} else {
		_, _ = fmt.Fprintln(stdout, "  VIOLATED:", rep.Violations())
	}
	_, _ = fmt.Fprintf(stdout, "  sustainable scale     : %d qubits\n", sys.MaxQubits(rates))
	return 0
}

func writeTrace(circ xqsim.Circuit, d int, p float64, seed int64, path string) error {
	res, err := xqsim.Compile(circ.SubstituteStabilizer())
	if err != nil {
		return err
	}
	pl := xqsim.NewTracedPipeline(circ.NLQ, d, p, seed)
	if err := pl.Run(res.Program); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := pl.WriteTrace(f); err != nil {
		_ = f.Close() // the write error is the one worth reporting
		return err
	}
	return f.Close()
}

func buildSystem(name string, d int) (*xqsim.System, xqsim.Scheme, error) {
	switch name {
	case "current":
		return xqsim.CurrentSystem(d, false), xqsim.SchemeRoundRobin, nil
	case "current-opt1":
		return xqsim.CurrentSystem(d, true), xqsim.SchemePriority, nil
	case "nf-rsfq":
		return xqsim.NearFutureRSFQ(d, false), xqsim.SchemePriority, nil
	case "nf-rsfq-opt":
		return xqsim.NearFutureRSFQ(d, true), xqsim.SchemePriority, nil
	case "nf-cmos":
		return xqsim.NearFutureCMOS4K(d, false), xqsim.SchemePriority, nil
	case "nf-cmos-vs":
		return xqsim.NearFutureCMOS4K(d, true), xqsim.SchemePriority, nil
	case "future":
		return xqsim.FutureSystem(d, false, false), xqsim.SchemePriority, nil
	case "future-edu4k":
		return xqsim.FutureSystem(d, true, false), xqsim.SchemePriority, nil
	case "future-final":
		return xqsim.FutureSystem(d, true, true), xqsim.SchemePatchSliding, nil
	}
	return nil, 0, fmt.Errorf("unknown system %q", name)
}
