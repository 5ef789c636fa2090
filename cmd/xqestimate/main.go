// Command xqestimate runs XQ-estimator standalone: it reports the
// frequency, power, and area of every control-processor unit for a chosen
// technology, scale, and optimization set, plus the validation tables.
//
// Usage:
//
//	xqestimate -tech rsfq -n 10000 -d 15
//	xqestimate -tech ersfq -n 59000 -opt2 -opt3 -opt4
//	xqestimate -validate
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"

	"xqsim"
	"xqsim/internal/cli"
	"xqsim/internal/core"
	"xqsim/internal/tech"
)

func main() {
	// SIGINT/SIGTERM cancel before the synthesis-backed estimation pass,
	// matching the other binaries.
	ctx, stop := cli.SignalContext()
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

// run is the whole command: it parses args, prints the estimates and
// returns the exit status (0 ok, 2 usage error, 130 interrupted).
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("xqestimate", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		techName = fs.String("tech", "rsfq", "technology: 300k-cmos | 4k-cmos | rsfq | ersfq")
		n        = fs.Int("n", 10000, "physical qubits (at least 1)")
		d        = fs.Int("d", 15, "code distance (odd, 3 to 101)")
		opt2     = fs.Bool("opt2", false, "PSU mask-generator sharing (Optimization #2)")
		opt3     = fs.Bool("opt3", false, "TCU simple buffer (Optimization #3)")
		opt4     = fs.Bool("opt4", false, "EDU patch-sliding (Optimization #4)")
		vscale   = fs.Bool("vscale", false, "4K CMOS power-oriented voltage scaling")
		validate = fs.Bool("validate", false, "print the Fig. 10/12 validation tables and exit")
	)
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}

	if *validate {
		_, _ = fmt.Fprintln(stdout, "Fig. 10 — frequency validation (MITLL RTL simulation):")
		for _, r := range xqsim.ValidateMITLL() {
			_, _ = fmt.Fprintf(stdout, "  %-22s %8d JJ   model %6.2f GHz   ref %6.2f GHz   err %4.1f%%\n",
				r.Circuit, r.JJ, r.Model, r.Ref, r.ErrPct())
		}
		_, _ = fmt.Fprintln(stdout, "Fig. 12 — post-layout validation (AIST process):")
		for _, r := range xqsim.ValidateAIST() {
			_, _ = fmt.Fprintf(stdout, "  %-22s %8d JJ   %-5s model %10.4g   ref %10.4g   err %4.1f%%\n",
				r.Circuit, r.JJ, r.Metric, r.Model, r.Ref, r.ErrPct())
		}
		return 0
	}

	usage := func(err error) int {
		_, _ = fmt.Fprintln(stderr, "xqestimate:", err)
		return 2
	}
	kind, err := tech.ParseKind(*techName)
	if err != nil {
		return usage(err)
	}
	if *n < 1 {
		return usage(fmt.Errorf("-n must be at least 1 physical qubit, got %d", *n))
	}
	if err := core.CheckCode(*d, 0); err != nil {
		return usage(err)
	}
	if ctx.Err() != nil {
		_, _ = fmt.Fprintln(stderr, "xqestimate: interrupted")
		return cli.ExitInterrupted
	}

	scale := xqsim.ScaleFor(*n, *d)
	ests := xqsim.EstimateAll(scale, kind, buildOptions(*d, *opt2, *opt3, *opt4, *vscale))
	_, _ = fmt.Fprintf(stdout, "XQ-estimator: %s at %d physical qubits (%d patches, d=%d)\n",
		kind, *n, scale.NPatches, *d)
	_, _ = fmt.Fprintf(stdout, "%-5s %10s %12s %12s %12s %10s\n", "unit", "freq", "static", "dynamic", "total", "area")
	var totW, totA float64
	for u := xqsim.UnitQID; u <= xqsim.UnitLMU; u++ {
		e := ests[u]
		_, _ = fmt.Fprintf(stdout, "%-5v %8.2fGHz %10.4fmW %10.4fmW %10.4fmW %8.3fcm2\n",
			u, e.FreqGHz, e.StaticW*1e3, e.DynamicW*1e3, e.TotalW()*1e3, e.AreaCm2)
		totW += e.TotalW()
		totA += e.AreaCm2
	}
	_, _ = fmt.Fprintf(stdout, "%-5s %10s %12s %12s %10.4fmW %8.3fcm2\n", "total", "", "", "", totW*1e3, totA)
	return 0
}

func buildOptions(d int, opt2, opt3, opt4, vscale bool) xqsim.EstimatorOptions {
	o := xqsim.DefaultEstimatorOptions(d)
	if opt2 {
		o.PSU = xqsim.OptimizedPSUOptions()
	}
	if opt3 {
		o.TCU.SimpleBuffer = true
	}
	if opt4 {
		o.EDU.PatchSliding = true
	}
	o.VoltageScaling = vscale
	return o
}
