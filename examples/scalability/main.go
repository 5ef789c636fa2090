// Scalability study: replays the paper's Section 5 narrative end to end —
// from the current 300 K CMOS control processor (decode-limited at a few
// hundred qubits) through the near-future RSFQ / 4 K CMOS systems to the
// final ERSFQ design sustaining tens of thousands of qubits — printing
// each step's bottleneck and the effect of every guideline and
// optimization.
package main

import (
	"fmt"
	"os"
	"strings"

	"xqsim"
)

func show(w *strings.Builder, name string, sys *xqsim.System, r xqsim.Rates, paper int) {
	n := sys.MaxQubits(r)
	rep := sys.Evaluate(n+1, r)
	bottleneck := "none"
	if v := rep.Violations(); len(v) > 0 {
		bottleneck = v[0]
	}
	fmt.Fprintf(w, "  %-34s %7d qubits (paper ~%d), next bottleneck: %s\n",
		name, n, paper, bottleneck)
}

func run(w *strings.Builder) {
	d := 15
	fmt.Fprintln(w, "measuring microscopic rates from the cycle-accurate pipeline...")
	// Rates are scheme-free: each system prices decode windows with the
	// EDU scheme it names, so one reference run serves all of them.
	rates := xqsim.MeasureRates(d, 0.001, xqsim.SchemePriority, 1)

	fmt.Fprintln(w, "\n[1] current system: 300 K CMOS (Fig. 14)")
	show(w, "baseline (round-robin EDU)", xqsim.CurrentSystem(d, false), rates, 250)
	show(w, "+ Opt#1 priority token setup", xqsim.CurrentSystem(d, true), rates, 1700)

	fmt.Fprintln(w, "\n[2] near-future: PSU/TCU at 4 K (Guideline #1, Fig. 17)")
	show(w, "RSFQ, baseline units", xqsim.NearFutureRSFQ(d, false), rates, 970)
	show(w, "RSFQ + Opts #2,#3", xqsim.NearFutureRSFQ(d, true), rates, 4600)
	show(w, "4K CMOS, baseline", xqsim.NearFutureCMOS4K(d, false), rates, 1400)
	show(w, "4K CMOS + voltage scaling", xqsim.NearFutureCMOS4K(d, true), rates, 9800)

	fmt.Fprintln(w, "\n[3] future: ERSFQ (Guideline #2, Fig. 19)")
	show(w, "ERSFQ PSU/TCU (EDU at 300K)", xqsim.FutureSystem(d, false, false), rates, 9800)
	show(w, "+ ERSFQ EDU at 4K", xqsim.FutureSystem(d, true, false), rates, 8100)
	show(w, "+ Opt#4 patch-sliding EDU", xqsim.FutureSystem(d, true, true), rates, 59000)

	final := xqsim.FutureSystem(d, true, true)
	n := final.MaxQubits(rates)
	rep := final.Evaluate(n, rates)
	fmt.Fprintf(w, "\nfinal design point at %d qubits:\n", n)
	fmt.Fprintf(w, "  instruction bandwidth: %.0f Gbps (internal 4K links)\n", rep.InstBandwidthGbps)
	fmt.Fprintf(w, "  decode latency:        %.0f ns (budget %.0f ns)\n", rep.DecodeLatencyNs, 1010.0)
	fmt.Fprintf(w, "  4K device power:       %.3f W (budget 1.5 W)\n", rep.Power4KW)
	fmt.Fprintf(w, "  4K device area:        %.0f cm^2 (budget 620 cm^2)\n", rep.Area4KCm2)
	fmt.Fprintf(w, "  logical qubits at d=%d: ~%d\n", d, xqsim.ScaleFor(n, d).NLQ)
}

func main() {
	var sb strings.Builder
	run(&sb)
	if _, err := os.Stdout.WriteString(sb.String()); err != nil {
		os.Exit(1)
	}
}
