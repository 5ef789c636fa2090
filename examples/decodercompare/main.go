// Decoder tournament: injects a random Pauli error pattern into a
// surface-code patch, decodes it with every registered EDU backend —
// the spike/token matcher and the union-find decoder — and checks that
// each one annihilates the syndrome, then races the backends through
// the streaming memory experiment (xqsim.DecoderTournament) on
// accuracy, modeled ns per ESM round, and the maximum code distance
// each backend sustains within the ESM round budget. The token-setup
// scheme comparison of the paper (Fig. 15a/b, Fig. 20) rides along:
// all schemes produce the same matching and differ only in cycle cost.
package main

import (
	"context"
	"fmt"
	"os"
	"sort"
	"strings"

	"xqsim"
	"xqsim/internal/decoder"
	"xqsim/internal/pauli"
	"xqsim/internal/surface"
	"xqsim/internal/xrand"
)

func run(w *strings.Builder) error {
	d := 15
	code := surface.NewCode(d)
	rng := xrand.New(7)

	fmt.Fprintf(w, "distance-%d patch: %d data qubits, %d stabilizers\n\n",
		d, code.DataQubits(), len(code.Stabilizers()))

	// Inject a random error pattern at ~0.5% density.
	var errs []surface.Coord
	for i := 0; i < d; i++ {
		for j := 0; j < d; j++ {
			if rng.Float64() < 0.005*float64(d) {
				errs = append(errs, surface.Coord{Row: i, Col: j})
			}
		}
	}
	fmt.Fprintf(w, "injected X errors: %v\n", errs)

	syn := decoder.SyndromeOf(code, pauli.Z, errs)
	fmt.Fprintf(w, "non-trivial Z syndromes: %d\n", len(syn))

	// Decode the same syndrome with every registered backend.
	var bm decoder.SyndromeBitmap
	bm.Resize(code)
	bm.FromMap(syn)
	for _, name := range xqsim.DecoderBackendNames() {
		b, err := xqsim.NewDecoderBackend(name)
		if err != nil {
			return err
		}
		var res decoder.Result
		cycles := b.Decode(code, pauli.Z, &bm, &res)
		fmt.Fprintf(w, "\nbackend %s: %d matches, %d cycles\n", name, len(res.Matches), cycles)
		for _, m := range res.Matches {
			if m.ToBoundary {
				fmt.Fprintf(w, "  %v -> boundary (%d steps)\n", m.From, m.Steps)
			} else {
				fmt.Fprintf(w, "  %v <-> %v (%d steps)\n", m.From, m.To, m.Steps)
			}
		}
		left := decoder.SyndromeOf(code, pauli.Z, res.Flips)
		mismatch := len(left) != len(syn)
		for c := range left {
			if !syn[c] {
				mismatch = true
			}
		}
		if mismatch {
			fmt.Fprintln(w, "  !! correction does not annihilate the syndrome")
		} else if decoder.ResidualLogicalError(code, pauli.Z, errs, res.Flips) {
			fmt.Fprintln(w, "  residual logical error (error weight exceeded the code's reach)")
		} else {
			fmt.Fprintln(w, "  correction is logically equivalent to the injected error")
		}
	}

	// Cycle cost of the same window under each token-setup scheme over a
	// large cell array (the matching is identical across schemes; only
	// latency differs). The priority price is the matching backend's.
	res := decoder.DecodePatch(code, pauli.Z, syn)
	totalCells := 30000 // e.g. ancillas of a 60K-qubit machine
	fmt.Fprintf(w, "\nEDU cycles over a %d-cell array:\n", totalCells)
	for _, s := range []decoder.Scheme{
		decoder.SchemeRoundRobin, decoder.SchemePriority, decoder.SchemePatchSliding,
	} {
		cycles := decoder.WindowCycles(s, d, res.Matches, nil, totalCells, 12)
		fmt.Fprintf(w, "  %-14s %8d cycles", s, cycles)
		switch s {
		case decoder.SchemeRoundRobin:
			fmt.Fprint(w, "   (token shifts once per cell per round: the Fig. 15a bottleneck)")
		case decoder.SchemePriority:
			fmt.Fprint(w, "   (Optimization #1: direct token allocation)")
		case decoder.SchemePatchSliding:
			fmt.Fprint(w, "   (Optimization #4: same latency, constant powered cells)")
		}
		fmt.Fprintln(w)
	}

	// The tournament proper: stream d rounds of syndromes per shot
	// through each backend and compare throughput across distances.
	fmt.Fprintln(w, "\nstreaming tournament (64 shots per cell):")
	tr, err := xqsim.DecoderTournament(context.Background(), 64, 7, "")
	if err != nil {
		return err
	}
	names := make([]string, 0)
	for k := range tr.Anchors {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(w, "  %-34s %10.4g\n", k, tr.Anchors[k][1])
	}
	return nil
}

func main() {
	var sb strings.Builder
	err := run(&sb)
	if _, werr := os.Stdout.WriteString(sb.String()); werr != nil {
		os.Exit(1)
	}
	if err != nil {
		_, _ = fmt.Fprintln(os.Stderr, "decodercompare:", err)
		os.Exit(1)
	}
}
