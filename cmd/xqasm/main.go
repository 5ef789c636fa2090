// Command xqasm assembles and disassembles QISA programs, and compiles
// workloads to QISA.
//
// Usage:
//
//	xqasm -c 'LQI targets=0:zero' -c 'RUN_ESM'       assemble inline source
//	xqasm -in prog.qasm -out prog.bin                assemble a file
//	xqasm -dis -in prog.bin                          disassemble a binary
//	xqasm -compile qaoa -lq 4                        compile a workload
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"xqsim"
	"xqsim/internal/cli"
	"xqsim/internal/core"
)

type multiFlag []string

func (m *multiFlag) String() string     { return strings.Join(*m, "; ") }
func (m *multiFlag) Set(s string) error { *m = append(*m, s); return nil }

func main() {
	var (
		inline  multiFlag
		in      = flag.String("in", "", "input file (source or binary)")
		out     = flag.String("out", "", "output file (binary when assembling)")
		dis     = flag.Bool("dis", false, "disassemble a binary")
		compile = flag.String("compile", "", "compile a workload: random | qft2 | qaoa | ppr")
		lq      = flag.Int("lq", 3, "logical qubits (random/qaoa)")
		pprs    = flag.Int("pprs", 5, "rotations (random)")
		product = flag.String("product", "ZZZ", "Pauli product (ppr)")
		seed    = flag.Int64("seed", 1, "seed (random)")
	)
	flag.Var(&inline, "c", "inline assembly line (repeatable)")
	flag.Parse()

	fail := func(err error) {
		_, _ = fmt.Fprintln(os.Stderr, "xqasm:", err)
		os.Exit(1)
	}

	// SIGINT/SIGTERM cancel between the compile and output stages so an
	// interrupted run never leaves a half-written -out file behind.
	ctx, stop := cli.SignalContext()
	defer stop()

	var prog xqsim.Program
	switch {
	case *compile != "":
		circ, err := core.Workload{Kind: *compile, LQ: *lq, PPRs: *pprs, Product: *product, Seed: *seed}.Circuit()
		if err != nil {
			fail(err)
		}
		res, err := xqsim.Compile(circ)
		if err != nil {
			fail(err)
		}
		prog = res.Program
		_, _ = fmt.Fprintf(os.Stderr, "compiled %s: %d instructions (%d bits), %d rotations\n",
			circ.Name, len(prog), prog.Bits(), res.Rotations)
	case *dis:
		if *in == "" {
			fail(fmt.Errorf("-dis needs -in"))
		}
		raw, err := os.ReadFile(*in)
		if err != nil {
			fail(err)
		}
		p, err := xqsim.DecodeBinary(raw)
		if err != nil {
			fail(err)
		}
		fmt.Print(xqsim.Disassemble(p))
		return
	default:
		src := strings.Join(inline, "\n")
		if *in != "" {
			raw, err := os.ReadFile(*in)
			if err != nil {
				fail(err)
			}
			src = string(raw)
		}
		if src == "" {
			flag.Usage()
			os.Exit(2)
		}
		p, err := xqsim.Assemble(src)
		if err != nil {
			fail(err)
		}
		prog = p
	}

	if ctx.Err() != nil {
		_, _ = fmt.Fprintln(os.Stderr, "xqasm: interrupted")
		os.Exit(cli.ExitInterrupted)
	}

	if *out != "" {
		if err := os.WriteFile(*out, prog.EncodeBinary(), 0o644); err != nil {
			fail(err)
		}
		_, _ = fmt.Fprintf(os.Stderr, "wrote %d instructions to %s\n", len(prog), *out)
		return
	}
	fmt.Print(xqsim.Disassemble(prog))
}
