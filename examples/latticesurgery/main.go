// Lattice surgery walkthrough: executes one pi/8 Pauli product rotation
// the way the control processor does — resource-patch initialization, the
// two parallel Pauli product measurements via merge/split, interpretation,
// feedback measurement, and byproduct tracking — while printing the patch
// lattice's dynamic information (the paper's Table 2) at each step.
package main

import (
	"fmt"
	"io"
	"os"
	"strings"

	"xqsim"
	"xqsim/internal/ftqc"
	"xqsim/internal/isa"
	"xqsim/internal/microarch"
	"xqsim/internal/pauli"
	"xqsim/internal/surface"
)

func printLattice(w *strings.Builder, l *surface.PPRLayout) {
	for r := 0; r < l.Rows; r++ {
		for c := 0; c < l.Cols; c++ {
			p := l.PatchAt(r, c)
			cell := "....."
			switch {
			case p.Static.Type == surface.Mapped && p.Dynamic.MergeOn:
				cell = fmt.Sprintf("Q%d(M)", p.Static.LQ)
			case p.Static.Type == surface.Mapped:
				cell = fmt.Sprintf("Q%d   ", p.Static.LQ)
			case p.Dynamic.MergeOn:
				cell = "=====" // merged routing patch
			case p.Dynamic.ESMOn:
				cell = "esm  "
			}
			fmt.Fprintf(w, "%-6s", cell)
		}
		fmt.Fprintln(w)
	}
}

// seed fixes the walkthrough's random draws; every replay uses it.
const seed = 42

// run executes the walkthrough and writes it to w.
func run(w io.Writer) error {
	var sb strings.Builder
	// PPR(pi/8, Z (x) Z) over two logical qubits, exactly the paper's
	// Fig. 4 scenario (with the stabilizer substitution for simulation).
	circ := xqsim.SinglePPR("ZZ", xqsim.AnglePi8).SubstituteStabilizer()
	res, err := xqsim.Compile(circ)
	if err != nil {
		return err
	}

	fmt.Fprintln(&sb, "compiled QISA program:")
	fmt.Fprint(&sb, xqsim.Disassemble(res.Program))

	// The pipeline runs whole programs, so each checkpoint replays the
	// program prefix that ends at it from the same seed and dumps the
	// lattice the prefix leaves behind.
	cfg := xqsim.PipelineConfig(3, 0, xqsim.SchemePriority, true, seed)
	pl := microarch.NewPipeline(surface.NewPPRLayout(circ.NLQ, 3), cfg)
	for i, in := range res.Program {
		var note string
		switch in.Op {
		case isa.MergeInfo:
			note = "after MERGE_INFO (patch info updated, seams -> Z&X)"
		case isa.SplitInfo:
			note = "after SPLIT_INFO (lattice restored)"
		case isa.LQMFM:
			note = "after the feedback measurement (byproduct check)"
		default:
			continue // other opcodes run without a lattice dump
		}
		pl.Reset(seed)
		if err := pl.Run(res.Program[:i+1]); err != nil {
			return err
		}
		fmt.Fprintf(&sb, "\n-- %s --\n", note)
		printLattice(&sb, pl.B.Layout)
	}

	pl.Reset(seed)
	if err := pl.Run(res.Program); err != nil {
		return err
	}
	fmt.Fprintln(&sb, "\nmeasurement registers:")
	pl.M.MregFile.Range(func(mreg uint16, v bool) {
		fmt.Fprintf(&sb, "  mreg[%d] = %v\n", mreg, v)
	})

	// Table 2 style dump for one merged patch.
	fmt.Fprintln(&sb, "\nTable-2-style patch information (logical qubit 0's patch):")
	layout := pl.B.Layout
	idx, _ := layout.PatchOfLQ(0)
	p := layout.Patch(idx)
	fmt.Fprintf(&sb, "  pch_type: %v %v, Z_boundary: %v, X_boundary: %v\n",
		p.Static.Type, p.Static.Init, p.Static.ZSide, p.Static.XSide)
	fmt.Fprintf(&sb, "  ESM l/t/r/b: %v/%v/%v/%v, ESM_on: %v, merge_on: %v\n",
		p.Dynamic.ESM[surface.Left], p.Dynamic.ESM[surface.Top],
		p.Dynamic.ESM[surface.Right], p.Dynamic.ESM[surface.Bottom],
		p.Dynamic.ESMOn, p.Dynamic.MergeOn)

	// The same rotation at the abstract protocol level, for comparison.
	fmt.Fprintln(&sb, "\nprotocol-level execution (verified rules of internal/ftqc):")
	m := ftqc.NewSVMachine(4, seed)
	tr := ftqc.NewTracker(4)
	rot := circ.Rotations[0]
	ext, _ := pauli.ParseProduct(rot.P.String() + "II")
	out := ftqc.ExecutePPR(m, tr, ftqc.Rotation{P: ext, Angle: rot.Angle}, 2, 3)
	fmt.Fprintf(&sb, "  a=%v b=%v c=%v d=%v fm_basis_X=%v byproduct=%v\n",
		out.A, out.B, out.C, out.D, out.FMBasisX, out.BPGen)

	_, err = io.WriteString(w, sb.String())
	return err
}

func main() {
	if err := run(os.Stdout); err != nil {
		_, _ = fmt.Fprintln(os.Stderr, "latticesurgery:", err)
		os.Exit(1)
	}
}
