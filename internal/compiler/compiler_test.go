package compiler

import (
	"math"
	"os"
	"testing"

	"xqsim/internal/ftqc"
	"xqsim/internal/isa"
	"xqsim/internal/pauli"
	"xqsim/internal/statevec"
)

// gateFidelity applies the builder's rotation list and the direct gate
// function to identical random states and returns the fidelity.
func gateFidelity(t *testing.T, nLQ int, build func(*Builder), direct func(*statevec.State), seed int64) float64 {
	t.Helper()
	b := NewBuilder("test", nLQ)
	build(b)
	c := b.Circuit()

	s1 := statevec.New(nLQ, seed)
	s2 := statevec.New(nLQ, seed)
	// Random product-ish prep.
	for q := 0; q < nLQ; q++ {
		if seed%2 == 0 {
			s1.H(q)
			s2.H(q)
		}
		if (seed+int64(q))%3 == 0 {
			s1.T(q)
			s2.T(q)
		}
	}
	for _, rot := range c.Rotations {
		s1.ApplyPPR(rot.Theta(), rot.P)
	}
	direct(s2)
	return s1.FidelityWith(s2)
}

func TestGateDecompositions(t *testing.T) {
	cases := []struct {
		name   string
		nLQ    int
		build  func(*Builder)
		direct func(*statevec.State)
	}{
		{"H", 1, func(b *Builder) { b.H(0) }, func(s *statevec.State) { s.H(0) }},
		{"S", 1, func(b *Builder) { b.S(0) }, func(s *statevec.State) { s.S(0) }},
		{"T", 1, func(b *Builder) { b.T(0) }, func(s *statevec.State) { s.T(0) }},
		{"X", 1, func(b *Builder) { b.X(0) }, func(s *statevec.State) { s.X(0) }},
		{"Z", 1, func(b *Builder) { b.Z(0) }, func(s *statevec.State) { s.Z(0) }},
		{"CZ", 2, func(b *Builder) { b.CZ(0, 1) }, func(s *statevec.State) { s.CZ(0, 1) }},
		{"CX", 2, func(b *Builder) { b.CX(0, 1) }, func(s *statevec.State) { s.CX(0, 1) }},
		{"CS", 2, func(b *Builder) { b.CS(0, 1) }, func(s *statevec.State) {
			// controlled-S = diag(1,1,1,i): CZ then S on both then undo...
			// easiest direct form: phase i on |11> only.
			s.CZ(0, 1) // diag(1,1,1,-1)
			s.S(0)     // i on q0=1
			s.S(1)     // i on q1=1
			// Now diag(1, i, i, -1*i*i = 1)? Compose: |00>:1, |01>:i, |10>:i, |11>:(-1)(i)(i)=1.
			// That's not CS; apply direct matrix instead below.
		}},
	}
	for _, c := range cases {
		if c.name == "CS" {
			continue // handled separately with an exact construction
		}
		for seed := int64(0); seed < 6; seed++ {
			f := gateFidelity(t, c.nLQ, c.build, c.direct, seed)
			if math.Abs(f-1) > 1e-9 {
				t.Errorf("%s decomposition: fidelity %v (seed %d)", c.name, f, seed)
			}
		}
	}
}

func TestCSDecomposition(t *testing.T) {
	// Controlled-S = diag(1,1,1,i). Build it directly with RZ rotations:
	// CS = e^{i pi/8} Rz_a(pi/4) Rz_b(pi/4) exp(+i pi/8 Za Zb).
	for seed := int64(0); seed < 6; seed++ {
		f := gateFidelity(t, 2, func(b *Builder) { b.CS(0, 1) }, func(s *statevec.State) {
			s.RZ(0, math.Pi/4)
			s.RZ(1, math.Pi/4)
			zz, _ := pauli.ParseProduct("ZZ")
			s.ApplyPPR(-math.Pi/8, zz)
		}, seed)
		if math.Abs(f-1) > 1e-9 {
			t.Errorf("CS decomposition: fidelity %v (seed %d)", f, seed)
		}
	}
}

func TestValidate(t *testing.T) {
	good := RandomPPR(3, 5, 1)
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := Circuit{NLQ: 0}
	if err := bad.Validate(); err == nil {
		t.Error("accepted empty circuit")
	}
	wrongLen := Circuit{NLQ: 3, Rotations: []ftqc.Rotation{{P: pauli.NewProduct(2), Angle: ftqc.AnglePi8}}}
	if err := wrongLen.Validate(); err == nil {
		t.Error("accepted mismatched rotation width")
	}
	idRot := Circuit{NLQ: 2, Rotations: []ftqc.Rotation{{P: pauli.NewProduct(2), Angle: ftqc.AnglePi8}}}
	if err := idRot.Validate(); err == nil {
		t.Error("accepted identity pi/8 rotation")
	}
	badInit := Circuit{NLQ: 2, Init: make([]isa.LQMark, 3)}
	if err := badInit.Validate(); err == nil {
		t.Error("accepted mismatched init list")
	}
}

func TestCompileStructure(t *testing.T) {
	c := SinglePPR("ZZ", ftqc.AnglePi8)
	res, err := Compile(c)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rotations != 1 {
		t.Fatalf("rotations = %d", res.Rotations)
	}
	if res.AncillaLQ != 2 || res.MagicLQ != 3 {
		t.Fatalf("resource LQs = %d,%d", res.AncillaLQ, res.MagicLQ)
	}
	// Expected opcode sequence for one PPR plus init and final readout.
	var ops []isa.Opcode
	for _, in := range res.Program {
		ops = append(ops, in.Op)
	}
	want := []isa.Opcode{
		isa.LQI, isa.RunESM, // data init
		isa.LQI,                      // resource init
		isa.MergeInfo, isa.MergeInfo, // the two PPMs
		isa.InitIntmd, isa.RunESM, isa.MeasIntmd, isa.SplitInfo, isa.RunESM,
		isa.PPMInterpret, isa.PPMInterpret,
		isa.LQMX, isa.LQMFM,
		isa.LQMZ, isa.LQMZ, // final readout
	}
	if len(ops) != len(want) {
		t.Fatalf("program length %d, want %d:\n%s", len(ops), len(want), isa.Disassemble(res.Program))
	}
	for i := range want {
		if ops[i] != want[i] {
			t.Fatalf("op %d = %v, want %v\n%s", i, ops[i], want[i], isa.Disassemble(res.Program))
		}
	}
	// The resource LQI must target the ancilla (zero) and magic patches.
	tl := res.Program[2].TargetLQs()
	if len(tl) != 2 || tl[0].LQ != 2 || tl[0].Mark != isa.MarkZero || tl[1].LQ != 3 || tl[1].Mark != isa.MarkMagic {
		t.Fatalf("resource LQI targets = %v", tl)
	}
	// First PPM product is Z2(data ZZ) + Z on magic.
	pr := res.Program[3].PauliProduct(4)
	if pr.Ops[0] != pauli.Z || pr.Ops[1] != pauli.Z || pr.Ops[3] != pauli.Z || pr.Ops[2] != pauli.I {
		t.Fatalf("first PPM product = %v", pr)
	}
	// Second PPM is Y on ancilla, Z on magic.
	pr2 := res.Program[4].PauliProduct(4)
	if pr2.Ops[2] != pauli.Y || pr2.Ops[3] != pauli.Z || pr2.Weight() != 2 {
		t.Fatalf("second PPM product = %v", pr2)
	}
	// The feedback measurement carries the byproduct check.
	fm := res.Program[13]
	if fm.Op != isa.LQMFM || fm.Flags&isa.FlagBPCheck == 0 || fm.Flags&isa.FlagDiscard == 0 {
		t.Fatalf("LQM_FM flags = %v", fm.Flags)
	}
}

func TestCompileAnglePi4Flag(t *testing.T) {
	c := SinglePPR("X", ftqc.AnglePi4)
	res, err := Compile(c)
	if err != nil {
		t.Fatal(err)
	}
	for _, in := range res.Program {
		if in.Op == isa.PPMInterpret && in.Flags&isa.FlagAnglePi4 == 0 {
			t.Error("pi/4 rotation missing angle flag on interpret")
		}
	}
}

func TestCompileAbsorbsPi2(t *testing.T) {
	// X(0) followed by measuring qubit 0 must set the invert flag on the
	// final LQM_Z of qubit 0 (and nothing else).
	b := NewBuilder("t", 2)
	b.X(0)
	res, err := Compile(b.Circuit())
	if err != nil {
		t.Fatal(err)
	}
	var finals []isa.Instr
	for _, in := range res.Program {
		if in.Op == isa.LQMZ {
			finals = append(finals, in)
		}
	}
	if len(finals) != 2 {
		t.Fatalf("finals = %d", len(finals))
	}
	if finals[0].Flags&isa.FlagInvert == 0 {
		t.Error("qubit 0 readout missing invert")
	}
	if finals[1].Flags&isa.FlagInvert != 0 {
		t.Error("qubit 1 readout wrongly inverted")
	}
	// No quantum instructions for the bare Pauli.
	if res.Rotations != 0 {
		t.Errorf("rotations executed = %d", res.Rotations)
	}
}

func TestCompileAbsorbedPauliFlipsInterpretation(t *testing.T) {
	// Z(0) then a PPM over X0 must invert the interpreted result:
	// Z anticommutes with X.
	b := NewBuilder("t", 1)
	b.Z(0)
	b.rot1(ftqc.AnglePi8, false, 0, pauli.X)
	res, err := Compile(b.Circuit())
	if err != nil {
		t.Fatal(err)
	}
	seen := false
	for _, in := range res.Program {
		if in.Op == isa.PPMInterpret && in.PauliProduct(3).Ops[0] == pauli.X {
			if in.Flags&isa.FlagInvert == 0 {
				t.Error("anticommuting frame did not set invert")
			}
			seen = true
		}
	}
	if !seen {
		t.Fatal("interpret instruction not found")
	}
}

func TestReferenceQFT2(t *testing.T) {
	// QFT|00> gives the uniform distribution; QFT|x> is uniform too (all
	// Fourier basis states are uniform in Z basis).
	for bits := uint(0); bits < 4; bits++ {
		d := ReferenceDistribution(QFT2(bits))
		for i, p := range d {
			if math.Abs(p-0.25) > 1e-9 {
				t.Fatalf("QFT2(%d): P[%d] = %v, want 0.25", bits, i, p)
			}
		}
	}
}

func TestProtocolMatchesReferenceQFT2(t *testing.T) {
	c := QFT2(2)
	want := ReferenceDistribution(c)
	got := SampledDistribution(c, 1500, 42)
	if d := statevec.TotalVariation(want, got); d > 0.05 {
		t.Fatalf("QFT2 protocol dTV = %v\nwant %v\ngot  %v", d, want, got)
	}
}

func TestProtocolMatchesReferenceQAOA(t *testing.T) {
	c := QAOA(3)
	want := ReferenceDistribution(c)
	got := SampledDistribution(c, 1500, 7)
	if d := statevec.TotalVariation(want, got); d > 0.06 {
		t.Fatalf("QAOA protocol dTV = %v\nwant %v\ngot  %v", d, want, got)
	}
}

func TestStabilizerSubstitution(t *testing.T) {
	c := QAOA(3)
	sub := c.SubstituteStabilizer()
	for i, r := range sub.Rotations {
		if r.Angle == ftqc.AnglePi8 {
			t.Fatalf("rotation %d still pi/8", i)
		}
	}
	// The original circuit is untouched.
	foundPi8 := false
	for _, r := range c.Rotations {
		if r.Angle == ftqc.AnglePi8 {
			foundPi8 = true
		}
	}
	if !foundPi8 {
		t.Fatal("original mutated")
	}
	// The substituted circuit still matches its own reference.
	want := ReferenceDistribution(sub)
	got := SampledDistribution(sub, 1500, 11)
	if d := statevec.TotalVariation(want, got); d > 0.06 {
		t.Fatalf("substituted dTV = %v", d)
	}
}

func TestRandomPPRDeterminism(t *testing.T) {
	a := RandomPPR(4, 10, 99)
	b := RandomPPR(4, 10, 99)
	for i := range a.Rotations {
		if a.Rotations[i].P.String() != b.Rotations[i].P.String() {
			t.Fatal("RandomPPR not deterministic for equal seeds")
		}
	}
	c := RandomPPR(4, 10, 100)
	same := true
	for i := range a.Rotations {
		if a.Rotations[i].P.String() != c.Rotations[i].P.String() {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical workloads")
	}
}

func TestCompileMultiWindowProducts(t *testing.T) {
	// A product spanning qubits 3 and 20 needs two MERGE_INFO windows.
	c := Circuit{NLQ: 24, Name: "wide"}
	p := pauli.NewProduct(24)
	p.Ops[3] = pauli.Z
	p.Ops[20] = pauli.Z
	c.Rotations = []ftqc.Rotation{{P: p, Angle: ftqc.AnglePi8}}
	res, err := Compile(c)
	if err != nil {
		t.Fatal(err)
	}
	merges := 0
	for _, in := range res.Program {
		if in.Op == isa.MergeInfo {
			merges++
		}
	}
	// First PPM spans windows 0 (qubit 3), 1 (qubit 20), 1 (magic at 25)
	// -> qubit 20 and magic 25 share window 1 => 2 instructions; second
	// PPM (ancilla 24, magic 25, window 1) => 1 instruction.
	if merges != 3 {
		t.Fatalf("merge instructions = %d\n%s", merges, isa.Disassemble(res.Program))
	}
}

func TestMSD15To1ProducesMagicState(t *testing.T) {
	// Verify the construction exactly: run the rotations on the dense
	// simulator, project the checks onto X=+1, and compare qubit 0 with
	// |m> = (|0> + e^{i pi/4}|1>)/sqrt2.
	c := MSD15To1()
	if len(c.Rotations) != 15 {
		t.Fatalf("rotations = %d, want 15", len(c.Rotations))
	}
	s := statevec.New(5, 1)
	for q := 0; q < 5; q++ {
		s.H(q)
	}
	for _, rot := range c.Rotations {
		s.ApplyPPR(rot.Theta(), rot.P)
	}
	// Project checks onto X=+1 (probability must be 1 for perfect gates).
	for q := 1; q < 5; q++ {
		pr := pauli.NewProduct(5)
		pr.Ops[q] = pauli.X
		if p := s.CollapseProduct(pr, false); math.Abs(p-1) > 1e-9 {
			t.Fatalf("check qubit %d: X=+1 probability %v, want 1", q, p)
		}
	}
	// Output must be the +1 eigenstate of (X+Y)/sqrt2: <X> = <Y> = 1/sqrt2.
	x := pauli.NewProduct(5)
	x.Ops[0] = pauli.X
	y := pauli.NewProduct(5)
	y.Ops[0] = pauli.Y
	if ex := s.ExpectProduct(x); math.Abs(ex-1/math.Sqrt2) > 1e-9 {
		t.Fatalf("<X> = %v, want %v", ex, 1/math.Sqrt2)
	}
	if ey := s.ExpectProduct(y); math.Abs(ey-1/math.Sqrt2) > 1e-9 {
		t.Fatalf("<Y> = %v, want %v", ey, 1/math.Sqrt2)
	}
}

func TestMSD15To1SelfCheckDeterministic(t *testing.T) {
	// The self-check circuit reads all zeros with certainty when every
	// rotation is exact.
	d := ReferenceDistribution(MSD15To1SelfCheck())
	if math.Abs(d[0]-1) > 1e-9 {
		t.Fatalf("P(00000) = %v, want 1 (dist %v)", d[0], d)
	}
}

func TestMSD15To1SelfCheckThroughProtocol(t *testing.T) {
	// The lattice-surgery protocol execution (with byproduct tracking and
	// feedback) must reproduce the deterministic all-zeros readout. This
	// exercises true pi/8 rotations at the logical level, where the dense
	// machine can prepare real magic resource states... which it cannot as
	// a stabilizer machine — the SVMachine is dense, so it can.
	hits := 0
	shots := 60
	for s := 0; s < shots; s++ {
		if ProtocolSample(MSD15To1SelfCheck(), int64(s)*97+11) == 0 {
			hits++
		}
	}
	if hits != shots {
		t.Fatalf("self-check passed %d/%d shots, want all", hits, shots)
	}
}

func TestCompileGoldenDisassembly(t *testing.T) {
	// The canonical PPR(pi/8, ZZ) lowering is pinned as a golden file:
	// unintended compiler or ISA changes show up as a diff here.
	res, err := Compile(SinglePPR("ZZ", ftqc.AnglePi8))
	if err != nil {
		t.Fatal(err)
	}
	got := isa.Disassemble(res.Program)
	want, err := os.ReadFile("testdata/ppr_zz.qasm")
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("golden mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
	// The golden program also reassembles to the identical binary.
	back, err := isa.Assemble(string(want))
	if err != nil {
		t.Fatal(err)
	}
	for i := range res.Program {
		if back[i] != res.Program[i] {
			t.Fatalf("golden reassembly differs at instruction %d", i)
		}
	}
}

// S, T and Z are Builder gates only the gate-fidelity tests build.

// S appends the phase gate: PPR(pi/4, Z).
func (b *Builder) S(q int) *Builder { return b.rot1(ftqc.AnglePi4, false, q, pauli.Z) }

// T appends PPR(pi/8, Z) (the non-Clifford T gate up to phase).
func (b *Builder) T(q int) *Builder { return b.rot1(ftqc.AnglePi8, false, q, pauli.Z) }

// Z appends a Pauli Z.
func (b *Builder) Z(q int) *Builder { return b.rot1(ftqc.AnglePi2, false, q, pauli.Z) }

// ProtocolSample executes the circuit once through the lattice-surgery
// protocol on the dense logical machine, returning the byproduct-corrected
// final readout bits packed into an integer. It exercises exactly the
// classical rules the hardware LMU implements and serves as the
// logical-level oracle for the full pipeline.
func ProtocolSample(c Circuit, seed int64) int {
	n := c.NLQ + 2
	m := ftqc.NewSVMachine(n, seed)
	for q, mark := range dataInits(c) {
		switch mark {
		case isa.MarkPlus:
			m.S.H(q)
		case isa.MarkMagic:
			m.S.PrepareResource(q, ftqc.AnglePi8.ResourceTheta())
		case isa.MarkNone, isa.MarkZero:
			// |0> is the machine's initial state; nothing to prepare.
		}
	}
	tr := ftqc.NewTracker(n)
	for _, rot := range c.Rotations {
		ext := ftqc.Rotation{P: Extend(rot.P, n), Angle: rot.Angle, Neg: rot.Neg}
		ftqc.ExecutePPR(m, tr, ext, c.NLQ, c.NLQ+1)
	}
	key := 0
	for q := 0; q < c.NLQ; q++ {
		pr := pauli.NewProduct(n)
		pr.Ops[q] = pauli.Z
		raw := m.MeasureProduct(pr)
		if ftqc.InterpretFinalZ(tr, q, raw) {
			key |= 1 << uint(q)
		}
	}
	return key
}

// SampledDistribution draws shots through ProtocolSample and returns the
// empirical distribution over final readouts.
func SampledDistribution(c Circuit, shots int, seed int64) []float64 {
	out := make([]float64, 1<<uint(c.NLQ))
	for s := 0; s < shots; s++ {
		out[ProtocolSample(c, seed+int64(s)*7919)]++
	}
	for i := range out {
		out[i] /= float64(shots)
	}
	return out
}
