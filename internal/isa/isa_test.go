package isa

import (
	"math/rand"
	"testing"
	"testing/quick"

	"xqsim/internal/pauli"
)

func TestOpcodeNames(t *testing.T) {
	for op := Opcode(0); op < numOpcodes; op++ {
		name := op.String()
		back, ok := ParseOpcode(name)
		if !ok || back != op {
			t.Errorf("opcode %d name round trip failed: %q -> %v,%v", op, name, back, ok)
		}
	}
	if _, ok := ParseOpcode("BOGUS"); ok {
		t.Error("parsed bogus opcode")
	}
}

func TestEncodeDecodeFields(t *testing.T) {
	in := Instr{
		Op:      PPMInterpret,
		Flags:   FlagCondStore | FlagBPCheck,
		MregDst: 0x1234 & 0x1fff,
		Offset:  0x155,
		Target:  0xdeadbeef,
	}
	got := Decode(in.Encode())
	if got != in {
		t.Fatalf("round trip: got %+v want %+v", got, in)
	}
}

func TestEncodeDecodeQuick(t *testing.T) {
	f := func(op uint8, flags uint8, mreg uint16, off uint16, tgt uint32) bool {
		in := Instr{
			Op:      Opcode(op % uint8(numOpcodes)),
			Flags:   MeasFlag(flags) & flagMask,
			MregDst: mreg & mregMask,
			Offset:  off & offsetMask,
			Target:  tgt,
		}
		return Decode(in.Encode()) == in
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestFieldBitPositions(t *testing.T) {
	// Table 1 anchors: opcode [63:60], meas_flag [59:54], mreg [53:41],
	// offset [40:32], target [31:0].
	in := Instr{Op: 0xf & 0xf, Flags: 0x3f, MregDst: 0x1fff, Offset: 0x1ff, Target: 0xffffffff}
	if in.Encode() != 0xffffffffffffffff {
		t.Fatalf("all-ones pack = %x", in.Encode())
	}
	if Decode(1<<60).Op != 1 {
		t.Error("opcode not at bit 60")
	}
	if Decode(1<<54).Flags != 1 {
		t.Error("flags not at bit 54")
	}
	if Decode(1<<41).MregDst != 1 {
		t.Error("mreg not at bit 41")
	}
	if Decode(1<<32).Offset != 1 {
		t.Error("offset not at bit 32")
	}
	if Decode(1).Target != 1 {
		t.Error("target not at bit 0")
	}
}

func TestPauliListAccessors(t *testing.T) {
	var in Instr
	in.Op = MergeInfo
	in.SetPauliAt(0, pauli.Z)
	in.SetPauliAt(3, pauli.Y)
	in.SetPauliAt(15, pauli.X)
	if in.PauliAt(0) != pauli.Z || in.PauliAt(3) != pauli.Y || in.PauliAt(15) != pauli.X {
		t.Fatalf("pauli accessors broken: %08x", in.Target)
	}
	if in.PauliAt(1) != pauli.I {
		t.Error("unset slot not identity")
	}
	in.SetPauliAt(3, pauli.I)
	if in.PauliAt(3) != pauli.I {
		t.Error("clearing a slot failed")
	}
}

func TestPauliProductExpansion(t *testing.T) {
	var in Instr
	in.Op = MergeInfo
	in.Offset = 2 // qubits 32..47
	in.SetPauliAt(0, pauli.Z)
	in.SetPauliAt(5, pauli.X)
	pr := in.PauliProduct(48)
	if pr.Ops[32] != pauli.Z || pr.Ops[37] != pauli.X {
		t.Fatalf("expansion wrong: %v", pr)
	}
	if pr.Weight() != 2 {
		t.Fatalf("weight = %d", pr.Weight())
	}
	// Expansion clips at nLQ.
	pr2 := in.PauliProduct(34)
	if pr2.Weight() != 1 {
		t.Fatalf("clipped expansion weight = %d", pr2.Weight())
	}
}

func TestTargetLQs(t *testing.T) {
	var in Instr
	in.Op = LQI
	in.SetMarkAt(0, MarkZero)
	in.SetMarkAt(2, MarkMagic)
	in.SetMarkAt(7, MarkPlus)
	got := in.TargetLQs()
	if len(got) != 3 {
		t.Fatalf("targets = %v", got)
	}
	if got[0].LQ != 0 || got[0].Mark != MarkZero ||
		got[1].LQ != 2 || got[1].Mark != MarkMagic ||
		got[2].LQ != 7 || got[2].Mark != MarkPlus {
		t.Fatalf("targets = %v", got)
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	prog := make(Program, 50)
	for i := range prog {
		prog[i] = Instr{
			Op:      Opcode(r.Intn(int(numOpcodes))),
			Flags:   MeasFlag(r.Intn(64)),
			MregDst: uint16(r.Intn(1 << 13)),
			Offset:  uint16(r.Intn(1 << 9)),
			Target:  r.Uint32(),
		}
	}
	bin := prog.EncodeBinary()
	if len(bin) != 400 {
		t.Fatalf("binary size = %d", len(bin))
	}
	back, err := DecodeBinary(bin)
	if err != nil {
		t.Fatal(err)
	}
	for i := range prog {
		if back[i] != prog[i] {
			t.Fatalf("instruction %d mismatch", i)
		}
	}
	if prog.Bits() != 3200 {
		t.Fatalf("Bits = %d", prog.Bits())
	}
}

func TestDecodeBinaryErrors(t *testing.T) {
	if _, err := DecodeBinary(make([]byte, 7)); err == nil {
		t.Error("accepted truncated binary")
	}
	bad := Instr{Op: 0xf & 0xf}.Encode()
	var buf [8]byte
	for i := 0; i < 8; i++ {
		buf[i] = byte(bad >> uint(56-8*i))
	}
	if _, err := DecodeBinary(buf[:]); err == nil {
		t.Error("accepted invalid opcode")
	}
}

func TestAssembleDisassembleRoundTrip(t *testing.T) {
	src := `
; PPR(pi/8) over Z4 Z5 with resource qubits 1 (ancilla) and 2 (magic)
LQI targets=1:zero,2:magic
MERGE_INFO paulis=2:Z,4:Z,5:Z
MERGE_INFO paulis=1:Y,2:Z
INIT_INTMD
RUN_ESM
MEAS_INTMD
SPLIT_INFO
PPM_INTERPRET mreg=1 flags=0x11 paulis=2:Z,4:Z,5:Z
LQM_X mreg=2 flags=0x01 targets=2:zero
LQM_FM mreg=3 flags=0x07 targets=1:zero
`
	prog, err := Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(prog) != 10 {
		t.Fatalf("assembled %d instructions", len(prog))
	}
	if prog[0].Op != LQI || prog[4].Op != RunESM {
		t.Fatal("opcodes misassembled")
	}
	text := Disassemble(prog)
	prog2, err := Assemble(text)
	if err != nil {
		t.Fatalf("reassembly failed: %v\n%s", err, text)
	}
	for i := range prog {
		if prog[i] != prog2[i] {
			t.Fatalf("instruction %d: %v != %v", i, prog[i], prog2[i])
		}
	}
}

func TestAssembleHighQubitWindow(t *testing.T) {
	prog, err := Assemble("LQM_Z targets=100:zero,101:zero")
	if err != nil {
		t.Fatal(err)
	}
	if prog[0].Offset != 6 { // 100/16
		t.Fatalf("offset = %d", prog[0].Offset)
	}
	if prog[0].BaseLQ() != 96 {
		t.Fatalf("base = %d", prog[0].BaseLQ())
	}
}

func TestAssembleErrors(t *testing.T) {
	cases := []string{
		"FOO",
		"LQI bogus",
		"LQI targets=1",
		"LQI targets=1:what",
		"MERGE_INFO paulis=1:Q",
		"MERGE_INFO paulis=xx:Z",
		"LQI off=999 targets=1:zero",
		"LQI targets=3:zero,40:zero", // crosses 16-qubit window
		"LQI off=1 targets=3:zero",   // outside explicit window
		"LQM_Z mreg=99999",
		"LQM_Z flags=0xfff",
		"LQI targets=9999999:zero",
	}
	for _, src := range cases {
		if _, err := Assemble(src); err == nil {
			t.Errorf("assembled invalid source %q", src)
		}
	}
}

func TestMaxLogicalQubits(t *testing.T) {
	if MaxLogicalQubits != 8192 {
		t.Fatalf("ISA must address 8192 logical qubits, got %d", MaxLogicalQubits)
	}
}

func TestPhysicalAddrBits(t *testing.T) {
	cases := map[int]int{2: 1, 4: 2, 1000: 10, 59000: 16, 1 << 20: 20}
	for n, want := range cases {
		if got := PhysicalAddrBits(n); got != want {
			t.Errorf("addr bits(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestLogicalISAAdvantageGrowsWithScale(t *testing.T) {
	// The Section-3.1 rationale: the physical-level instruction stream
	// grows superlinearly with scale while the QISA stays at one word.
	small := PhysicalESMStreamBits(1000, 15, 8)
	large := PhysicalESMStreamBits(59000, 15, 8)
	if large <= 59*small {
		t.Fatalf("physical stream must grow faster than linearly: %d -> %d", small, large)
	}
	if LogicalESMStreamBits() != 64 {
		t.Fatal("RUN_ESM is one 64-bit word")
	}
	ratio := float64(large) / float64(LogicalESMStreamBits())
	if ratio < 1e6 {
		t.Fatalf("logical ISA advantage at 59K qubits = %.0fx, expected millions", ratio)
	}
}

func TestDisassembleAssemblePropertyRandomPrograms(t *testing.T) {
	// Any program the encoder can produce must survive a textual round
	// trip. Target fields are drawn per opcode kind so the text form is
	// canonical.
	r := rand.New(rand.NewSource(41))
	for trial := 0; trial < 200; trial++ {
		prog := make(Program, 1+r.Intn(12))
		for i := range prog {
			in := Instr{
				Op:      Opcode(r.Intn(int(numOpcodes))),
				Flags:   MeasFlag(r.Intn(1 << 5)),
				MregDst: uint16(r.Intn(1 << 13)),
				Offset:  uint16(r.Intn(1 << 9)),
			}
			for k := 0; k < QubitsPerInstr; k++ {
				if r.Intn(3) == 0 {
					if in.Op.TargetKindOf() == TargetPauli {
						in.SetPauliAt(k, pauli.Pauli(r.Intn(4)))
					} else {
						in.SetMarkAt(k, LQMark(r.Intn(4)))
					}
				}
			}
			prog[i] = in
		}
		text := Disassemble(prog)
		back, err := Assemble(text)
		if err != nil {
			t.Fatalf("trial %d: reassembly failed: %v\n%s", trial, err, text)
		}
		for i := range prog {
			if back[i] != prog[i] {
				t.Fatalf("trial %d instr %d: %v != %v\n%s", trial, i, back[i], prog[i], text)
			}
		}
	}
}

// --- ISA-level scalability analysis (Section 3.1) ---
//
// The QISA is deliberately logical-qubit-level: a physical-qubit-level
// ISA must address each physical qubit individually and its instruction
// stream grows with the qubit count, which is exactly the addressing
// overhead the paper's Section 3.1 rejects. The two estimators below
// quantify that design rationale.

// PhysicalAddrBits returns the address width a physical-qubit-level ISA
// needs for nPhys qubits.
func PhysicalAddrBits(nPhys int) int {
	bits := 1
	for 1<<uint(bits) < nPhys {
		bits++
	}
	return bits
}

// PhysicalESMStreamBits models the instruction stream a physical-level
// ISA needs for `rounds` ESM rounds over nPhys qubits: every qubit
// receives opsPerRound addressed instructions (address + 8-bit opcode).
func PhysicalESMStreamBits(nPhys, rounds, opsPerRound int) int {
	return rounds * opsPerRound * nPhys * (PhysicalAddrBits(nPhys) + 8)
}

// LogicalESMStreamBits is the QISA's cost for the same operation: a
// single 64-bit RUN_ESM instruction regardless of scale (the hardware
// expands it; Section 3.2.4).
func LogicalESMStreamBits() int { return 64 }
