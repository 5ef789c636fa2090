// Package isa implements the logical-qubit-level quantum instruction set
// of the paper's Table 1: a 64-bit format with a 4-bit opcode, a 6-bit
// measurement flag, a 13-bit measurement register destination, a 9-bit
// logical-qubit address offset, and a 32-bit target field holding two bits
// per logical qubit.
//
// The two-bit target entries encode either a Pauli operator (Pauli_list,
// used by MERGE_INFO and PPM_INTERPRET) or a target/initialization marker
// (LQ_list, used by LQI and the LQM family). One instruction addresses 16
// consecutive logical qubits starting at 16*LQ_addr_offset, so the ISA
// scales to 8,192 logical qubits.
package isa

import (
	"encoding/binary"
	"fmt"

	"xqsim/internal/pauli"
)

// Opcode is the 4-bit instruction opcode.
type Opcode uint8

// Instruction opcodes (Table 1).
const (
	LQI          Opcode = iota // logical qubit initialization
	MergeInfo                  // patch information update for the Merge
	SplitInfo                  // patch information update for the Split
	InitIntmd                  // intermediate data qubit initialization
	MeasIntmd                  // intermediate data qubit measurement
	RunESM                     // d-round ESM execution
	PPMInterpret               // PPM result interpretation
	LQMX                       // logical qubit measurement, X basis
	LQMZ                       // logical qubit measurement, Z basis
	LQMFM                      // feedback measurement (basis from LMU)
	numOpcodes
)

var opcodeNames = [...]string{
	"LQI", "MERGE_INFO", "SPLIT_INFO", "INIT_INTMD", "MEAS_INTMD",
	"RUN_ESM", "PPM_INTERPRET", "LQM_X", "LQM_Z", "LQM_FM",
}

// String returns the mnemonic.
func (o Opcode) String() string {
	if int(o) < len(opcodeNames) {
		return opcodeNames[o]
	}
	return fmt.Sprintf("OP%d", int(o))
}

// ParseOpcode resolves a mnemonic.
func ParseOpcode(s string) (Opcode, bool) {
	for i, n := range opcodeNames {
		if n == s {
			return Opcode(i), true
		}
	}
	return 0, false
}

// Valid reports whether the opcode is defined.
func (o Opcode) Valid() bool { return o < numOpcodes }

// MeasFlag is the 6-bit measurement control field consumed by the logical
// measure unit's condition checker.
type MeasFlag uint8

// MeasFlag bits. The byproduct parity rule of a PPR's final measurement is
// assembled from these bits together with the stored intermediate results
// (see internal/ftqc for the machine-verified rules). Reinterpretation of
// measured products against the byproduct register is always applied and
// needs no flag.
const (
	// FlagCondStore pushes the final interpretation into the LMU's
	// condition slots (logical_meas_ram) for the current PPR.
	FlagCondStore MeasFlag = 1 << iota
	// FlagBPCheck marks the last logical measurement of a PPR: the
	// condition checker evaluates byproduct generation afterwards.
	FlagBPCheck
	// FlagAnglePi4 selects the pi/4 protocol rules (stabilizer resource)
	// instead of the default pi/8 rules.
	FlagAnglePi4
	// FlagDiscard releases the measured patch after the measurement.
	FlagDiscard
	// FlagInvert inverts the interpreted result: set on the PPM_INTERPRET
	// of direction-flipped rotations and on final readouts covered by a
	// compile-time-absorbed Pauli.
	FlagInvert
)

// TargetKind distinguishes the two decodings of the 32-bit target field.
type TargetKind int

// Target field interpretations.
const (
	TargetPauli TargetKind = iota // Pauli_list: 2 bits = I/X/Z/Y
	TargetLQ                      // LQ_list: 2 bits = none/zero/plus/magic
)

// LQMark is a two-bit LQ_list entry.
type LQMark uint8

// LQ_list markers.
const (
	MarkNone  LQMark = iota // qubit not targeted
	MarkZero                // target; initialize |0> (or plain target)
	MarkPlus                // target; initialize |+>
	MarkMagic               // target; initialize the resource state
)

// String names the marker.
func (m LQMark) String() string {
	switch m {
	case MarkNone:
		return "none"
	case MarkZero:
		return "zero"
	case MarkPlus:
		return "plus"
	case MarkMagic:
		return "magic"
	}
	return "none" // two-bit field: unreachable
}

// QubitsPerInstr is the number of logical qubits addressed by one
// instruction's target field.
const QubitsPerInstr = 16

// MaxLogicalQubits is the ISA's addressing limit: 2^9 offsets of 16 qubits.
const MaxLogicalQubits = 512 * QubitsPerInstr

// Instr is one decoded instruction.
type Instr struct {
	Op      Opcode
	Flags   MeasFlag
	MregDst uint16 // 13 bits
	Offset  uint16 // 9-bit LQ address offset (in units of 16 qubits)
	Target  uint32
}

// Field layout (bit positions within the 64-bit word).
const (
	opcodeShift = 60
	flagShift   = 54
	mregShift   = 41
	offsetShift = 32

	flagMask   = 0x3f
	mregMask   = 0x1fff
	offsetMask = 0x1ff
)

// Encode packs the instruction into its 64-bit binary form.
func (in Instr) Encode() uint64 {
	return uint64(in.Op&0xf)<<opcodeShift |
		uint64(in.Flags&flagMask)<<flagShift |
		uint64(in.MregDst&mregMask)<<mregShift |
		uint64(in.Offset&offsetMask)<<offsetShift |
		uint64(in.Target)
}

// Decode unpacks a 64-bit instruction word.
func Decode(w uint64) Instr {
	return Instr{
		Op:      Opcode(w >> opcodeShift & 0xf),
		Flags:   MeasFlag(w >> flagShift & flagMask),
		MregDst: uint16(w >> mregShift & mregMask),
		Offset:  uint16(w >> offsetShift & offsetMask),
		Target:  uint32(w),
	}
}

// TargetKindOf returns how the opcode interprets the target field.
func (o Opcode) TargetKindOf() TargetKind {
	switch o {
	case MergeInfo, PPMInterpret:
		return TargetPauli
	default:
		return TargetLQ
	}
}

// PauliAt extracts the Pauli operator for the k-th qubit of the target
// field (k in [0,16)).
func (in Instr) PauliAt(k int) pauli.Pauli {
	return pauli.Pauli(in.Target >> uint(2*k) & 3)
}

// MarkAt extracts the LQ_list marker for the k-th qubit.
func (in Instr) MarkAt(k int) LQMark {
	return LQMark(in.Target >> uint(2*k) & 3)
}

// SetPauliAt sets the Pauli entry for the k-th qubit.
func (in *Instr) SetPauliAt(k int, p pauli.Pauli) {
	in.Target = in.Target&^(3<<uint(2*k)) | uint32(p)<<uint(2*k)
}

// SetMarkAt sets the LQ_list entry for the k-th qubit.
func (in *Instr) SetMarkAt(k int, m LQMark) {
	in.Target = in.Target&^(3<<uint(2*k)) | uint32(m)<<uint(2*k)
}

// BaseLQ returns the first logical qubit addressed by the instruction.
func (in Instr) BaseLQ() int { return int(in.Offset) * QubitsPerInstr }

// PauliProduct expands the instruction's Pauli_list into a Product over
// nLQ logical qubits.
func (in Instr) PauliProduct(nLQ int) pauli.Product {
	pr := pauli.NewProduct(nLQ)
	base := in.BaseLQ()
	for k := 0; k < QubitsPerInstr; k++ {
		q := base + k
		if q >= nLQ {
			break
		}
		pr.Ops[q] = in.PauliAt(k)
	}
	return pr
}

// TargetLQs lists the (qubit, marker) pairs of an LQ_list instruction.
func (in Instr) TargetLQs() []struct {
	LQ   int
	Mark LQMark
} {
	var out []struct {
		LQ   int
		Mark LQMark
	}
	base := in.BaseLQ()
	for k := 0; k < QubitsPerInstr; k++ {
		if m := in.MarkAt(k); m != MarkNone {
			out = append(out, struct {
				LQ   int
				Mark LQMark
			}{base + k, m})
		}
	}
	return out
}

// Program is a sequence of instructions: a quantum binary.
type Program []Instr

// EncodeBinary serializes the program, 8 big-endian bytes per instruction.
func (p Program) EncodeBinary() []byte {
	out := make([]byte, 8*len(p))
	for i, in := range p {
		binary.BigEndian.PutUint64(out[8*i:], in.Encode())
	}
	return out
}

// DecodeBinary parses a serialized program.
func DecodeBinary(b []byte) (Program, error) {
	if len(b)%8 != 0 {
		return nil, fmt.Errorf("isa: binary length %d not a multiple of 8", len(b))
	}
	p := make(Program, len(b)/8)
	for i := range p {
		p[i] = Decode(binary.BigEndian.Uint64(b[8*i:]))
		if !p[i].Op.Valid() {
			return nil, fmt.Errorf("isa: invalid opcode %d at instruction %d", p[i].Op, i)
		}
	}
	return p, nil
}

// Bits returns the program size in bits (for instruction-bandwidth
// accounting).
func (p Program) Bits() int { return 64 * len(p) }
