package synth

import (
	"sync"

	"xqsim/internal/netlist"
)

// Canonical block constructors: the exact configurations validated
// against the paper's MITLL RTL simulation and AIST post-layout analysis.

// CanonicalMaskGenerator is the PSU mask generator (paper: 50,782 JJ).
func CanonicalMaskGenerator() *netlist.Netlist { return MaskGenerator(28, 8) }

// CanonicalNDRORAM is the PSU/TCU storage slice (paper: 3,003 JJ).
func CanonicalNDRORAM() *netlist.Netlist { return NDRORAM(4, 8) }

// CanonicalDemultiplexer is the PSU mask router (paper: 3,368 JJ).
func CanonicalDemultiplexer() *netlist.Netlist { return Demultiplexer(32, 1) }

// CanonicalEDUCellSpikeLogic (paper: 1,381 JJ).
func CanonicalEDUCellSpikeLogic() *netlist.Netlist { return EDUCellSpikeLogic() }

// CanonicalEDUCellDirLogic (paper: 1,915 JJ).
func CanonicalEDUCellDirLogic() *netlist.Netlist { return EDUCellDirLogic(4) }

// CanonicalPFUnit (paper: 2,376 JJ).
func CanonicalPFUnit() *netlist.Netlist { return PFUnit(20) }

// BlockStats caches a converted block's costs.
type BlockStats struct {
	Name      string
	JJ        int // RSFQ-family junction count
	CMOSGates int // logic+storage gates before SFQ conversion
	Depth     int // RSFQ pipeline depth
}

// StatsOf converts a netlist and summarizes it.
func StatsOf(nl *netlist.Netlist) BlockStats {
	jj, s := JJCount(nl)
	counts := nl.Counts()
	cmos := 0
	for k, c := range counts {
		switch netlist.Kind(k) {
		case netlist.SPLIT, netlist.BUF:
		default:
			cmos += c
		}
	}
	return BlockStats{Name: nl.Name, JJ: jj, CMOSGates: cmos, Depth: s.PipelineDepth}
}

// The converted costs of the eleven blocks the unit models instantiate,
// each computed on first use and then read with no lock: generation is
// pure, so every caller (the parallel sweep grids evaluate design points
// from several goroutines at once) sees the same value.
var (
	maskGeneratorStats = blockStats("mask_generator", CanonicalMaskGenerator)
	ndroRAMStats       = blockStats("ndro_ram", CanonicalNDRORAM)
	demuxStats         = blockStats("demux", CanonicalDemultiplexer)
	eduSpikeStats      = blockStats("edu_spike", CanonicalEDUCellSpikeLogic)
	eduDirStats        = blockStats("edu_dir", CanonicalEDUCellDirLogic)
	pfUnitStats        = blockStats("pf_unit", CanonicalPFUnit)
	psuLaneStats       = blockStats("psu_lane", func() *netlist.Netlist { return PSULane(26) })
	tcuSimpleStats     = blockStats("tcu_lane_simple", func() *netlist.Netlist { return TCULane(26, true) })
	tcuFIFOStats       = blockStats("tcu_lane_fifo", func() *netlist.Netlist { return TCULane(26, false) })
	eduStateStats      = blockStats("edu_state", EDUStateMachine)
	lmuSPUStats        = blockStats("lmu_spu", func() *netlist.Netlist { return SelectiveProductUnit(8) })
)

// blockStats returns a function that converts gen's netlist once and
// returns its stats under name.
func blockStats(name string, gen func() *netlist.Netlist) func() BlockStats {
	return sync.OnceValue(func() BlockStats {
		s := StatsOf(gen())
		s.Name = name
		return s
	})
}

// UnitStats aggregates a full hardware unit's size at a given scale.
// MemJJ counts junctions in bulk storage (shift-register memories), which
// toggle at the memory activity factor rather than the logic activity
// factor in the dynamic-power model.
type UnitStats struct {
	JJ        int
	MemJJ     int
	CMOSGates int
	Depth     int
}

func (u *UnitStats) add(b BlockStats, count int) {
	u.JJ += b.JJ * count
	u.CMOSGates += b.CMOSGates * count
	if b.Depth > u.Depth {
		u.Depth = b.Depth
	}
}

// addMem adds a block counted as bulk storage.
func (u *UnitStats) addMem(b BlockStats, count int) {
	u.add(b, count)
	u.MemJJ += b.JJ * count
}

// PSUOptions select the PSU microarchitecture variants.
type PSUOptions struct {
	// QubitsPerMaskGen is the sharing degree: 8 in the baseline design,
	// 8*14 = 112 with Optimization #2 (Fig. 18a).
	QubitsPerMaskGen int
}

// DefaultPSUOptions is the baseline (pre-Optimization-#2) PSU.
func DefaultPSUOptions() PSUOptions { return PSUOptions{QubitsPerMaskGen: 8} }

// OptimizedPSUOptions applies Optimization #2's 14x mask-generator
// sharing.
func OptimizedPSUOptions() PSUOptions { return PSUOptions{QubitsPerMaskGen: 8 * 14} }

// PSU sizes the physical schedule unit for nPhys physical qubits and
// nPatches patches: mask generators (shared per QubitsPerMaskGen qubits),
// the per-qubit codeword AND/storage lane, the per-generator
// demultiplexer, and the double-buffered patch-information shift register.
func PSU(nPhys, nPatches int, opt PSUOptions) UnitStats {
	var u UnitStats
	gens := (nPhys + opt.QubitsPerMaskGen - 1) / opt.QubitsPerMaskGen
	if gens < 1 {
		gens = 1
	}
	u.add(maskGeneratorStats(), gens)
	u.add(demuxStats(), gens)
	u.add(psuLaneStats(), nPhys)
	// pchinfo srmem: double-buffered 64-bit entry per patch (8 canonical
	// 4x8 NDRO slices).
	u.addMem(ndroRAMStats(), nPatches*2)
	return u
}

// TCUOptions select the TCU buffer design.
type TCUOptions struct {
	// SimpleBuffer replaces the two-entry FIFOs (with their multiplexer
	// and demultiplexer overhead) by a single NDRO buffer entry clocked
	// by the timing-match signal (Optimization #3, Fig. 18b).
	SimpleBuffer bool
}

// TCU sizes the time control unit for nPhys physical qubits.
func TCU(nPhys int, opt TCUOptions) UnitStats {
	var u UnitStats
	if opt.SimpleBuffer {
		u.add(tcuSimpleStats(), nPhys)
	} else {
		u.add(tcuFIFOStats(), nPhys)
	}
	// Global timing buffer and counter.
	u.addMem(ndroRAMStats(), 8)
	return u
}

// EDUOptions select the decoder microarchitecture.
type EDUOptions struct {
	// PatchSliding uses the constant-size sliding cell window of
	// Optimization #4 instead of per-ancilla cells.
	PatchSliding bool
	// D is the code distance (sets per-cell syndrome storage and the
	// sliding window size).
	D int
}

// eduCell is one per-ancilla decode cell: spike logic, direction logic,
// state machine, and d rounds of syndrome storage.
func eduCell(d int) UnitStats {
	var u UnitStats
	u.add(eduSpikeStats(), 1)
	u.add(eduDirStats(), 1)
	u.add(eduStateStats(), 1)
	// ESM_srmem slice: d syndrome bits plus the lattice-surgery
	// pchinfo_buffer (one canonical 4x8 slice covers 32 bits).
	slices := (d+31)/32 + 2
	u.addMem(ndroRAMStats(), slices)
	return u
}

// EDU sizes the error decode unit for nAnc ancilla qubits over nPatches
// patches. The baseline instantiates one cell per ancilla; patch-sliding
// keeps cells for a 6-patch window plus a global syndrome shift register
// (whose storage still scales with the qubit count) and the window
// multiplexers.
func EDU(nAnc, nPatches int, opt EDUOptions) UnitStats {
	var u UnitStats
	d := opt.D
	if d <= 0 {
		d = 15
	}
	cellsPerPatch := (nAnc + max(nPatches, 1) - 1) / max(nPatches, 1)
	if opt.PatchSliding {
		window := eduCell(d)
		u.add(statsScale(window, 6*cellsPerPatch), 1)
		u.MemJJ += window.MemJJ * 6 * cellsPerPatch
		// Global ESM_srmem: d bits per ancilla.
		slices := (nAnc*d + 31) / 32
		u.addMem(ndroRAMStats(), slices)
		// Window multiplexers/demultiplexers per patch column.
		u.add(demuxStats(), max(nPatches/3, 1))
	} else {
		cell := eduCell(d)
		u.add(statsScale(cell, nAnc), 1)
		u.MemJJ += cell.MemJJ * nAnc
	}
	return u
}

// PFU sizes the Pauli frame unit: one pf_unit lane per data qubit.
func PFU(nData int) UnitStats {
	var u UnitStats
	u.add(pfUnitStats(), nData)
	return u
}

// LMU sizes the logical measure unit: selective product units per patch,
// the measurement RAMs, byproduct register, and condition checker.
func LMU(nPatches int) UnitStats {
	var u UnitStats
	u.add(lmuSPUStats(), max(nPatches/4, 1))
	u.addMem(ndroRAMStats(), 4+nPatches/8)
	return u
}

// PIU sizes the patch information unit: static and dynamic info RAMs plus
// the decoder logic.
func PIU(nPatches int) UnitStats {
	var u UnitStats
	u.addMem(ndroRAMStats(), 2*max(nPatches/4, 1))
	u.add(eduDirStats(), 2) // pchdyn_decoder comparators
	return u
}

// PDU sizes the patch decode unit (maptable plus decoder).
func PDU(nLQ int) UnitStats {
	var u UnitStats
	u.addMem(ndroRAMStats(), max(nLQ/8, 1))
	return u
}

// QID sizes the instruction decoder (small fixed logic).
func QID() UnitStats {
	var u UnitStats
	u.add(eduStateStats(), 4)
	return u
}

func statsScale(u UnitStats, n int) BlockStats {
	return BlockStats{JJ: u.JJ * n, CMOSGates: u.CMOSGates * n, Depth: u.Depth}
}
