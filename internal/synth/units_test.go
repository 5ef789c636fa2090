package synth

import (
	"testing"

	"xqsim/internal/netlist"
)

// TestBlockStatsPinned pins the converted cost of every block the unit
// models instantiate, and checks that each once-computed value equals a
// fresh conversion of its generator. A change to a generator, to the
// RSFQ conversion or to JJPerGate moves every estimate built on it, so
// it shows here first.
func TestBlockStatsPinned(t *testing.T) {
	for _, c := range []struct {
		stats            func() BlockStats
		gen              func() *netlist.Netlist
		name             string
		jj, gates, depth int
	}{
		{maskGeneratorStats, CanonicalMaskGenerator, "mask_generator", 51812, 2968, 11},
		{ndroRAMStats, CanonicalNDRORAM, "ndro_ram", 2967, 76, 5},
		{demuxStats, CanonicalDemultiplexer, "demux", 3151, 67, 6},
		{eduSpikeStats, CanonicalEDUCellSpikeLogic, "edu_spike", 1253, 43, 7},
		{eduDirStats, CanonicalEDUCellDirLogic, "edu_dir", 2272, 70, 12},
		{pfUnitStats, CanonicalPFUnit, "pf_unit", 2496, 102, 11},
		{psuLaneStats, func() *netlist.Netlist { return PSULane(26) }, "psu_lane", 827, 39, 2},
		{tcuSimpleStats, func() *netlist.Netlist { return TCULane(26, true) }, "tcu_lane_simple", 674, 52, 2},
		{tcuFIFOStats, func() *netlist.Netlist { return TCULane(26, false) }, "tcu_lane_fifo", 3653, 109, 5},
		{eduStateStats, EDUStateMachine, "edu_state", 382, 13, 5},
		{lmuSPUStats, func() *netlist.Netlist { return SelectiveProductUnit(8) }, "lmu_spu", 476, 24, 6},
	} {
		got := c.stats()
		want := BlockStats{Name: c.name, JJ: c.jj, CMOSGates: c.gates, Depth: c.depth}
		if got != want {
			t.Errorf("%s = %+v, want %+v", c.name, got, want)
		}
		fresh := StatsOf(c.gen())
		fresh.Name = c.name
		if fresh != got {
			t.Errorf("%s: fresh conversion %+v, once-computed %+v", c.name, fresh, got)
		}
	}
}
