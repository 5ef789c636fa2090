package microarch

import (
	"context"
	"fmt"

	"xqsim/internal/config"
	"xqsim/internal/decoder"
	"xqsim/internal/faults"
	"xqsim/internal/ftqc"
	"xqsim/internal/isa"
	"xqsim/internal/pauli"
	"xqsim/internal/surface"
)

// Unit identifies one hardware unit of the control processor (plus the QC
// interface as the traffic endpoint).
type Unit int

// Hardware units (Fig. 6).
const (
	UnitQID Unit = iota
	UnitPDU
	UnitPIU
	UnitPSU
	UnitTCU
	UnitEDU
	UnitPFU
	UnitLMU
	UnitQCI // the quantum-classical interface endpoint (always at 4 K)
	NumUnits
)

var unitNames = [...]string{"QID", "PDU", "PIU", "PSU", "TCU", "EDU", "PFU", "LMU", "QCI"}

// String names the unit.
func (u Unit) String() string {
	if int(u) < len(unitNames) {
		return unitNames[u]
	}
	return fmt.Sprintf("U%d", int(u))
}

// UnitStats accumulates one unit's activity.
type UnitStats struct {
	Ops          uint64 // transactions processed
	ActiveCycles uint64 // cycles spent busy
}

// Metrics is the cycle-accurate accounting a pipeline run produces. All
// byte/time conversions into the four scalability metrics happen in the
// engine (internal/core), which owns frequencies and temperature maps.
type Metrics struct {
	Unit [NumUnits]UnitStats
	// TransferBits[src][dst] counts inter-unit payload bits.
	TransferBits [NumUnits][NumUnits]uint64

	Instructions int
	ESMRounds    int
	ESMTimeNs    float64 // virtual time spent inside ESM rounds
	VirtualNs    float64 // total virtual time (quantum-operation limited)

	DecodeWindows   int
	DecodeCyclesSum uint64
	DecodeCyclesMax uint64
	SyndromesSum    int
	MatchesSum      int
	MatchStepsSum   int
	// MaxActivePhys is the largest ESM-active physical-qubit count seen
	// (peak instruction-bandwidth accounting).
	MaxActivePhys int

	// Faults is the fault-injection accounting (stall cycles, dropped
	// rounds, retransmits, ...); all-zero unless Config.Faults enables
	// injection.
	Faults faults.Totals

	// MregFile is the measurement register file after the run (a dense
	// bitset register file, so Metrics is a plain value that zeroes on
	// reset without reallocating).
	MregFile MregFile
}

// transfer records src->dst payload bits.
func (m *Metrics) transfer(src, dst Unit, bits uint64) {
	m.TransferBits[src][dst] += bits
}

// UnitTrafficBits returns the total bits sourced by a unit (the paper's
// Fig. 16(a) attribution).
func (m *Metrics) UnitTrafficBits(u Unit) uint64 {
	var total uint64
	for dst := Unit(0); dst < NumUnits; dst++ {
		total += m.TransferBits[u][dst]
	}
	return total
}

// Config holds a run's inputs. The Table-4 constants every run shares
// (gate latencies, ESM steps per round, codeword width, PSU mask
// generators) are read from internal/config.
type Config struct {
	D          int
	PhysError  float64
	Seed       int64
	Functional bool // enable the stabilizer tableau (logical outcomes)

	// Scheme is the EDU's token-setup scheme, whose entry of
	// decoder.WindowPrices each decode window is charged.
	Scheme decoder.Scheme

	// Faults configures deterministic fault injection (decoder stalls,
	// syndrome-buffer overflow, cross-temperature link corruption); the
	// zero value injects nothing. The injector's schedule derives from
	// Seed, so a (Seed, Faults) pair reproduces a run bit-for-bit.
	Faults faults.Config
}

// SchemePrices is one token-setup scheme's raw decode-window prices
// (decoder.WindowPrices, before any fault stretch) over a run: their sum
// and the largest.
type SchemePrices struct {
	Sum, Max uint64
}

// Pipeline executes QISA programs on the full microarchitecture.
type Pipeline struct {
	Cfg Config
	B   *Backend
	M   Metrics

	// Prices holds every scheme's window prices over the run, indexed by
	// decoder.Scheme. The scheme changes what a window costs, never which
	// syndromes arrive, so a run without fault injection priced under
	// Cfg.Scheme reads every other scheme's decode cycles off these. They
	// sit beside M so that Metrics keeps its layout.
	Prices [decoder.NumSchemes]SchemePrices

	// LMU architectural state.
	byproduct    pauli.Product // byproduct register (phase-free)
	condSlots    []bool        // per-PPR condition slots (a, b, c, ...)
	pauliListReg pauli.Product // Pauli_list_reg: the PPR's product

	// Merge-window PPM outcomes (after PFU correction) awaiting
	// PPM_INTERPRET, consumed FIFO via mergeHead so the backing array
	// survives shot-to-shot reuse.
	mergeResults []bool
	mergeHead    int

	// lqmScratch is the reusable single-op product of logical
	// measurements (execLQM builds one per target; reusing it keeps the
	// steady-state shot loop allocation-free).
	lqmScratch pauli.Product

	// Optional per-instruction trace (EnableTrace).
	traceOn bool //xqlint:persistent trace enablement is a config toggle, deliberately survives Reset
	trace   []TraceEvent

	// inj is the fault-injection scheduler (nil when Cfg.Faults injects
	// nothing; all its methods are nil-safe).
	inj *faults.Injector
}

// NewPipeline builds a pipeline over a fresh layout and backend.
func NewPipeline(layout *surface.PPRLayout, cfg Config) *Pipeline {
	return &Pipeline{
		Cfg:          cfg,
		B:            NewBackend(layout, cfg.PhysError, cfg.Seed, cfg.Functional),
		byproduct:    pauli.NewProduct(layout.NLQ + 2),
		pauliListReg: pauli.NewProduct(layout.NLQ + 2),
		lqmScratch:   pauli.NewProduct(layout.NLQ + 2),
		inj:          faults.NewInjector(cfg.Faults, cfg.Seed),
	}
}

// Reset rewinds the pipeline to the state NewPipeline would hand back for
// a config whose Seed is seed, reusing every allocation: metrics zeroed,
// architectural registers cleared, the backend's layout/frames/streams
// re-homed, and the fault injector reseeded. This is the shot-reuse
// determinism contract — Reset(s) followed by Run or RunCompiled
// reproduces a fresh pipeline's run for seed s bit-for-bit (pinned by
// TestPipelineResetMatchesFresh).
func (p *Pipeline) Reset(seed int64) {
	p.Cfg.Seed = seed
	p.M = Metrics{}
	p.Prices = [decoder.NumSchemes]SchemePrices{}
	for q := range p.byproduct.Ops {
		p.byproduct.Ops[q] = pauli.I
		p.pauliListReg.Ops[q] = pauli.I
		p.lqmScratch.Ops[q] = pauli.I
	}
	p.byproduct.Phase = 0
	p.pauliListReg.Phase = 0
	p.lqmScratch.Phase = 0
	p.condSlots = p.condSlots[:0]
	p.mergeResults = p.mergeResults[:0]
	p.mergeHead = 0
	p.trace = p.trace[:0]
	p.inj.Reset(seed)
	p.B.Reset(seed)
}

// psuSteps accounts k physical schedule steps over nPhys qubits: per
// step, the PSU iterates its mask generators and the TCU streams the
// codeword array to the QC interface. The counters are integer sums, so
// k steps at once account exactly what k single steps would.
func (p *Pipeline) psuSteps(nPhys, k int) {
	if nPhys == 0 || k <= 0 {
		return
	}
	const gens = config.DefaultMaskGenerators
	steps := uint64(k)
	cycles := steps * uint64((nPhys+gens-1)/gens)
	p.M.Unit[UnitPSU].Ops += steps
	p.M.Unit[UnitPSU].ActiveCycles += cycles
	p.M.Unit[UnitTCU].Ops += steps
	p.M.Unit[UnitTCU].ActiveCycles += cycles
	bits := uint64(nPhys * config.CodewordBits)
	p.M.transfer(UnitPSU, UnitTCU, steps*bits)
	p.M.transfer(UnitTCU, UnitQCI, steps*(bits+32)) // plus the cycle_time word
}

// Run compiles prog for the pipeline's machine shape and executes it with
// RunCompiled. CompileProgram replays the layout from its initial state,
// so the pipeline must be fresh or Reset; program errors are reported
// before any unit runs.
func (p *Pipeline) Run(prog isa.Program) error {
	cp, err := CompileProgram(prog, p.B.Layout.NLQ, p.Cfg.D)
	if err != nil {
		return err
	}
	return p.RunCompiled(context.Background(), cp)
}

// angleOf decodes the protocol angle from the measurement flags.
func angleOf(f isa.MeasFlag) ftqc.Angle {
	if f&isa.FlagAnglePi4 != 0 {
		return ftqc.AnglePi4
	}
	return ftqc.AnglePi8
}
