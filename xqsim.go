// Package xqsim is a Go implementation of XQsim, the cross-technology
// quantum control processor simulator of Byun et al., "XQsim: Modeling
// Cross-Technology Control Processors for 10+K Qubit Quantum Computers"
// (ISCA 2022).
//
// The library contains the complete stack the paper describes:
//
//   - a fault-tolerant control-processor microarchitecture (QID, PDU,
//     PIU, PSU, TCU, EDU, PFU, LMU) executing a 64-bit logical-qubit-level
//     QISA over a rotated-surface-code lattice with patch-based lattice
//     surgery;
//   - XQ-estimator: frequency/power/area models for 300 K CMOS, 4 K CMOS,
//     RSFQ and ERSFQ implementations of every unit, built on gate-level
//     netlist synthesis and cryogenic device models;
//   - XQ-simulator: cycle-accurate execution with a noisy stabilizer
//     quantum backend, reporting the four scalability metrics
//     (instruction bandwidth, error-decoding latency, 300K-4K data
//     transfer, 4 K device power) and the sustainable qubit scale.
//
// Quick start:
//
//	rates := xqsim.MeasureRates(15, 0.001, xqsim.SchemePriority, 1)
//	sys := xqsim.FutureSystem(15, true, true)
//	fmt.Println(sys.MaxQubits(rates)) // ~59,000 qubits
//
// The examples/ directory contains runnable walkthroughs and cmd/
// provides the xqsim, xqasm, xqestimate and xqsweep binaries. Every
// figure and table of the paper's evaluation is regenerated by the
// drivers re-exported below (see EXPERIMENTS.md for measured-vs-paper
// outcomes).
package xqsim

import (
	"xqsim/internal/compiler"
	"xqsim/internal/core"
	"xqsim/internal/decoder"
	"xqsim/internal/estimator"
	"xqsim/internal/faults"
	"xqsim/internal/ftqc"
	"xqsim/internal/isa"
	"xqsim/internal/microarch"
	"xqsim/internal/surface"
	"xqsim/internal/sweep"
	"xqsim/internal/synth"
	"xqsim/internal/tech"
)

// Core engine types.
type (
	// System is one control-processor design point (per-unit technology,
	// microarchitecture options, decoder scheme).
	System = core.System
	// Report carries the four scalability metrics at one qubit scale.
	Report = core.Report
	// Rates are microscopic steady-state rates measured from the
	// cycle-accurate pipeline, used to evaluate arbitrary scales.
	Rates = core.Rates
)

// System constructors (the paper's Fig. 13 design points).
var (
	CurrentSystem    = core.CurrentSystem
	NearFutureRSFQ   = core.NearFutureRSFQ
	NearFutureCMOS4K = core.NearFutureCMOS4K
	FutureSystem     = core.FutureSystem
)

// Engine entry points.
var (
	MeasureRates = core.MeasureRates
	// MeasureRatesUncached bypasses MeasureRates' memoization (e.g. when
	// profiling the pipeline itself).
	MeasureRatesUncached = core.MeasureRatesUncached
	RunShots             = core.RunShots
	// RunShotsOpt is RunShots with fault injection and a per-shot
	// watchdog timeout (RunOptions).
	RunShotsOpt     = core.RunShotsOpt
	ValidateCircuit = core.ValidateCircuit
	PipelineConfig  = core.PipelineConfig
	// ShotSeed derives the per-shot seed RunShots uses, so a failing shot
	// can be replayed in isolation.
	ShotSeed = core.ShotSeed
)

// RunOptions tunes RunShotsOpt (fault injection, per-shot watchdog).
type RunOptions = core.RunOptions

// Fault injection (internal/faults): a deterministic, seed-driven
// schedule of control-processor faults — decoder stalls, syndrome-buffer
// overflow, cross-temperature link corruption — threaded through the
// pipeline so degradation curves can be measured end-to-end.
type (
	// FaultConfig describes the injected fault environment; the zero
	// value injects nothing.
	FaultConfig = faults.Config
	// FaultTotals is the accumulated fault accounting of a run.
	FaultTotals = faults.Totals
	// FaultPolicy selects the syndrome-buffer overflow behaviour.
	FaultPolicy = faults.Policy
)

// Syndrome-buffer overflow policies.
const (
	FaultDropOldest   = faults.PolicyDropOldest
	FaultBackpressure = faults.PolicyBackpressure
)

// ParseFaultPolicy resolves "drop-oldest" or "backpressure".
var ParseFaultPolicy = faults.ParsePolicy

// Decoder token-setup schemes.
type Scheme = decoder.Scheme

// Scheme values.
const (
	SchemeRoundRobin   = decoder.SchemeRoundRobin
	SchemePriority     = decoder.SchemePriority
	SchemePatchSliding = decoder.SchemePatchSliding
)

// Workload construction.
type (
	// Circuit is a logical program in Pauli-product-rotation form.
	Circuit = compiler.Circuit
	// Builder accumulates Clifford+T gates as rotations.
	Builder = compiler.Builder
	// Rotation is one PPR.
	Rotation = ftqc.Rotation
	// Angle selects pi/8, pi/4, or pi/2 rotations.
	Angle = ftqc.Angle
)

// Rotation angles.
const (
	AnglePi8 = ftqc.AnglePi8
	AnglePi4 = ftqc.AnglePi4
	AnglePi2 = ftqc.AnglePi2
)

// Workload generators.
var (
	NewBuilder            = compiler.NewBuilder
	RandomPPR             = compiler.RandomPPR
	SinglePPR             = compiler.SinglePPR
	QFT2                  = compiler.QFT2
	QAOA                  = compiler.QAOA
	MSD15To1              = compiler.MSD15To1
	MSD15To1SelfCheck     = compiler.MSD15To1SelfCheck
	Compile               = compiler.Compile
	ReferenceDistribution = compiler.ReferenceDistribution
)

// QISA tooling.
type (
	// Instr is one decoded 64-bit instruction.
	Instr = isa.Instr
	// Program is a quantum binary.
	Program = isa.Program
)

// Assembler entry points.
var (
	Assemble     = isa.Assemble
	Disassemble  = isa.Disassemble
	DecodeBinary = isa.DecodeBinary
)

// Estimator access.
type (
	// Estimate is one unit's frequency/power/area estimate.
	Estimate = estimator.Estimate
	// TechKind is a temperature/device candidate.
	TechKind = tech.Kind
	// Unit identifies a hardware unit.
	Unit = microarch.Unit
)

// Technology candidates.
const (
	CMOS300K = tech.CMOS300K
	CMOS4K   = tech.CMOS4K
	RSFQ     = tech.RSFQ
	ERSFQ    = tech.ERSFQ
)

// Hardware units.
const (
	UnitQID = microarch.UnitQID
	UnitPDU = microarch.UnitPDU
	UnitPIU = microarch.UnitPIU
	UnitPSU = microarch.UnitPSU
	UnitTCU = microarch.UnitTCU
	UnitEDU = microarch.UnitEDU
	UnitPFU = microarch.UnitPFU
	UnitLMU = microarch.UnitLMU
)

// EstimatorOptions select the microarchitectural variants under
// estimation.
type EstimatorOptions = estimator.Options

// Estimator entry points.
var (
	EstimateUnit            = estimator.EstimateUnit
	EstimateAll             = estimator.EstimateAll
	ScaleFor                = estimator.ScaleFor
	ValidateMITLL           = estimator.ValidateMITLL
	ValidateAIST            = estimator.ValidateAIST
	DefaultEstimatorOptions = estimator.DefaultOptions
	OptimizedPSUOptions     = synth.OptimizedPSUOptions
)

// Experiment drivers: one per paper table/figure (see EXPERIMENTS.md).
type ExperimentResult = sweep.Result

// Experiment reproduction entry points.
var (
	Fig5         = sweep.Fig5
	Fig10        = sweep.Fig10
	Fig12        = sweep.Fig12
	Fig14        = sweep.Fig14
	Fig16        = sweep.Fig16
	Fig17        = sweep.Fig17
	Fig18        = sweep.Fig18
	Fig19        = sweep.Fig19
	Table3       = sweep.Table3
	Table3Result = sweep.Table3Result
	Table4       = sweep.Table4
	Sensitivity  = sweep.Sensitivity

	// Report rendering.
	MarkdownReport    = sweep.Markdown
	WorstDeviationPct = sweep.WorstDeviationPct

	// ThresholdStudy measures the memory's logical error rate across
	// distances and physical error rates (decoder validation).
	ThresholdStudy = sweep.ThresholdStudy

	// CircuitThresholdStudy is the circuit-level counterpart: each cell
	// compiles the gate-level memory experiment and samples it through
	// the bit-sliced batch frame sampler, 64 shots per word.
	CircuitThresholdStudy = sweep.CircuitThresholdStudy

	// DegradationStudy measures the logical error rate versus the
	// injected decoder-stall probability (graceful degradation).
	DegradationStudy = sweep.DegradationStudy

	// DecoderTournament races the registered EDU decode backends
	// through the streaming memory experiment on accuracy, modeled
	// ns/round, max sustainable distance, and backlog degradation
	// (xqsweep -tournament [-decoder=<name>]).
	DecoderTournament = sweep.DecoderTournament

	// StreamLogicalErrorRate measures one memory configuration with the
	// syndrome stream replayed in real time through a windowed decode
	// backend (see DecoderBackendNames for the registry).
	StreamLogicalErrorRate = core.StreamLogicalErrorRate
	// DecoderBackendNames lists the pluggable decode backends;
	// NewDecoderBackend constructs one by name.
	DecoderBackendNames = decoder.BackendNames
	NewDecoderBackend   = decoder.NewBackendByName
)

// StreamMemoryConfig configures StreamLogicalErrorRate.
type StreamMemoryConfig = core.StreamMemoryConfig

// DecoderBackend is one pluggable EDU decode implementation.
type DecoderBackend = decoder.Backend

// SweepCheckpoint is a resumable snapshot of a multi-experiment sweep
// (xqsweep -checkpoint/-resume).
type SweepCheckpoint = sweep.Checkpoint

// Checkpoint entry points: a resumable run opens its snapshot with
// ResumeSweepCheckpoint, then runs each step through the snapshot's
// Experiment or Cell method, which returns a checkpointed result or
// runs the work, Puts it and Saves the snapshot.
var (
	NewSweepCheckpoint    = sweep.NewCheckpoint
	ResumeSweepCheckpoint = sweep.Resume
)

// Sharded sweep grids (xqsweep -grid/-shard/-merge/-worker): a
// GridSpec enumerates deterministic cells whose per-cell seeds are
// mixed from the base seed, so any partition of the grid across
// processes merges to bytes identical to a single-process run.
type (
	// GridSpec describes a (distance × error-rate) grid of cells.
	GridSpec = sweep.GridSpec
	// GridCell is one resolved cell of a grid.
	GridCell = sweep.Cell
	// GridCellResult is one completed cell (pinned JSONL schema).
	GridCellResult = sweep.CellResult
	// GridCellTiming is one cell's per-phase wall-clock split.
	GridCellTiming = sweep.CellTiming
)

// Grid entry points.
var (
	GridKinds         = sweep.GridKinds
	ParseShard        = sweep.ParseShard
	RunGridCell       = sweep.RunGridCell
	WriteGridJSONL    = sweep.WriteGridJSONL
	ReadGridJSONL     = sweep.ReadGridJSONL
	MergeGridCells    = sweep.MergeGridCells
	MergeGridFiles    = sweep.MergeGridFiles
	WriteGridCSV      = sweep.WriteGridCSV
	NewGridCheckpoint = sweep.NewGridCheckpoint
	MarshalGridCell   = sweep.MarshalCell
	UnmarshalGridCell = sweep.UnmarshalCell
)

// ExperimentOptions parameterizes RunExperiment (shots, seed, decoder
// restriction for the tournament).
type ExperimentOptions = sweep.ExperimentOptions

// Experiment registry: name-driven dispatch shared by xqsweep and the
// xqd job daemon, plus the pinned JSONL wire format for results.
var (
	RunExperiment         = sweep.RunExperiment
	CanonicalExperimentID = sweep.CanonicalExperimentID
	ExperimentIDs         = sweep.ExperimentIDs
	WriteExperimentsJSONL = sweep.WriteJSONL
	ExperimentJSONValue   = sweep.JSONValue
)

// Budget holds the analysis environment (Table 4 by default); override it
// on a System to explore future refrigerators or interconnects (paper
// Section 6.2).
type Budget = core.Budget

// DefaultBudget returns the Table 4 environment.
var DefaultBudget = core.DefaultBudget

// Surface-code substrate (for advanced users building custom layouts).
type (
	// Lattice is the patch grid the control processor manages.
	Lattice = surface.Lattice
	// PPRLayout is the standard rotation-workload layout.
	PPRLayout = surface.PPRLayout
)

// NewPPRLayout builds the standard layout for n logical qubits at code
// distance d.
var NewPPRLayout = surface.NewPPRLayout

// Pipeline is the cycle-accurate microarchitecture executor (advanced
// use; most callers want RunShots).
type Pipeline = microarch.Pipeline

// NewTracedPipeline builds a functional-mode pipeline with
// per-instruction tracing enabled, for debugging workloads.
func NewTracedPipeline(nLQ, d int, physError float64, seed int64) *Pipeline {
	pl := microarch.NewPipeline(surface.NewPPRLayout(nLQ, d),
		core.PipelineConfig(d, physError, decoder.SchemePriority, true, seed))
	pl.EnableTrace()
	return pl
}
