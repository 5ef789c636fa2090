// Package core implements XQ-simulator's scalability engine (the paper's
// Fig. 7, right half): it combines the cycle-accurate microarchitecture
// simulation with the XQ-estimator's frequency/power/area outputs and the
// refrigeration model, and reports the four scalability metrics —
// instruction bandwidth, error decoding latency, 300K-4K data transfer,
// and 4 K device power — together with the sustainable qubit scale.
//
// The engine first *measures* microscopic steady-state rates (codeword
// bits per qubit per round, syndrome density, match distances) by running
// the full pipeline on a workload at a reference scale, then evaluates
// the macroscopic metrics at arbitrary qubit counts from those measured
// rates and the estimator's scale-dependent unit models.
package core

import (
	"fmt"
	"math"

	"xqsim/internal/compiler"
	"xqsim/internal/config"
	"xqsim/internal/decoder"
	"xqsim/internal/estimator"
	"xqsim/internal/microarch"
	"xqsim/internal/surface"
	"xqsim/internal/synth"
	"xqsim/internal/tech"
)

// Temperature stage of a unit.
type Temperature int

// Stages.
const (
	T300K Temperature = iota
	T4K
)

// Budget holds the environment parameters of the analysis (Table 4 by
// default). Section 6.2 of the paper points out that future refrigerators
// and interconnects shift these; overriding them here explores such
// systems without touching the models.
type Budget struct {
	Power4KW       float64
	Area4KCm2      float64
	CableGbps      float64
	CableHeatW     float64
	DecodeBudgetNs float64
	PhysErrorRate  float64
}

// DefaultBudget returns the paper's Table 4 environment.
func DefaultBudget() Budget {
	return Budget{
		Power4KW:       config.Power4KBudgetW,
		Area4KCm2:      config.Area4KBudgetCm2,
		CableGbps:      config.CableGbps,
		CableHeatW:     config.CableHeatW,
		DecodeBudgetNs: config.DecodeBudgetNs(),
		PhysErrorRate:  config.PhysErrorRate,
	}
}

// MaxCrossGbps is the aggregate 300K-4K bandwidth the heat budget admits.
func (b Budget) MaxCrossGbps() float64 {
	return math.Floor(b.Power4KW/b.CableHeatW) * b.CableGbps
}

// System describes one control-processor design point: per-unit
// technology/temperature assignment, microarchitecture options, and the
// EDU token-setup scheme.
type System struct {
	Name string
	// Tech is each unit's technology, indexed by microarch.Unit; the zero
	// value, tech.CMOS300K, is the 300 K CMOS default.
	Tech   [microarch.NumUnits]tech.Kind
	Scheme decoder.Scheme
	Opts   estimator.Options
	D      int
	// Budget defaults to Table 4 when zero (see DefaultBudget).
	Budget Budget
}

// budget resolves the effective environment.
func (s *System) budget() Budget {
	if s.Budget == (Budget{}) {
		return DefaultBudget()
	}
	return s.Budget
}

// TempOf returns a unit's stage (implied by its technology).
func (s *System) TempOf(u microarch.Unit) Temperature {
	if u == microarch.UnitQCI || s.Tech[u].Cryogenic() {
		return T4K
	}
	return T300K
}

// freqOf returns the unit's clock frequency per Table 4.
func (s *System) freqOf(u microarch.Unit) float64 {
	switch s.Tech[u] {
	case tech.RSFQ:
		return config.FreqRSFQGHz
	case tech.ERSFQ:
		return config.FreqERSFQGHz
	case tech.CMOS4K:
		return config.Freq4KCMOSGHz
	default:
		return config.Freq300KCMOSGHz
	}
}

// CurrentSystem is the paper's Fig. 13(a): every unit in 300 K CMOS.
// eduAccelerated applies Optimization #1 (the priority-encoder token
// setup).
func CurrentSystem(d int, eduAccelerated bool) *System {
	scheme := decoder.SchemeRoundRobin
	if eduAccelerated {
		scheme = decoder.SchemePriority
	}
	return &System{
		Name:   "current-300K-CMOS",
		Scheme: scheme,
		Opts:   estimator.DefaultOptions(d),
		D:      d,
	}
}

// NearFutureRSFQ is Fig. 13(b) with RSFQ: PSU and TCU at 4 K (Guideline
// #1), the rest at 300 K; optimized applies Optimizations #2 and #3.
func NearFutureRSFQ(d int, optimized bool) *System {
	s := &System{
		Name: "near-future-RSFQ",
		Tech: [microarch.NumUnits]tech.Kind{
			microarch.UnitPSU: tech.RSFQ,
			microarch.UnitTCU: tech.RSFQ,
		},
		Scheme: decoder.SchemePriority,
		Opts:   estimator.DefaultOptions(d),
		D:      d,
	}
	if optimized {
		s.Name += "-opt"
		s.Opts.PSU = synth.OptimizedPSUOptions()
		s.Opts.TCU = synth.TCUOptions{SimpleBuffer: true}
	}
	return s
}

// NearFutureCMOS4K is Fig. 13(b) with cryogenic CMOS; voltageScaled
// applies the power-oriented voltage scaling of Section 5.4.4.
func NearFutureCMOS4K(d int, voltageScaled bool) *System {
	s := &System{
		Name: "near-future-4K-CMOS",
		Tech: [microarch.NumUnits]tech.Kind{
			microarch.UnitPSU: tech.CMOS4K,
			microarch.UnitTCU: tech.CMOS4K,
		},
		Scheme: decoder.SchemePriority,
		Opts:   estimator.DefaultOptions(d),
		D:      d,
	}
	if voltageScaled {
		s.Name += "-vs"
		s.Opts.VoltageScaling = true
	}
	return s
}

// FutureSystem is Fig. 13(c): ERSFQ PSU/TCU with Optimizations #2/#3.
// eduAt4K moves the EDU to ERSFQ at 4 K (Guideline #2); patchSliding
// additionally applies Optimization #4.
func FutureSystem(d int, eduAt4K, patchSliding bool) *System {
	s := &System{
		Name: "future-ERSFQ",
		Tech: [microarch.NumUnits]tech.Kind{
			microarch.UnitPSU: tech.ERSFQ,
			microarch.UnitTCU: tech.ERSFQ,
		},
		Scheme: decoder.SchemePriority,
		Opts:   estimator.DefaultOptions(d),
		D:      d,
	}
	s.Opts.PSU = synth.OptimizedPSUOptions()
	s.Opts.TCU = synth.TCUOptions{SimpleBuffer: true}
	if eduAt4K {
		s.Name += "+EDU4K"
		s.Tech[microarch.UnitEDU] = tech.ERSFQ
		if patchSliding {
			s.Name += "+ps"
			s.Opts.EDU.PatchSliding = true
			s.Scheme = decoder.SchemePatchSliding
		}
	}
	return s
}

// Rates are the microscopic steady-state rates measured from a pipeline
// run; macroscopic metrics extrapolate from them. They are scheme-free:
// the EDU's token-setup scheme prices each decode window, and no rate
// reads a price.
type Rates struct {
	// BitsPerQubitPerRound is the TCU->QCI codeword stream density.
	BitsPerQubitPerRound float64
	// UpBitsPerQubitPerRound is the measurement-result return stream.
	UpBitsPerQubitPerRound float64
	// SyndromesPerQubitPerWindow is the non-trivial syndrome density.
	SyndromesPerQubitPerWindow float64
	// MatchesPerSyndrome and AvgMatchSteps characterize the decode load.
	MatchesPerSyndrome float64
	AvgMatchSteps      float64
	// PIUBitsPerQubitPerWindow etc. cover the small inter-unit flows.
	SmallFlowBitsPerQubitPerRound float64
}

// refRun is one reference run: its metrics, priced under the scheme it
// ran with, every scheme's window prices, and the layout's
// physical-qubit count.
type refRun struct {
	m      microarch.Metrics
	prices [decoder.NumSchemes]microarch.SchemePrices
	nPhys  int
}

// referenceRun compiles the random-PPR workload of nLQ logical qubits and
// pprs rotations and runs it through the pipeline in scaling mode (no
// tableau) under scheme. It returns the run by value, so no caller keeps
// the pipeline alive.
func referenceRun(d int, physError float64, scheme decoder.Scheme, seed int64, nLQ, pprs int) (refRun, error) {
	res, err := compiler.Compile(compiler.RandomPPR(nLQ, pprs, seed).SubstituteStabilizer())
	if err != nil {
		return refRun{}, fmt.Errorf("core: compile reference workload: %w", err)
	}
	pl := microarch.NewPipeline(surface.NewPPRLayout(nLQ, d), PipelineConfig(d, physError, scheme, false, seed))
	if err := pl.Run(res.Program); err != nil {
		return refRun{}, fmt.Errorf("core: run reference workload: %w", err)
	}
	return refRun{m: pl.M, prices: pl.Prices, nPhys: pl.B.Layout.PhysicalQubits()}, nil
}

// metricsUnder returns the run's metrics as the same run under scheme s
// counts them. The scheme enters a run only through each window's price,
// which lands in the decode-cycle sum and maximum and in the EDU's
// active cycles (the window sum plus retransmission backoff), so those
// three take s's prices and the rest is kept. The re-pricing is exact
// for a run without fault injection, whose decoder stalls would scale
// with the price; the reference run injects none.
func (r *refRun) metricsUnder(s decoder.Scheme) microarch.Metrics {
	m := r.m
	var p microarch.SchemePrices // an unknown scheme prices every window 0
	if s.Known() {
		p = r.prices[s]
	}
	edu := &m.Unit[microarch.UnitEDU]
	edu.ActiveCycles = edu.ActiveCycles - m.DecodeCyclesSum + p.Sum
	m.DecodeCyclesSum, m.DecodeCyclesMax = p.Sum, p.Max
	return m
}

// ratesOf divides a reference run's counters by its nPhys physical
// qubits and its rounds, windows, syndromes and matches.
func ratesOf(m *microarch.Metrics, nPhys int) Rates {
	n := float64(nPhys)
	rounds := float64(m.ESMRounds)
	windows := float64(m.DecodeWindows)
	r := Rates{}
	if rounds > 0 {
		r.BitsPerQubitPerRound = float64(m.TransferBits[microarch.UnitTCU][microarch.UnitQCI]) / n / rounds
		r.UpBitsPerQubitPerRound = float64(m.TransferBits[microarch.UnitQCI][microarch.UnitEDU]+
			m.TransferBits[microarch.UnitQCI][microarch.UnitLMU]) / n / rounds
		small := m.TransferBits[microarch.UnitQID][microarch.UnitPDU] +
			m.TransferBits[microarch.UnitPDU][microarch.UnitPIU] +
			m.TransferBits[microarch.UnitPIU][microarch.UnitPSU] +
			m.TransferBits[microarch.UnitPIU][microarch.UnitEDU] +
			m.TransferBits[microarch.UnitPIU][microarch.UnitLMU] +
			m.TransferBits[microarch.UnitEDU][microarch.UnitPFU] +
			m.TransferBits[microarch.UnitPFU][microarch.UnitLMU]
		r.SmallFlowBitsPerQubitPerRound = float64(small) / n / rounds
	}
	if windows > 0 {
		r.SyndromesPerQubitPerWindow = float64(m.SyndromesSum) / n / windows
	}
	if m.SyndromesSum > 0 {
		r.MatchesPerSyndrome = float64(m.MatchesSum) / float64(m.SyndromesSum)
	}
	if m.MatchesSum > 0 {
		r.AvgMatchSteps = float64(m.MatchStepsSum) / float64(m.MatchesSum)
	}
	return r
}

// Report carries the four scalability metrics at one qubit scale plus the
// constraint evaluations.
type Report struct {
	NPhys int

	InstBandwidthGbps float64 // required codeword stream bandwidth
	DecodeLatencyNs   float64 // per-window decode latency
	CrossTransferGbps float64 // 300K <-> 4K digital traffic
	CrossHeatW        float64 // cable heat at the 4 K stage
	Power4KW          float64 // 4 K device power
	Area4KCm2         float64 // 4 K device area

	// Constraint satisfaction.
	DecodeOK   bool
	TransferOK bool
	PowerOK    bool
	AreaOK     bool
	BWOK       bool
}

// OK reports whether every constraint holds.
func (r Report) OK() bool {
	return r.DecodeOK && r.TransferOK && r.PowerOK && r.AreaOK && r.BWOK
}

// Violations lists the violated constraints.
func (r Report) Violations() []string {
	var out []string
	if !r.DecodeOK {
		out = append(out, "error-decoding-latency")
	}
	if !r.TransferOK {
		out = append(out, "300K-4K-transfer")
	}
	if !r.PowerOK {
		out = append(out, "4K-power")
	}
	if !r.AreaOK {
		out = append(out, "4K-area")
	}
	if !r.BWOK {
		out = append(out, "instruction-bandwidth")
	}
	return out
}

// Evaluate computes the scalability report of the system at nPhys
// physical qubits using the measured rates.
func (s *System) Evaluate(nPhys int, r Rates) Report {
	rep := Report{NPhys: nPhys}
	roundNs := config.ESMRoundNs()
	scale := estimator.ScaleFor(nPhys, s.D)

	// (1) Instruction bandwidth: the codeword stream all active qubits
	// consume each ESM round.
	rep.InstBandwidthGbps = r.BitsPerQubitPerRound * float64(nPhys) / roundNs

	// (2) Decode latency per window under the system's token scheme: an
	// analytic copy of decoder.WindowCycles, the pipeline's window price,
	// with the same per-match spike term. Round-robin differs: this
	// charges d cycles for every cell (nPhys/2), the pipeline only for
	// its active cells; which one the hardware implies is still open.
	tokens := r.SyndromesPerQubitPerWindow * float64(nPhys) * r.MatchesPerSyndrome
	spikePerMatch := 2*r.AvgMatchSteps + float64(decoder.SpikeWaitCycles(s.D)) + decoder.SpikeOverheadCycles
	cells := float64(nPhys) / 2
	var cycles float64
	switch s.Scheme {
	case decoder.SchemeRoundRobin:
		// The shared token circulates all cells once per round.
		cycles = float64(s.D)*cells + tokens*spikePerMatch
	case decoder.SchemePriority:
		// Per-basis arrays decode in parallel.
		cycles = (tokens / 2) * (1 + spikePerMatch)
	case decoder.SchemePatchSliding:
		cycles = (tokens/2)*(1+spikePerMatch) + float64(scale.NPatches)
	}
	rep.DecodeLatencyNs = cycles / s.freqOf(microarch.UnitEDU)

	// (3) 300K-4K transfer: flows whose endpoints straddle the boundary.
	gbps := 0.0
	if s.TempOf(microarch.UnitTCU) == T300K {
		gbps += r.BitsPerQubitPerRound * float64(nPhys) / roundNs // codewords down
	}
	if s.TempOf(microarch.UnitEDU) == T300K {
		gbps += r.UpBitsPerQubitPerRound * float64(nPhys) / roundNs // results up
	}
	// PIU(300K) -> PSU(4K) patch info and similar small flows.
	if s.TempOf(microarch.UnitPSU) == T4K && s.TempOf(microarch.UnitPIU) == T300K {
		gbps += r.SmallFlowBitsPerQubitPerRound * float64(nPhys) / roundNs
	}
	b := s.budget()
	rep.CrossTransferGbps = gbps
	cables := math.Ceil(gbps / b.CableGbps)
	rep.CrossHeatW = cables * b.CableHeatW

	// (4) 4 K device power and area from the estimator.
	for u := microarch.UnitQID; u <= microarch.UnitLMU; u++ {
		if s.TempOf(u) != T4K {
			continue
		}
		e := estimator.EstimateUnit(u, scale, s.Tech[u], s.Opts)
		rep.Power4KW += e.TotalW()
		rep.Area4KCm2 += e.AreaCm2
	}

	rep.DecodeOK = rep.DecodeLatencyNs <= b.DecodeBudgetNs
	rep.TransferOK = rep.CrossHeatW <= b.Power4KW
	rep.PowerOK = rep.Power4KW <= b.Power4KW
	rep.AreaOK = rep.Area4KCm2 <= b.Area4KCm2
	rep.BWOK = rep.CrossTransferGbps <= b.MaxCrossGbps() ||
		s.TempOf(microarch.UnitTCU) == T4K
	return rep
}

// MaxQubits finds the largest sustainable physical-qubit count: the
// scaling limit with every constraint satisfied.
func (s *System) MaxQubits(r Rates) int { return s.ConstraintLimit(r, Report.OK) }

// ConstraintLimit finds the scaling limit imposed by a single constraint,
// ignoring the others (the per-line limits of Figs. 14, 17, 19), by
// exponential probing plus binary search.
func (s *System) ConstraintLimit(r Rates, pass func(Report) bool) int {
	if !pass(s.Evaluate(64, r)) {
		return 0
	}
	lo, hi := 64, 128
	for pass(s.Evaluate(hi, r)) && hi < MaxPhysQubits {
		lo = hi
		hi *= 2
	}
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		if pass(s.Evaluate(mid, r)) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}
