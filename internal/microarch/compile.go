package microarch

import (
	"context"
	"fmt"
	"strings"

	"xqsim/internal/config"
	"xqsim/internal/decoder"
	"xqsim/internal/ftqc"
	"xqsim/internal/isa"
	"xqsim/internal/pauli"
	"xqsim/internal/surface"
)

// This file implements the QISA executor in two halves: CompileProgram
// lowers an isa.Program once into a flat, pre-validated stream of
// micro-ops, and Pipeline.RunCompiled executes that stream, charging each
// unit's accounting in one exec function per micro-op kind. Everything
// that does not depend on the shot's random draws — instruction grouping,
// Pauli-product assembly, merge-region routing, pending-region unions,
// decode-window parameters, PPM product matching — is resolved at compile
// time by replaying the program's layout evolution on a scratch lattice,
// so the per-shot execution touches only preallocated state. The
// executor golden (testdata/executor.golden) pins the accounting.

// uopKind discriminates the lowered micro-ops.
type uopKind uint8

// Micro-op kinds. One uop may fold several source instructions (the QID's
// MERGE_INFO / PPM_INTERPRET window groups collapse into one op).
const (
	uopLQI uopKind = iota
	uopMerge
	uopSplit
	uopInitIntmd
	uopMeasIntmd
	uopRunESM
	uopInterpret
	uopLQM
)

// lqTarget is one resolved LQ_list entry.
type lqTarget struct {
	LQ   int
	Mark isa.LQMark
}

// uop is one lowered micro-op. Index fields refer into the owning
// CompiledProgram's shared tables; -1 marks an unused reference.
type uop struct {
	kind  uopKind
	op    isa.Opcode
	flags isa.MeasFlag
	mreg  uint16
	pc    int // source index of the group head (tracing / replay)
	count int // source instructions folded into this uop (QID accounting)

	tgt0, tgt1 int // targets span (uopLQI, uopLQM)
	prod       int // product index (uopMerge, uopInterpret)
	region     int // region index (uopMerge, uopSplit, uopInitIntmd, uopMeasIntmd)
	intmd      int // intermediates region (uopRunESM)
	ps0, ps1   int // prodSeq span: products measured in this window (uopRunESM)
	active     int // uopRunESM: ESM-active patch count
	aux        int // uopMerge: merge-target count; uopInterpret: product weight; uopMeasIntmd: intermediate count
}

// CompiledProgram is a lowered, validated QISA binary for one machine
// shape (nLQ data qubits at distance d). It is immutable after
// CompileProgram and safe to share across pipelines and goroutines.
type CompiledProgram struct {
	// NLQ and D pin the machine shape the stream was lowered for;
	// RunCompiled refuses mismatched pipelines.
	NLQ int
	D   int

	nLQ      int // machine width (NLQ + 2 resource qubits)
	uops     []uop
	products []pauli.Product // machine-width merge/interpret products
	regions  [][]int         // sorted patch-index sets
	targets  []lqTarget
	prodSeq  []int // uopRunESM: product indices measured per merge window
}

// Len returns the number of source instructions the stream encodes.
func (cp *CompiledProgram) Len() int {
	n := 0
	for i := range cp.uops {
		n += cp.uops[i].count
	}
	return n
}

// compileState replays the program's layout evolution at compile time.
type compileState struct {
	cp     *CompiledProgram
	layout *surface.PPRLayout
	// window is the region-table index of the pending merge region, or
	// -1 when a MERGE_INFO or SPLIT_INFO changed it since it was last
	// added (see pendingRegion).
	window int
	// pendingProds are compiled product indices awaiting their merge
	// window; mergeQueue models the runtime FIFO of measured products so
	// PPM_INTERPRET matching is validated at compile time.
	pendingProds []int
	mergeQueue   []int
	condCount    int // condition-slot occupancy (BPCheck validation)
}

// resolvePatch mirrors Backend.patchOf: the reserved resource qubits map
// on demand; anything else unmapped is a program error (reported at
// compile time instead of a runtime panic).
func (s *compileState) resolvePatch(lq int) (int, error) {
	if idx, ok := s.layout.PatchOfLQ(lq); ok {
		return idx, nil
	}
	switch lq {
	case s.layout.AncillaLQ:
		s.layout.MapLogical(lq, s.layout.AncillaP, surface.InitZero)
		return s.layout.AncillaP, nil
	case s.layout.MagicLQ:
		s.layout.MapLogical(lq, s.layout.MagicP, surface.InitMagic)
		return s.layout.MagicP, nil
	}
	return 0, fmt.Errorf("microarch: compile: logical qubit %d is not mapped", lq)
}

// pendingRegion returns the region-table index of the pending merge
// region (the union of the merge regions since the last SPLIT_INFO),
// sorted by patch index. Only ApplyMerge and ApplySplit write the
// layout's MergeOn flags, so the merged patches are exactly that union;
// the region is added to the table once per merge window and shared by
// its INIT_INTMD, MEAS_INTMD and SPLIT_INFO.
func (s *compileState) pendingRegion() int {
	if s.window < 0 {
		s.window = s.addRegion(s.layout.MergedPatches())
	}
	return s.window
}

// pendingIntermediates filters the pending region to routing patches.
func (s *compileState) pendingIntermediates() []int {
	var out []int
	for _, idx := range s.cp.regions[s.pendingRegion()] {
		if s.layout.Patch(idx).Static.Type == surface.Intermediate {
			out = append(out, idx)
		}
	}
	return out
}

func (s *compileState) addProduct(pr pauli.Product) int {
	s.cp.products = append(s.cp.products, pr)
	return len(s.cp.products) - 1
}

func (s *compileState) addRegion(region []int) int {
	s.cp.regions = append(s.cp.regions, region)
	return len(s.cp.regions) - 1
}

func (s *compileState) addTargets(in isa.Instr) (int, int) {
	t0 := len(s.cp.targets)
	for _, t := range in.TargetLQs() {
		s.cp.targets = append(s.cp.targets, lqTarget{LQ: t.LQ, Mark: t.Mark})
	}
	return t0, len(s.cp.targets)
}

// groupBy collects prog[i] plus following instructions while same(first,
// next) holds and the offsets keep ascending (an offset repeat starts a
// new group): the QID accumulates the 16-qubit windows of one Pauli
// product, and the compiler emits ascending offsets per product.
func groupBy(prog isa.Program, i int, same func(a, b isa.Instr) bool) ([]isa.Instr, int) {
	group := []isa.Instr{prog[i]}
	last := prog[i].Offset
	j := i + 1
	for j < len(prog) && same(prog[i], prog[j]) && prog[j].Offset > last {
		group = append(group, prog[j])
		last = prog[j].Offset
		j++
	}
	return group, j
}

// groupProduct merges the Pauli windows of a group into one product over
// nLQ qubits (the QID's window accumulation).
func groupProduct(nLQ int, group []isa.Instr) pauli.Product {
	pr := pauli.NewProduct(nLQ)
	for _, in := range group {
		w := in.PauliProduct(nLQ)
		for q, op := range w.Ops {
			if op != pauli.I {
				pr.Ops[q] = op
			}
		}
	}
	return pr
}

// CompileProgram lowers prog for a machine of nLQ data logical qubits at
// code distance d. It validates every program error up front — unmapped
// logical qubits, unroutable merges, PPM_INTERPRET products that do not
// match their recorded merge, incomplete byproduct condition slots,
// unsupported opcodes — and returns the first error with its source
// instruction index, so a stream that compiles runs to completion.
func CompileProgram(prog isa.Program, nLQ, d int) (*CompiledProgram, error) {
	// A uop folds one or more source instructions, so len(prog) bounds
	// the stream and the append never regrows it.
	cp := &CompiledProgram{NLQ: nLQ, D: d, nLQ: nLQ + 2, uops: make([]uop, 0, len(prog))}
	s := &compileState{cp: cp, layout: surface.NewPPRLayout(nLQ, d), window: -1}
	for i := 0; i < len(prog); {
		in := prog[i]
		var err error
		switch in.Op {
		case isa.LQI:
			err = s.compileLQI(in, i)
			i++
		case isa.MergeInfo:
			group, next := groupBy(prog, i, func(a, b isa.Instr) bool {
				return b.Op == isa.MergeInfo
			})
			err = s.compileMerge(group, i)
			i = next
		case isa.SplitInfo:
			s.compileSplit(i)
			i++
		case isa.InitIntmd:
			cp.uops = append(cp.uops, uop{kind: uopInitIntmd, op: in.Op, pc: i, count: 1,
				region: s.pendingRegion()})
			i++
		case isa.MeasIntmd:
			cp.uops = append(cp.uops, uop{kind: uopMeasIntmd, op: in.Op, pc: i, count: 1,
				region: s.pendingRegion(), aux: len(s.pendingIntermediates())})
			i++
		case isa.RunESM:
			s.compileRunESM(in, i)
			i++
		case isa.PPMInterpret:
			group, next := groupBy(prog, i, func(a, b isa.Instr) bool {
				return b.Op == isa.PPMInterpret && b.MregDst == a.MregDst
			})
			err = s.compileInterpret(group, i)
			i = next
		case isa.LQMX, isa.LQMZ, isa.LQMFM:
			err = s.compileLQM(in, i)
			i++
		default:
			err = fmt.Errorf("microarch: unsupported opcode %v", in.Op)
		}
		if err != nil {
			return nil, fmt.Errorf("%w (instruction %d)", err, i)
		}
	}
	return cp, nil
}

func (s *compileState) compileLQI(in isa.Instr, pc int) error {
	t0, t1 := s.addTargets(in)
	for _, t := range s.cp.targets[t0:t1] {
		patch, err := s.resolvePatch(t.LQ)
		if err != nil {
			return err
		}
		// PrepareZero/Plus/Resource all enable the patch's ESM.
		s.layout.EnableESM(patch)
	}
	s.cp.uops = append(s.cp.uops, uop{kind: uopLQI, op: in.Op, flags: in.Flags,
		pc: pc, count: 1, tgt0: t0, tgt1: t1})
	return nil
}

func (s *compileState) compileMerge(group []isa.Instr, pc int) error {
	pr := groupProduct(s.cp.nLQ, group)
	var targets []int
	for lq, op := range pr.Ops {
		if op == pauli.I {
			continue
		}
		patch, ok := s.layout.PatchOfLQ(lq)
		if !ok {
			return fmt.Errorf("microarch: MERGE_INFO targets unmapped LQ %d", lq)
		}
		targets = append(targets, patch)
	}
	region, err := s.layout.MergeRegion(targets)
	if err != nil {
		return fmt.Errorf("microarch: %w", err)
	}
	s.layout.ApplyMerge(region)
	s.window = -1
	prodIdx := s.addProduct(pr)
	s.pendingProds = append(s.pendingProds, prodIdx)
	s.cp.uops = append(s.cp.uops, uop{kind: uopMerge, op: isa.MergeInfo, pc: pc,
		count: len(group), prod: prodIdx, region: s.addRegion(region), aux: len(targets)})
	return nil
}

func (s *compileState) compileSplit(pc int) {
	region := s.pendingRegion()
	s.layout.ApplySplit(s.cp.regions[region])
	s.window = -1
	s.cp.uops = append(s.cp.uops, uop{kind: uopSplit, op: isa.SplitInfo, pc: pc,
		count: 1, region: region})
}

func (s *compileState) compileRunESM(in isa.Instr, pc int) {
	u := uop{kind: uopRunESM, op: in.Op, pc: pc, count: 1,
		active: len(s.layout.ActiveESMPatches())}
	u.ps0 = len(s.cp.prodSeq)
	if len(s.pendingProds) > 0 && len(s.cp.regions[s.pendingRegion()]) > 0 {
		u.intmd = s.addRegion(s.pendingIntermediates())
		s.cp.prodSeq = append(s.cp.prodSeq, s.pendingProds...)
		s.mergeQueue = append(s.mergeQueue, s.pendingProds...)
		s.pendingProds = s.pendingProds[:0]
	}
	u.ps1 = len(s.cp.prodSeq)
	s.cp.uops = append(s.cp.uops, u)
}

func (s *compileState) compileInterpret(group []isa.Instr, pc int) error {
	in := group[0]
	pr := groupProduct(s.cp.nLQ, group)
	if len(s.mergeQueue) == 0 {
		return fmt.Errorf("microarch: PPM_INTERPRET without a recorded merge outcome")
	}
	recorded := s.mergeQueue[0]
	s.mergeQueue = s.mergeQueue[1:]
	if s.cp.products[recorded].String() != pr.String() {
		return fmt.Errorf("microarch: PPM_INTERPRET product %v does not match recorded merge %v",
			pr, s.cp.products[recorded])
	}
	if in.Flags&isa.FlagCondStore != 0 {
		s.condCount++
	}
	s.cp.uops = append(s.cp.uops, uop{kind: uopInterpret, op: isa.PPMInterpret,
		flags: in.Flags, mreg: in.MregDst, pc: pc, count: len(group),
		prod: recorded, aux: pr.Weight()})
	return nil
}

func (s *compileState) compileLQM(in isa.Instr, pc int) error {
	t0, t1 := s.addTargets(in)
	for _, t := range s.cp.targets[t0:t1] {
		if in.Flags&isa.FlagCondStore != 0 {
			s.condCount++
		}
		if in.Flags&isa.FlagBPCheck != 0 {
			if s.condCount < 4 {
				return fmt.Errorf("microarch: BPCheck with incomplete condition slots")
			}
			s.condCount = 0
		}
		if in.Flags&isa.FlagDiscard != 0 {
			// Mirror Backend.DiscardLogical's layout effect.
			if patch, ok := s.layout.PatchOfLQ(t.LQ); ok {
				s.layout.UnmapLogical(t.LQ)
				s.layout.DisableESM(patch)
			}
		}
	}
	s.cp.uops = append(s.cp.uops, uop{kind: uopLQM, op: in.Op, flags: in.Flags,
		mreg: in.MregDst, pc: pc, count: 1, tgt0: t0, tgt1: t1})
	return nil
}

// RunCompiled executes a compiled stream to completion, checking ctx once
// per micro-op so a canceled run returns promptly with ctx's error. The
// fault-injection totals accumulated so far are copied into Metrics on
// every exit path (including errors), so partially-run programs still
// report their degradation accounting. The steady-state shot is
// allocation-free (TestCompiledSteadyStateAllocs).
func (p *Pipeline) RunCompiled(ctx context.Context, cp *CompiledProgram) error {
	if cp == nil {
		return fmt.Errorf("microarch: nil compiled program")
	}
	if cp.NLQ != p.B.Layout.NLQ || cp.D != p.Cfg.D {
		return fmt.Errorf("microarch: compiled program shape (nLQ=%d, d=%d) does not match pipeline (nLQ=%d, d=%d)",
			cp.NLQ, cp.D, p.B.Layout.NLQ, p.Cfg.D)
	}
	defer func() { p.M.Faults = p.inj.Totals() }()
	for ui := range cp.uops {
		if err := ctx.Err(); err != nil {
			return err
		}
		u := &cp.uops[ui]
		p.M.Instructions += u.count
		p.M.Unit[UnitQID].Ops += uint64(u.count)
		p.M.Unit[UnitQID].ActiveCycles += uint64(u.count)
		p.M.transfer(UnitQID, UnitPDU, uint64(64*u.count))
		p.traceStep(u.pc, u.op.String())
		switch u.kind {
		case uopLQI:
			p.execLQI(cp, u)
		case uopMerge:
			p.execMerge(cp, u)
		case uopSplit:
			p.execSplit(cp, u)
		case uopInitIntmd:
			p.execInitIntmd(cp, u)
		case uopMeasIntmd:
			p.execMeasIntmd(cp, u)
		case uopRunESM:
			p.execRunESM(cp, u)
		case uopInterpret:
			if err := p.execInterpret(cp, u); err != nil {
				return err
			}
		case uopLQM:
			p.execLQM(cp, u)
		default:
			return fmt.Errorf("microarch: corrupt compiled stream (kind %d)", u.kind)
		}
	}
	return nil
}

func (p *Pipeline) execLQI(cp *CompiledProgram, u *uop) {
	targets := cp.targets[u.tgt0:u.tgt1]
	p.M.Unit[UnitPDU].Ops++
	p.M.Unit[UnitPDU].ActiveCycles++
	p.M.transfer(UnitPDU, UnitPIU, uint64(len(targets)*16))
	p.M.Unit[UnitPIU].Ops++
	p.M.Unit[UnitPIU].ActiveCycles += uint64(len(targets))

	angle := angleOf(u.flags)
	nPhys := 0
	for _, t := range targets {
		switch t.Mark {
		case isa.MarkNone:
			// TargetLQs never yields untargeted qubits.
		case isa.MarkZero:
			p.B.PrepareZero(t.LQ)
		case isa.MarkPlus:
			p.B.PreparePlus(t.LQ)
		case isa.MarkMagic:
			p.B.PrepareResource(t.LQ, angle)
		}
		// The LMU clears the byproduct record of re-initialized qubits.
		p.byproduct.Ops[t.LQ] = pauli.I
		nPhys += p.B.Code.PhysPerPatch()
	}
	p.psuSteps(nPhys, 1)
	p.M.VirtualNs += config.T1QNs
}

func (p *Pipeline) execMerge(cp *CompiledProgram, u *uop) {
	region := cp.regions[u.region]
	p.B.Layout.ApplyMerge(region)
	p.M.Unit[UnitPDU].Ops++
	p.M.Unit[UnitPDU].ActiveCycles += uint64(u.count)
	p.M.transfer(UnitPDU, UnitPIU, uint64(u.aux*16))
	p.M.Unit[UnitPIU].Ops++
	p.M.Unit[UnitPIU].ActiveCycles += uint64(len(region)) // one patch per cycle
}

func (p *Pipeline) execSplit(cp *CompiledProgram, u *uop) {
	region := cp.regions[u.region]
	p.B.Layout.ApplySplit(region)
	p.M.Unit[UnitPIU].Ops++
	p.M.Unit[UnitPIU].ActiveCycles += uint64(len(region))
}

func (p *Pipeline) execInitIntmd(cp *CompiledProgram, u *uop) {
	n := p.B.InitIntermediates(cp.regions[u.region])
	p.M.Unit[UnitPIU].Ops++
	p.M.Unit[UnitPIU].ActiveCycles += uint64(n)
	p.psuSteps(n*p.B.Code.PhysPerPatch(), 1)
	p.M.VirtualNs += config.T1QNs
}

func (p *Pipeline) execMeasIntmd(cp *CompiledProgram, u *uop) {
	n := p.B.MeasureIntermediates(cp.regions[u.region])
	p.psuSteps(n*p.B.Code.PhysPerPatch(), 1)
	// Intermediate X-measurement results return to the LMU.
	d := p.B.Code.D
	p.M.transfer(UnitQCI, UnitLMU, uint64(u.aux*d*d))
	p.M.Unit[UnitLMU].Ops++
	p.M.Unit[UnitLMU].ActiveCycles += uint64(u.aux)
	p.M.VirtualNs += config.TMeasNs
}

func (p *Pipeline) execRunESM(cp *CompiledProgram, u *uop) {
	d := p.Cfg.D
	active := u.active
	nPhys := active * p.B.Code.PhysPerPatch()

	// PIU forwards the active patches' information into the PSU's
	// double-buffered shift register once per window.
	p.M.Unit[UnitPIU].Ops++
	p.M.Unit[UnitPIU].ActiveCycles += uint64(active)
	p.M.transfer(UnitPIU, UnitPSU, uint64(active*64))
	p.M.transfer(UnitPIU, UnitEDU, uint64(active*32))

	totalPhys := p.B.Layout.PhysicalQubits()
	for r := 0; r < d; r++ {
		p.psuSteps(nPhys, config.ESMStepsPerRound)
		// The QC interface is synchronous: idle qubit lines receive
		// keep-alive timing frames of the same width every step.
		if idle := totalPhys - nPhys; idle > 0 {
			p.M.transfer(UnitTCU, UnitQCI, uint64(idle*config.CodewordBits*config.ESMStepsPerRound))
		}
		p.B.InjectRoundNoise()
		// Fault injection: a corrupted cross-temperature transfer costs
		// retransmissions (repeat syndrome payloads plus backoff cycles on
		// the EDU's receive side); an unrecoverable round loses its
		// detection events, as does a round scheduled for an overflow drop.
		ro := p.inj.Round()
		if ro.DropEvents {
			p.B.DropNextRoundEvents()
		}
		anc := p.B.MeasureSyndromesRound(r == d-1)
		p.M.transfer(UnitQCI, UnitEDU, uint64(anc)*uint64(1+ro.Retransmits))
		p.M.Unit[UnitEDU].ActiveCycles += ro.BackoffCycles
		p.M.ESMRounds++
		p.M.ESMTimeNs += config.ESMRoundNs()
		p.M.VirtualNs += config.ESMRoundNs()
	}

	if nPhys > p.M.MaxActivePhys {
		p.M.MaxActivePhys = nPhys
	}

	// Window decode: EDU cells match, PFU folds in the corrections.
	wd := p.B.FinishWindow()
	for _, m := range wd.MatchesZ {
		p.M.MatchesSum++
		p.M.MatchStepsSum += m.Steps
	}
	for _, m := range wd.MatchesX {
		p.M.MatchesSum++
		p.M.MatchStepsSum += m.Steps
	}
	prices := decoder.WindowPrices(p.Cfg.D, wd.MatchesZ, wd.MatchesX, wd.ActiveCells, wd.Windows)
	for s, c := range prices {
		p.Prices[s].Sum += c
		p.Prices[s].Max = max(p.Prices[s].Max, c)
	}
	var cycles uint64 // an unknown scheme prices 0, as decoder.WindowCycles does
	if p.Cfg.Scheme.Known() {
		cycles = prices[p.Cfg.Scheme]
	}
	// Fault injection: a decoder stall spike multiplies the window's
	// decode latency and backs syndromes up in the buffer; an overflow
	// under backpressure idles the data qubits (extra decoherence rounds
	// with no syndrome extraction) until the decoder catches up.
	wo := p.inj.Window(cycles, d)
	cycles += wo.StallCycles
	for i := 0; i < wo.BackpressureRounds; i++ {
		p.B.InjectRoundNoise()
		p.M.VirtualNs += config.ESMRoundNs()
	}
	p.M.DecodeWindows++
	p.M.DecodeCyclesSum += cycles
	if cycles > p.M.DecodeCyclesMax {
		p.M.DecodeCyclesMax = cycles
	}
	p.M.SyndromesSum += wd.Syndromes
	p.M.Unit[UnitEDU].Ops++
	p.M.Unit[UnitEDU].ActiveCycles += cycles
	p.M.transfer(UnitEDU, UnitPFU, uint64(wd.Flips*16))
	p.M.Unit[UnitPFU].Ops++
	p.M.Unit[UnitPFU].ActiveCycles += 2

	// If this window carried a merge, record the PPM outcomes now (the
	// joint logical measurements the merged ESM performs), with the
	// pass-through error sensitivity of the routing patches.
	if u.ps1 > u.ps0 {
		intmd := cp.regions[u.intmd]
		for _, pi := range cp.prodSeq[u.ps0:u.ps1] {
			corrected, _, _ := p.B.MeasureProductDetail(cp.products[pi], intmd)
			p.mergeResults = append(p.mergeResults, corrected)
		}
	}
}

func (p *Pipeline) execInterpret(cp *CompiledProgram, u *uop) error {
	pr := cp.products[u.prod]
	if p.mergeHead >= len(p.mergeResults) {
		// Unreachable for CompileProgram output (the queue is validated at
		// compile time); kept as a guard against hand-built streams.
		return fmt.Errorf("microarch: PPM_INTERPRET without a recorded merge outcome")
	}
	value := p.mergeResults[p.mergeHead]
	p.mergeHead++

	// Byproduct-register reinterpretation plus the invert flag.
	if !p.byproduct.Commutes(pr) {
		value = !value
	}
	if u.flags&isa.FlagInvert != 0 {
		value = !value
	}
	p.M.MregFile.Set(u.mreg, value)
	if u.flags&isa.FlagCondStore != 0 {
		if len(p.condSlots) == 0 {
			copy(p.pauliListReg.Ops, pr.Ops)
			p.pauliListReg.Phase = pr.Phase
		}
		p.condSlots = append(p.condSlots, value)
	}

	p.M.Unit[UnitPDU].Ops++
	p.M.Unit[UnitPDU].ActiveCycles += uint64(u.count)
	p.M.Unit[UnitLMU].Ops++
	p.M.Unit[UnitLMU].ActiveCycles += uint64(u.aux + 1)
	p.M.transfer(UnitPIU, UnitLMU, uint64(u.aux*32))
	return nil
}

func (p *Pipeline) execLQM(cp *CompiledProgram, u *uop) {
	d := p.B.Code.D
	angle := angleOf(u.flags)
	for _, t := range cp.targets[u.tgt0:u.tgt1] {
		var basis pauli.Pauli
		switch u.op {
		case isa.LQMX:
			basis = pauli.X
		case isa.LQMZ:
			basis = pauli.Z
		case isa.LQMFM:
			// Condition checker: the pi/8 protocol flips to the X basis
			// when the interpreted PPM result (slot a) is -1.
			if angle == ftqc.AnglePi8 && len(p.condSlots) > 0 && p.condSlots[0] {
				basis = pauli.X
			} else {
				basis = pauli.Z
			}
			p.M.transfer(UnitLMU, UnitQID, 1) // fm_basis feedback
		default:
			// CompileProgram routes only the LQM family here.
		}

		pr := p.lqmScratch
		pr.Ops[t.LQ] = basis
		corrected, _, _ := p.B.MeasureProductDetail(pr, nil)
		value := corrected
		if !p.byproduct.Commutes(pr) {
			value = !value
		}
		pr.Ops[t.LQ] = pauli.I
		if u.flags&isa.FlagInvert != 0 {
			value = !value
		}
		p.M.MregFile.Set(u.mreg, value)
		if u.flags&isa.FlagCondStore != 0 {
			p.condSlots = append(p.condSlots, value)
		}

		// Byproduct generation check: the machine-verified parity rules
		// of internal/ftqc, evaluated over the condition slots
		// (a, b, c) and this measurement's value.
		if u.flags&isa.FlagBPCheck != 0 {
			// Slot completeness is validated at compile time.
			a, b, c := p.condSlots[0], p.condSlots[1], p.condSlots[2]
			var bp bool
			if angle == ftqc.AnglePi4 {
				bp = a != c != value
			} else if basis == pauli.X {
				bp = b != c != value
			} else {
				bp = c != value
			}
			if bp {
				for q, op := range p.pauliListReg.Ops {
					p.byproduct.Ops[q] ^= op
				}
			}
			p.condSlots = p.condSlots[:0]
		}
		if u.flags&isa.FlagDiscard != 0 {
			p.B.DiscardLogical(t.LQ)
		}

		// Data-qubit measurement traffic and LMU work.
		p.psuSteps(p.B.Code.PhysPerPatch(), 1)
		p.M.transfer(UnitQCI, UnitLMU, uint64(d*d))
		p.M.transfer(UnitPFU, UnitLMU, uint64(2*d*d))
		p.M.Unit[UnitLMU].Ops++
		p.M.Unit[UnitLMU].ActiveCycles += uint64(d + 2)
		p.M.Unit[UnitPFU].Ops++
		p.M.Unit[UnitPFU].ActiveCycles++
	}
	p.M.VirtualNs += config.TMeasNs
}

// Dump renders the lowered stream in a stable human-readable form; the
// golden-stream regression test pins it for a representative program.
func (cp *CompiledProgram) Dump() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "compiled nLQ=%d d=%d uops=%d\n", cp.NLQ, cp.D, len(cp.uops))
	for i := range cp.uops {
		u := &cp.uops[i]
		fmt.Fprintf(&sb, "%3d %-14s pc=%-3d n=%d", i, u.op.String(), u.pc, u.count)
		switch u.kind {
		case uopLQI, uopLQM:
			sb.WriteString(" targets=[")
			for j, t := range cp.targets[u.tgt0:u.tgt1] {
				if j > 0 {
					sb.WriteByte(' ')
				}
				fmt.Fprintf(&sb, "%d:%s", t.LQ, t.Mark)
			}
			sb.WriteByte(']')
			if u.kind == uopLQM {
				fmt.Fprintf(&sb, " mreg=%d", u.mreg)
			}
			if u.flags != 0 {
				fmt.Fprintf(&sb, " flags=%#x", uint8(u.flags))
			}
		case uopMerge:
			fmt.Fprintf(&sb, " prod=%s region=%v targets=%d",
				cp.products[u.prod], cp.regions[u.region], u.aux)
		case uopSplit, uopInitIntmd:
			fmt.Fprintf(&sb, " region=%v", cp.regions[u.region])
		case uopMeasIntmd:
			fmt.Fprintf(&sb, " region=%v intmd=%d", cp.regions[u.region], u.aux)
		case uopRunESM:
			fmt.Fprintf(&sb, " active=%d", u.active)
			if u.ps1 > u.ps0 {
				fmt.Fprintf(&sb, " measure=%v intmd=%v", cp.prodSeq[u.ps0:u.ps1], cp.regions[u.intmd])
			}
		case uopInterpret:
			fmt.Fprintf(&sb, " prod=%s mreg=%d weight=%d",
				cp.products[u.prod], u.mreg, u.aux)
			if u.flags != 0 {
				fmt.Fprintf(&sb, " flags=%#x", uint8(u.flags))
			}
		default:
			sb.WriteString(" ?")
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}
