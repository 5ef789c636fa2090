// Package microarch implements the fault-tolerant quantum control
// processor of the paper's Fig. 6 — QID, PDU, PIU, PSU, TCU, EDU, PFU and
// LMU — as cycle-accounted transaction models, together with the noisy
// quantum backend they control.
//
// The backend keeps three layers of state:
//
//   - an ideal stabilizer tableau with one qubit per logical qubit,
//     advanced only by logical-product measurements, resets and logical
//     Paulis (the lattice-surgery entangling semantics), plus one gauge
//     bit per logical qubit that replays the physical reset's random
//     draws exactly (see DESIGN.md §5.3 for why both substitutions
//     preserve every outcome);
//   - the truth error frame (errFrame): Pauli errors injected by the noise
//     model each ESM round;
//   - the estimate frame (pfFrame): the corrections the error decode unit
//     derives from syndromes, held by the Pauli frame unit.
//
// A logical measurement's physical outcome is the tableau outcome XOR the
// truth frame's anticommutation with the measured string; the logical
// measure unit then applies the estimate frame. When decoding succeeds the
// two flips cancel modulo stabilizers, exactly as in hardware.
package microarch

import (
	"fmt"
	"math/bits"

	"xqsim/internal/decoder"
	"xqsim/internal/ftqc"
	"xqsim/internal/noise"
	"xqsim/internal/pauli"
	"xqsim/internal/stab"
	"xqsim/internal/surface"
)

// Backend is the noisy quantum substrate under the control processor.
type Backend struct {
	Layout *surface.PPRLayout
	Code   surface.Code //xqlint:persistent code geometry, fixed at construction

	// tab is the ideal state of the machine's nLQ+2 logical qubits, one
	// tableau qubit each. Every operation on a patch's data qubits is
	// logical except PrepareZero's per-site reset, which xGauge replays.
	// nil in scaling mode, where only error frames and syndromes are
	// simulated.
	tab *stab.Tableau
	// xGauge[lq] records that lq's block was last prepared by PreparePlus,
	// so its gauge qubits are X-type and PrepareZero's per-site reset
	// draws randomness on every site (resetLogical). Nil in scaling mode.
	xGauge []bool

	// errFrame and pfFrame cover the data qubits of every patch
	// (numPatches * d^2), indexed patch*d*d + row*d + col.
	errFrame pauli.Frame
	pfFrame  pauli.Frame

	dataNoise *noise.Model
	measNoise *noise.Model

	stabs []surface.Stabilizer //xqlint:persistent per-patch stabilizer template, fixed at construction
	// condStabs are the seam boundary checks that activate when a side
	// becomes a Z&X merge seam (surface.ConditionalStabilizers).
	condStabs []surface.ConditionalStabilizer //xqlint:persistent seam-check templates, fixed at construction

	// Reusable decode state: syndromes are bit-packed per window and the
	// decoder's scratch buffers persist across windows, keeping the
	// simulate->decode inner loop allocation-free.
	synBM  *decoder.SyndromeBitmap //xqlint:persistent decode scratch, rebuilt per window
	decSc  decoder.Scratch         //xqlint:persistent decode scratch, overwritten per decode
	decRes decoder.Result          //xqlint:persistent decode scratch, overwritten per decode

	// Syndrome state is bit-packed over the check templates: bit si is
	// regular check si for si < len(stabs), then seam check
	// si-len(stabs). Each per-patch slab holds synWords words per lattice
	// position, allocated once and re-derived on (re)activation, so the
	// round loop never allocates.
	synWords int //xqlint:persistent template bit width, fixed at construction
	// synActive marks patches with a live syndrome baseline.
	synActive []bool
	// diff bit si is set when check si's last measured value disagrees
	// with its current noise-free parity. flipErr keeps it current on
	// every truth-frame write, so a round reads the events straight off it
	// instead of re-deriving each check's parity from the frame.
	diff []uint64 //xqlint:persistent re-derived on patch activation (Reset clears synActive)
	// eventAcc accumulates detection-event parity over the current
	// decode window.
	eventAcc []uint64 //xqlint:persistent re-zeroed on patch activation (Reset clears synActive)
	// condWasActive marks checks measured since they last switched on; it
	// gates seam checks only, so a seam switching on mid-merge
	// re-baselines instead of firing a stale event.
	condWasActive []uint64 //xqlint:persistent re-zeroed on patch activation (Reset clears synActive)
	// regMask has the regular-check bits set.
	regMask []uint64 //xqlint:persistent template mask, fixed at construction
	// adj is the data-qubit -> check adjacency: entries
	// [(2*off+c)*adjStride, +adjStride) list, -1 padded, the template bits
	// whose parity error component c (0: X, seen by Z checks; 1: Z, seen
	// by X checks) flips at patch-local data offset off.
	adj       []int32 //xqlint:persistent check adjacency, fixed at construction
	adjStride int     //xqlint:persistent check adjacency, fixed at construction
	// hitBits is the round's measurement-flip scratch, all-zero between
	// patches.
	hitBits []uint64 //xqlint:persistent all-zero between uses
	// chkSig[patch] is the dynamic-state signature chkList[patch] was
	// resolved under (shared across patches via chkLists, keyed by
	// signature — the templates are patch-independent); chkEpoch[patch]
	// the patch's lattice epoch (surface.Lattice.PatchEpoch) when it was
	// last checked.
	chkSig   []uint32
	chkEpoch []uint64
	chkList  []*checkList          //xqlint:persistent stale entries are unreachable: Reset invalidates every chkSig
	chkLists map[uint32]*checkList //xqlint:persistent memoized by signature, deliberately survives Reset
	// eventCount[patch] is the number of pending detection events in
	// eventAcc; most windows end with zero, letting FinishWindow skip the
	// per-basis scans entirely.
	eventCount []int
	// quiet[patch] marks a patch that a round with no measurement flip
	// leaves exactly as it is: syndrome-active, diff clear on every check
	// of its resolved check list, and each of those checks measured since
	// it switched on. Such a round fires no event and rewrites diff and
	// condWasActive with their own values, so MeasureSyndromesRound skips
	// it after one noise.Skip. A round that re-resolves the patch to a new
	// check list clears the mark first, and every other write that can
	// break the invariant clears it through unquiet.
	quiet []bool
	// quietEpoch is the lattice epoch of the last round that left every
	// active patch quiet, and quietMeasured that round's measurement
	// count; quietEpoch is 0, an epoch the lattice never has, once any
	// patch has been unquieted since. A round at quietEpoch costs one
	// Skip over all its checks.
	quietEpoch    uint64
	quietMeasured int

	// Reusable measurement scratch (MeasureProductDetail's logical and
	// frame operator strings) and noise-site buffer; both grow to their
	// steady-state capacity within one shot and are reused thereafter.
	mTqs    []int         //xqlint:persistent reusable scratch, overwritten before each use
	mTops   []pauli.Pauli //xqlint:persistent reusable scratch, overwritten before each use
	mFqs    []int         //xqlint:persistent reusable scratch, overwritten before each use
	mFops   []pauli.Pauli //xqlint:persistent reusable scratch, overwritten before each use
	siteBuf []int         //xqlint:persistent reusable scratch, overwritten before each use
	// lsOff[basis]/lsOps[basis] are the canonical physical strings of
	// logical X, Y and Z as patch-local data offsets (row*d+col) and
	// Pauli factors: Z down the left column, X along the top row, and Y
	// as Y at (0,0), Z down the rest of the column, X along the rest of
	// the row. Index pauli.I is empty.
	lsOff [4][]int         //xqlint:persistent derived from the code distance only
	lsOps [4][]pauli.Pauli //xqlint:persistent derived from the code distance only
	// wdMatchesZ/wdMatchesX back the match slices of the WindowDecode
	// FinishWindow returns; they are valid until the next FinishWindow.
	wdMatchesZ []decoder.Match //xqlint:persistent result backing, overwritten by the next FinishWindow
	wdMatchesX []decoder.Match //xqlint:persistent result backing, overwritten by the next FinishWindow

	// dropNextRound marks the next syndrome round's detection events as
	// lost to a fault (buffer overflow or cross-temperature link loss):
	// the syndrome state still advances, but the events never reach the
	// EDU, so the errors they witnessed stay uncorrected.
	dropNextRound bool
}

// NewBackend builds the substrate for a layout. functional enables the
// stabilizer tableau (required for logical outcomes; scaling sweeps turn
// it off). p is the physical error rate applied to data qubits per round
// and to syndrome measurements.
func NewBackend(layout *surface.PPRLayout, p float64, seed int64, functional bool) *Backend {
	d := layout.Code.D
	b := &Backend{
		Layout:    layout,
		Code:      layout.Code,
		errFrame:  pauli.NewFrame(layout.NumPatches() * d * d),
		pfFrame:   pauli.NewFrame(layout.NumPatches() * d * d),
		dataNoise: noise.NewModel(p, seed),
		measNoise: noise.NewModel(p, seed+1),
		stabs:     layout.Code.Stabilizers(),
		condStabs: layout.Code.ConditionalStabilizers(),
		siteBuf:   make([]int, 0, d*d),
	}
	nPatches := layout.NumPatches()
	b.buildLogicalStrings()
	b.buildCheckTables()
	w := b.synWords
	b.synActive = make([]bool, nPatches)
	slab := make([]uint64, 3*nPatches*w)
	b.diff = slab[: nPatches*w : nPatches*w]
	b.eventAcc = slab[nPatches*w : 2*nPatches*w : 2*nPatches*w]
	b.condWasActive = slab[2*nPatches*w:]
	b.chkSig = make([]uint32, nPatches)
	for i := range b.chkSig {
		b.chkSig[i] = sigInvalid
	}
	b.chkEpoch = make([]uint64, nPatches)
	b.chkList = make([]*checkList, nPatches)
	b.chkLists = make(map[uint32]*checkList)
	b.eventCount = make([]int, nPatches)
	b.quiet = make([]bool, nPatches)
	b.synBM = decoder.NewSyndromeBitmap(layout.Code)
	if functional {
		b.tab = stab.New(layout.NLQ+2, seed+2)
		b.xGauge = make([]bool, layout.NLQ+2)
	}
	return b
}

// buildLogicalStrings derives lsOff/lsOps by walking the cross of the
// logical supports (surface.Code.LogicalZ, then the rest of LogicalX):
// (0,0), down the left column, then along the top row. A site carries
// the Z part of the basis on the left column and the X part on the top
// row, so (0,0) carries Y in the Y string.
func (b *Backend) buildLogicalStrings() {
	d := b.Code.D
	n := 4*d - 1 // d sites each for Z and X, the whole 2d-1 cross for Y
	offs, ops := make([]int, 0, n), make([]pauli.Pauli, 0, n)
	for _, basis := range [3]pauli.Pauli{pauli.X, pauli.Z, pauli.Y} {
		start := len(offs)
		for k := 0; k < 2*d-1; k++ {
			row, col := k, 0
			if k >= d {
				row, col = 0, k-d+1
			}
			if op := pauli.FromBits(basis.XBit() && row == 0, basis.ZBit() && col == 0); op != pauli.I {
				offs = append(offs, row*d+col)
				ops = append(ops, op)
			}
		}
		b.lsOff[basis] = offs[start:len(offs):len(offs)]
		b.lsOps[basis] = ops[start:len(ops):len(ops)]
	}
}

// buildCheckTables derives the template bit layout, the regular-check
// mask and the data-qubit -> check adjacency from the stabilizer
// templates.
func (b *Backend) buildCheckTables() {
	d := b.Code.D
	nReg := len(b.stabs)
	total := nReg + len(b.condStabs)
	w := (total + 63) / 64
	b.synWords = w
	masks := make([]uint64, 2*w)
	b.regMask, b.hitBits = masks[:w:w], masks[w:]
	// An error component at a data qubit flips exactly the checks of the
	// other basis around it.
	slot := func(st *surface.Stabilizer, q surface.Coord) int {
		if st.Basis == pauli.Z {
			return 2 * (q.Row*d + q.Col)
		}
		return 2*(q.Row*d+q.Col) + 1
	}
	fill := make([]int32, 2*d*d)
	for si := 0; si < total; si++ {
		st := b.template(si)
		if si < nReg {
			b.regMask[si>>6] |= 1 << (si & 63)
		}
		for _, q := range st.Data {
			k := slot(st, q)
			fill[k]++
			b.adjStride = max(b.adjStride, int(fill[k]))
		}
	}
	b.adj = make([]int32, 2*d*d*b.adjStride)
	for i := range b.adj {
		b.adj[i] = -1
	}
	clear(fill)
	for si := 0; si < total; si++ {
		st := b.template(si)
		for _, q := range st.Data {
			k := slot(st, q)
			b.adj[k*b.adjStride+int(fill[k])] = int32(si)
			fill[k]++
		}
	}
}

// template returns check template si: the regular stabilizers first,
// then the seam checks.
func (b *Backend) template(si int) *surface.Stabilizer {
	if si < len(b.stabs) {
		return &b.stabs[si]
	}
	return &b.condStabs[si-len(b.stabs)].Stabilizer
}

// synRow returns patch's words of a per-patch syndrome slab.
func (b *Backend) synRow(slab []uint64, patch int) []uint64 {
	w := b.synWords
	return slab[patch*w : (patch+1)*w : (patch+1)*w]
}

// flipErr multiplies op into the truth frame at patch-local data offset
// off. Every truth-frame write to a syndrome-active patch goes through
// here, so diff stays exact without a per-round parity scan.
//
//xqlint:noalloc per-error hot path of every noise round
func (b *Backend) flipErr(patch, off int, op pauli.Pauli) {
	d := b.Code.D
	b.errFrame.Ops[patch*d*d+off] ^= op
	b.flipParity(b.synRow(b.diff, patch), off, op)
	b.unquiet(patch)
}

// unquiet drops patch's quiet mark and the round-level cache that
// relies on every active patch being quiet.
//
//xqlint:noalloc called per error from flipErr
func (b *Backend) unquiet(patch int) {
	b.quiet[patch] = false
	b.quietEpoch = 0
}

// flipParity flips in diff the bits of the (at most four) checks whose
// noise-free parity an op at data offset off changes: its X component
// flips the adjacent Z checks, its Z component the adjacent X checks.
func (b *Backend) flipParity(diff []uint64, off int, op pauli.Pauli) {
	for c := 0; c < 2; c++ {
		if op&(1<<c) == 0 {
			continue
		}
		k := (2*off + c) * b.adjStride
		for _, si := range b.adj[k : k+b.adjStride] {
			if si < 0 {
				break
			}
			diff[si>>6] ^= 1 << (si & 63)
		}
	}
}

// NumLQ implements ftqc.Machine: data qubits plus the two resource slots.
func (b *Backend) NumLQ() int { return b.Layout.NLQ + 2 }

// frameIndex maps a patch-local data coordinate to the frame index.
func (b *Backend) frameIndex(patch int, q surface.Coord) int {
	d := b.Code.D
	return patch*d*d + q.Row*d + q.Col
}

// patchOf resolves the lattice patch holding logical qubit lq, mapping the
// resource qubits to their reserved positions on demand.
func (b *Backend) patchOf(lq int) int {
	if idx, ok := b.Layout.PatchOfLQ(lq); ok {
		return idx
	}
	switch lq {
	case b.Layout.AncillaLQ:
		b.Layout.MapLogical(lq, b.Layout.AncillaP, surface.InitZero)
		return b.Layout.AncillaP
	case b.Layout.MagicLQ:
		b.Layout.MapLogical(lq, b.Layout.MagicP, surface.InitMagic)
		return b.Layout.MagicP
	}
	//xqlint:ignore nopanic unreachable guard: execLQI maps every LQ before any unit touches it
	panic(fmt.Sprintf("microarch: logical qubit %d is not mapped", lq))
}

// resetPatchFrames clears both frames on a patch (physical re-preparation
// destroys accumulated errors and invalidates old corrections). The wipe
// bypasses flipErr and leaves the patch's diff stale: every caller then
// re-derives the syndrome baseline (activatePatch) or deactivates the
// patch, and activation re-derives diff from the frame.
func (b *Backend) resetPatchFrames(patch int) {
	d := b.Code.D
	clear(b.errFrame.Ops[patch*d*d : (patch+1)*d*d])
	clear(b.pfFrame.Ops[patch*d*d : (patch+1)*d*d])
}

// activatePatch (re)sets the syndrome baseline so no stale detection
// events fire on the first round after (re)initialization.
func (b *Backend) activatePatch(patch int) {
	b.synActive[patch] = true
	b.unquiet(patch)
	clear(b.synRow(b.eventAcc, patch))
	clear(b.synRow(b.condWasActive, patch))
	// No check has been measured yet (last values all zero), so diff is
	// the frame's own parity.
	diff := b.synRow(b.diff, patch)
	clear(diff)
	d := b.Code.D
	for off, op := range b.errFrame.Ops[patch*d*d : (patch+1)*d*d] {
		if op != pauli.I {
			b.flipParity(diff, off, op)
		}
	}
	b.eventCount[patch] = 0
}

// sigInvalid never matches dynSig's packing, forcing a recount.
const sigInvalid = ^uint32(0)

// dynSig packs the dynamic fields check activity depends on into a
// comparable word, so a round can detect "check set unchanged" without
// re-evaluating the mask-generator rules per check.
func dynSig(dyn surface.Dynamic) uint32 {
	s := uint32(0)
	if dyn.ESMOn {
		s |= 1
	}
	if dyn.MergeOn {
		s |= 2
	}
	for i, e := range dyn.ESM {
		s |= uint32(e) << (4 + 4*uint(i))
	}
	return s
}

// checkList is the set of checks active under one dynamic signature.
type checkList struct {
	// active has the live checks' template bits set.
	active []uint64
	// count is the number of live checks: a round's measurements and
	// measurement-noise trials, consumed in template order.
	count int
}

// checksFor resolves (building and memoizing on first sight) the active
// check list of a dynamic state. Lists depend only on the stabilizer
// templates and the signature, so they are shared across patches and
// survive Reset.
func (b *Backend) checksFor(sig uint32, dyn surface.Dynamic) *checkList {
	if cl, ok := b.chkLists[sig]; ok {
		return cl
	}
	cl := &checkList{active: make([]uint64, b.synWords)}
	set := func(si int) {
		cl.active[si>>6] |= 1 << (si & 63)
		cl.count++
	}
	for si, st := range b.stabs {
		if surface.StabilizerActive(b.Code, st, dyn) {
			set(si)
		}
	}
	for ci, cs := range b.condStabs {
		if surface.ConditionalActive(cs, dyn) {
			set(len(b.stabs) + ci)
		}
	}
	b.chkLists[sig] = cl
	return cl
}

// Reset restores the backend to the state NewBackend(layout, p, seed,
// functional) would return — layout re-homed, frames cleared, noise and
// tableau streams rewound to the new seed — without reallocating. It is
// the shot-reuse hook: a reset backend reproduces a fresh backend's run
// bit-for-bit for the same seed, which the shot-equivalence tests pin.
func (b *Backend) Reset(seed int64) {
	b.Layout.Reset()
	// A wholesale frame wipe bypasses flipErr: Reset deactivates every
	// patch, and activation re-derives diff from the frame.
	clear(b.errFrame.Ops)
	clear(b.pfFrame.Ops)
	b.dataNoise.Reseed(seed)
	b.measNoise.Reseed(seed + 1)
	if b.tab != nil {
		b.tab.Reinit(seed + 2)
		clear(b.xGauge)
	}
	clear(b.synActive)
	clear(b.quiet)
	b.quietEpoch, b.quietMeasured = 0, 0
	for i := range b.chkSig {
		b.chkSig[i] = sigInvalid
		b.chkEpoch[i] = 0 // an active patch's epoch is positive: the lattice epoch starts at 1 and only grows
		b.eventCount[i] = 0
	}
	b.dropNextRound = false
}

// SetPhysError retargets both noise models to a new per-site error rate
// (sweep grids reuse one backend across physical-error cells; pair with
// Reset for reproducible streams).
func (b *Backend) SetPhysError(p float64) {
	b.dataNoise.SetProb(p)
	b.measNoise.SetProb(p)
}

// PrepareZero implements ftqc.Machine: initialize logical qubit lq to |0>.
func (b *Backend) PrepareZero(lq int) {
	patch := b.patchOf(lq)
	if b.tab != nil {
		b.resetLogical(lq)
	}
	b.resetPatchFrames(patch)
	b.Layout.EnableESM(patch)
	b.activatePatch(patch)
}

// resetLogical replays on the logical tableau the physical reset of lq's
// block: a Z measurement and X correction of each cross site in turn,
// (0,0), down the left column, then along the top row. The block's
// stabilizer group is its gauge group times the logical group, and only
// this reset depends on the gauge.
//
// Under a Z gauge (PrepareZero, PrepareResource, never prepared) every
// site's outcome follows from site (0,0)'s, which is logical Z: the
// reset is a logical Reset. Under an X gauge (PreparePlus) the left
// column holds the logical qubit as even (|0>) or odd (|1>) Z-parity
// strings. Each of its first d-1 sites draws a uniform outcome; an
// outcome of 1 flips the parity the unmeasured sites must carry, so its
// X correction acts as logical X. The last column site then holds the
// logical qubit itself and resets it, and the top row's d-1 sites, each
// |+> and unentangled, draw without logical effect. These are the
// physical reset's random draws, in the same order.
func (b *Backend) resetLogical(lq int) {
	d := b.Code.D
	x := b.xGauge[lq]
	if x {
		for k := 0; k < d-1; k++ {
			if b.tab.RandomBit() {
				b.tab.X(lq)
			}
		}
	}
	b.tab.Reset(lq)
	if x {
		for k := 0; k < d-1; k++ {
			b.tab.RandomBit()
		}
		b.xGauge[lq] = false
	}
}

// PreparePlus initializes logical qubit lq to |+>. On the freshly reset
// block, the Hadamard on every data qubit acts as a logical Hadamard and
// leaves an X gauge.
func (b *Backend) PreparePlus(lq int) {
	b.PrepareZero(lq)
	if b.tab != nil {
		b.tab.H(lq)
		b.xGauge[lq] = true
	}
}

// PrepareResource implements ftqc.Machine. Only the stabilizer resource
// (AnglePi4, the state |+i>) is preparable in functional mode; preparing
// the pi/8 magic state requires the documented stabilizer substitution.
// In scaling mode (no tableau) both are accepted, since only control
// traffic is simulated.
func (b *Backend) PrepareResource(lq int, a ftqc.Angle) {
	b.PrepareZero(lq)
	if b.tab == nil {
		return
	}
	if a != ftqc.AnglePi4 {
		//xqlint:ignore nopanic API-misuse guard: functional mode requires SubstituteStabilizer, documented on Compile
		panic("microarch: pi/8 magic states are not stabilizer-preparable; run the circuit through SubstituteStabilizer for functional validation")
	}
	// |+i> = +1 eigenstate of logical Y: measure Y_L on |0_L> and fix the
	// sign with a logical Z when the -1 branch is drawn.
	b.mTqs, b.mTops = append(b.mTqs[:0], lq), append(b.mTops[:0], pauli.Y)
	if out, _ := b.tab.MeasureProduct(b.mTqs, b.mTops); out {
		b.tab.Z(lq)
	}
}

// frameFlip computes whether a frame anticommutes with the operator
// string (qs in frame indexing).
func frameFlip(f pauli.Frame, qs []int, ops []pauli.Pauli) bool {
	flips := 0
	for i, q := range qs {
		if !f.Ops[q].Commutes(ops[i]) {
			flips++
		}
	}
	return flips%2 == 1
}

// MeasureProduct implements ftqc.Machine: measure a Hermitian Pauli
// product over the machine's logical qubits. The returned bit is the
// *corrected* outcome: tableau ideal XOR truth-frame flip XOR
// estimate-frame correction (the LMU's virtual error correction). Raw and
// correction parts are also available via MeasureProductDetail.
func (b *Backend) MeasureProduct(pr pauli.Product) bool {
	out, _, _ := b.MeasureProductDetail(pr, nil)
	return out
}

// MeasureProductDetail measures the logical product and additionally
// reports the uncorrected physical outcome and the estimate-frame
// correction bit. extraFramePatches lists intermediate patches whose
// pass-through error strings also gate the outcome (merged PPMs).
func (b *Backend) MeasureProductDetail(pr pauli.Product, extraFramePatches []int) (corrected, raw, pfFlip bool) {
	if pr.Len() != b.NumLQ() {
		//xqlint:ignore nopanic unreachable guard: the pipeline builds products over exactly NumLQ qubits
		panic("microarch: product width mismatch")
	}
	d := b.Code.D
	tqs, tops := b.mTqs[:0], b.mTops[:0]
	fqs, fops := b.mFqs[:0], b.mFops[:0]
	for lq, p := range pr.Ops {
		if p == pauli.I {
			continue
		}
		tqs, tops = append(tqs, lq), append(tops, p)
		// The frame sees the logical operator's physical string on lq's
		// patch.
		base := b.patchOf(lq) * d * d
		for _, off := range b.lsOff[p] {
			fqs = append(fqs, base+off)
		}
		fops = append(fops, b.lsOps[p]...)
	}
	// Pass-through sensitivity: a Z-type string through each intermediate
	// routing patch of the merge (the correlation surface crossing it).
	for _, patch := range extraFramePatches {
		col := d / 2
		for row := 0; row < d; row++ {
			fqs = append(fqs, b.frameIndex(patch, surface.Coord{Row: row, Col: col}))
			fops = append(fops, pauli.Z)
		}
	}
	b.mTqs, b.mTops, b.mFqs, b.mFops = tqs, tops, fqs, fops
	ideal := false
	if b.tab != nil {
		ideal, _ = b.tab.MeasureProduct(tqs, tops)
	}
	raw = ideal != frameFlip(b.errFrame, fqs, fops)
	pfFlip = frameFlip(b.pfFrame, fqs, fops)
	return raw != pfFlip, raw, pfFlip
}

// InjectRoundNoise applies one round of Pauli noise to the data qubits of
// every ESM-active patch: d^2 X trials then d^2 Z trials per patch, in
// patch order. A round that draws no hit costs one noise.Skip over all
// its trials. Otherwise each patch draws its 2d^2 trials with one
// AppendSites, whose sites below d^2 are X flips and the rest Z flips:
// that consumes the stream exactly as an X call and a Z call of d^2
// trials each would.
func (b *Backend) InjectRoundNoise() {
	d := b.Code.D
	active := b.Layout.ActiveESMPatches()
	if b.dataNoise.Skip(2 * d * d * len(active)) {
		return
	}
	for _, patch := range active {
		b.siteBuf = b.dataNoise.AppendSites(b.siteBuf[:0], 2*d*d)
		for _, site := range b.siteBuf {
			if site < d*d {
				b.flipErr(patch, site, pauli.X)
			} else {
				b.flipErr(patch, site-d*d, pauli.Z)
			}
		}
	}
}

// DropNextRoundEvents marks the next syndrome round as lost to a fault:
// its measurements happen (the physical schedule is unaffected) but the
// detection events they would contribute are discarded, exactly as if
// the syndrome payload never reached the error decode unit. The fault
// injector (internal/faults) uses this to model syndrome-buffer
// drop-oldest overflow and link-retry exhaustion.
func (b *Backend) DropNextRoundEvents() { b.dropNextRound = true }

// MeasureSyndromesRound runs one syndrome round; final marks the last
// round of a decode window, whose measurement outcomes are cross-checked
// against the transversal data-qubit readout that follows in lattice
// surgery and are therefore modeled noise-free. Without this, a
// measurement flip in the window's last round masquerades as a data error
// at the decode boundary and corrupts logical readouts at a rate the code
// distance cannot suppress (the standard phenomenological-model boundary
// condition).
//
// A round costs O(words + errors) per patch: a live check's event is its
// diff bit XOR its measurement flip, after which diff holds just the
// flip. Measurement flips are drawn with one AppendSites over the live
// checks, which consumes exactly the trials one Hit per check in
// template order would, so every event matches a full parity scan.
//
// A quiet patch (see Backend.quiet) whose checks draw no flip is a fixed
// point of the round and costs one noise.Skip; a round at quietEpoch,
// where every active patch is quiet, costs one Skip over all the checks.
// A failed Skip consumes nothing, so the per-patch draws that follow are
// the ones the dense round makes.
func (b *Backend) MeasureSyndromesRound(final bool) int {
	dropped := b.dropNextRound
	b.dropNextRound = false
	epoch := b.Layout.ESMEpoch()
	if epoch == b.quietEpoch && (final || b.measNoise.Skip(b.quietMeasured)) {
		return b.quietMeasured
	}
	measured := 0
	allQuiet := true
	hits := b.hitBits
	for _, patch := range b.Layout.ActiveESMPatches() {
		if !b.synActive[patch] {
			b.activatePatch(patch)
		}
		was := b.synRow(b.condWasActive, patch)
		if pe := b.Layout.PatchEpoch(patch); b.chkEpoch[patch] != pe {
			b.chkEpoch[patch] = pe
			dyn := b.Layout.Patch(patch).Dynamic
			if sig := dynSig(dyn); sig != b.chkSig[patch] {
				b.chkSig[patch] = sig
				b.chkList[patch] = b.checksFor(sig, dyn)
				// Seam checks that just went inactive re-baseline on their
				// next activation.
				for i, act := range b.chkList[patch].active {
					was[i] &= act
				}
				b.quiet[patch] = false
			}
		}
		cl := b.chkList[patch]
		measured += cl.count
		if b.quiet[patch] && (final || b.measNoise.Skip(cl.count)) {
			continue
		}
		flips := 0
		if !final {
			b.siteBuf = b.measNoise.AppendSites(b.siteBuf[:0], cl.count)
			selectBits(hits, cl.active, b.siteBuf)
			flips = len(b.siteBuf)
		}
		diff := b.synRow(b.diff, patch)
		acc := b.synRow(b.eventAcc, patch)
		for i, act := range cl.active {
			// Seam checks fire only once measured since switching on.
			ev := (diff[i]&act ^ hits[i]) & (b.regMask[i] | was[i])
			diff[i] = diff[i]&^act | hits[i]
			was[i] |= act
			hits[i] = 0
			if ev != 0 && !dropped {
				b.eventCount[patch] += bits.OnesCount64(ev&^acc[i]) - bits.OnesCount64(ev&acc[i])
				acc[i] ^= ev
			}
		}
		// With no flip, diff is now clear on every live check and every
		// live check has been measured: the patch is quiet.
		b.quiet[patch] = flips == 0
		allQuiet = allQuiet && flips == 0
	}
	b.quietEpoch, b.quietMeasured = 0, measured
	if allQuiet {
		b.quietEpoch = epoch
	}
	return measured
}

// selectBits sets in dst, for every j in idx (ascending, each below the
// mask's popcount), the j-th set bit of mask counting up from bit 0 of
// mask[0].
//
//xqlint:noalloc per-round measurement-flip placement
func selectBits(dst, mask []uint64, idx []int) {
	w, below := 0, 0
	for _, j := range idx {
		for n := bits.OnesCount64(mask[w]); j-below >= n; n = bits.OnesCount64(mask[w]) {
			below += n
			w++
		}
		m := mask[w]
		for k := j - below; k > 0; k-- {
			m &= m - 1
		}
		dst[w] |= m & -m
	}
}

// WindowDecode is the per-window decoding outcome that
// decoder.WindowPrices prices. Matches are split per basis because
// Optimization #1's priority-encoder EDU decodes the X- and Z-cell arrays
// in parallel, while the baseline round-robin token chain is shared.
type WindowDecode struct {
	MatchesZ    []decoder.Match // Z-plaquette (X-error) matches
	MatchesX    []decoder.Match // X-plaquette (Z-error) matches
	ActiveCells int             // EDU cells participating (all active ancillas)
	Windows     int             // patch windows processed (patch-sliding slides)
	Syndromes   int             // non-trivial syndrome count
	Flips       int             // identified data-qubit errors
}

// FinishWindow decodes the accumulated detection events of every active
// patch and folds the identified errors into the estimate frame. The
// event accumulators reset for the next window. The returned value's
// match slices are backed by reusable buffers and stay valid only until
// the next FinishWindow on this backend; callers that retain them across
// windows must copy.
func (b *Backend) FinishWindow() WindowDecode {
	var out WindowDecode
	out.MatchesZ = b.wdMatchesZ[:0]
	out.MatchesX = b.wdMatchesX[:0]
	nReg := len(b.stabs)
	for _, patch := range b.Layout.ActiveESMPatches() {
		if !b.synActive[patch] {
			continue
		}
		out.Windows++
		out.ActiveCells += nReg
		cl := b.chkList[patch]
		if cl == nil || b.eventCount[patch] == 0 {
			// No syndrome round has run on this patch yet, or the window
			// ended with every accumulator clear; only the window
			// bookkeeping above applies.
			continue
		}
		b.eventCount[patch] = 0 // everything pending is consumed below
		acc := b.synRow(b.eventAcc, patch)

		// Seam-check events: counted into the decode load (one short
		// boundary-matched token each — the cross-patch pairing itself is
		// subsumed by the joint logical measurement; see DESIGN.md §5),
		// but they contribute no per-patch corrections. Events can only be
		// pending for checks active during the window's rounds, so the
		// cached active mask covers every set accumulator.
		for i, a := range acc {
			for m := a & cl.active[i] &^ b.regMask[i]; m != 0; m &= m - 1 {
				cs := &b.condStabs[i<<6+bits.TrailingZeros64(m)-nReg]
				out.Syndromes++
				match := decoder.Match{From: cs.Anc, ToBoundary: true, Steps: 1}
				if cs.Basis == pauli.Z {
					out.MatchesZ = append(out.MatchesZ, match)
				} else {
					out.MatchesX = append(out.MatchesX, match)
				}
			}
		}
		for _, basis := range [2]pauli.Pauli{pauli.Z, pauli.X} {
			// Bit-pack the window's detection events; the ascending scan
			// fills the bitmap in the hardware's row-major cell order.
			b.synBM.Reset()
			nontrivial := 0
			for i, a := range acc {
				for m := a & cl.active[i] & b.regMask[i]; m != 0; m &= m - 1 {
					if st := &b.stabs[i<<6+bits.TrailingZeros64(m)]; st.Basis == basis {
						b.synBM.Set(st.Anc)
						nontrivial++
					}
				}
			}
			if nontrivial == 0 {
				continue
			}
			out.Syndromes += nontrivial
			decoder.DecodePatchInto(b.Code, basis, b.synBM, &b.decSc, &b.decRes)
			res := &b.decRes
			if basis == pauli.Z {
				out.MatchesZ = append(out.MatchesZ, res.Matches...)
			} else {
				out.MatchesX = append(out.MatchesX, res.Matches...)
			}
			out.Flips += len(res.Flips)
			// Z-type plaquettes identify X errors and vice versa.
			errType := pauli.X
			if basis == pauli.X {
				errType = pauli.Z
			}
			for _, q := range res.Flips {
				b.pfFrame.Ops[b.frameIndex(patch, q)] ^= errType
			}
		}
		for i, act := range cl.active {
			acc[i] &^= act
		}
	}
	b.wdMatchesZ = out.MatchesZ
	b.wdMatchesX = out.MatchesX
	return out
}

// InitIntermediates prepares the routing patches of a merge region: fresh
// |+> data qubits (frames cleared) and a fresh syndrome baseline.
func (b *Backend) InitIntermediates(region []int) int {
	count := 0
	for _, patch := range region {
		if b.Layout.Patch(patch).Static.Type != surface.Intermediate {
			continue
		}
		b.resetPatchFrames(patch)
		b.activatePatch(patch)
		count++
	}
	return count
}

// MeasureIntermediates measures out the routing patches after a split,
// clearing their frames and deactivating their windows. It returns the
// number of patches processed.
func (b *Backend) MeasureIntermediates(region []int) int {
	count := 0
	for _, patch := range region {
		if b.Layout.Patch(patch).Static.Type != surface.Intermediate {
			continue
		}
		b.resetPatchFrames(patch)
		b.synActive[patch] = false
		b.unquiet(patch)
		count++
	}
	return count
}

// DiscardLogical releases logical qubit lq's patch (after a destructive
// logical measurement).
func (b *Backend) DiscardLogical(lq int) {
	patch, ok := b.Layout.PatchOfLQ(lq)
	if !ok {
		return
	}
	b.resetPatchFrames(patch)
	b.synActive[patch] = false
	b.unquiet(patch)
	b.Layout.UnmapLogical(lq)
	b.Layout.DisableESM(patch)
}
