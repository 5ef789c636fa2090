package microarch

import (
	"fmt"
	"slices"
	"testing"

	"xqsim/internal/decoder"
	"xqsim/internal/noise"
	"xqsim/internal/pauli"
	"xqsim/internal/surface"
	"xqsim/internal/xrand"
)

// scanRef is the frozen dense round the incremental, quiet-skipping
// backend replaced, kept as the differential reference. Its noise round
// draws two AppendSites calls per ESM-active patch (X then Z over the
// patch's d^2 sites) from its own data-noise model into its own truth
// frame. Its syndrome round re-derives each live check's parity from
// that frame and draws one Hit per live check in template order
// (regular checks, then seam checks) from its own measurement-noise
// model. Both models are seeded like the backend's. It keeps its own
// last-measured values, accumulators, seam liveness and pending-event
// counts; it reads the backend's layout and templates but never its
// frames or syndrome state.
//
// The scan evaluates the mask-generator rules every round; the backend's
// per-signature check lists only memoize that evaluation.
type scanRef struct {
	b     *Backend
	data  *noise.Model
	meas  *noise.Model
	frame pauli.Frame
	sites []int
	// active mirrors synActive: runSyndromeDifferential reports every
	// activation and deactivation the backend performs outside a round.
	active []bool
	// prev, acc and live are indexed by template bit (regular checks,
	// then seam checks); live is the check set of the patch's last round,
	// which FinishWindow decodes over.
	prev, acc, live [][]bool
	wasActive       [][]bool // per seam check
	eventCount      []int
	dropNext        bool

	synBM *decoder.SyndromeBitmap
	sc    decoder.Scratch
	res   decoder.Result
}

func newScanRef(b *Backend, p float64, seed int64) *scanRef {
	n := b.Layout.NumPatches()
	total := len(b.stabs) + len(b.condStabs)
	r := &scanRef{
		b:          b,
		data:       noise.NewModel(p, seed),
		meas:       noise.NewModel(p, seed+1),
		frame:      pauli.NewFrame(len(b.errFrame.Ops)),
		active:     make([]bool, n),
		eventCount: make([]int, n),
		synBM:      decoder.NewSyndromeBitmap(b.Code),
	}
	for i := 0; i < n; i++ {
		r.prev = append(r.prev, make([]bool, total))
		r.acc = append(r.acc, make([]bool, total))
		r.live = append(r.live, make([]bool, total))
		r.wasActive = append(r.wasActive, make([]bool, len(b.condStabs)))
	}
	return r
}

func (r *scanRef) reset(seed int64) {
	r.data.Reseed(seed)
	r.meas.Reseed(seed + 1)
	clear(r.frame.Ops)
	clear(r.active)
	clear(r.eventCount)
	r.dropNext = false
}

func (r *scanRef) activate(patch int) {
	r.active[patch] = true
	clear(r.prev[patch])
	clear(r.acc[patch])
	clear(r.wasActive[patch])
	r.eventCount[patch] = 0
}

// wipe clears patch's truth frame (a physical re-preparation or
// measure-out).
func (r *scanRef) wipe(patch int) {
	d := r.b.Code.D
	clear(r.frame.Ops[patch*d*d : (patch+1)*d*d])
}

// prepare mirrors PrepareZero, PreparePlus and InitIntermediates: a
// wiped frame and a fresh syndrome baseline.
func (r *scanRef) prepare(patch int) {
	r.wipe(patch)
	r.activate(patch)
}

// measureOut mirrors MeasureIntermediates and DiscardLogical.
func (r *scanRef) measureOut(patch int) {
	r.wipe(patch)
	r.active[patch] = false
}

// injectLogical writes basis's logical string into patch.
func (r *scanRef) injectLogical(patch int, basis pauli.Pauli) {
	d := r.b.Code.D
	for i, off := range r.b.lsOff[basis] {
		r.frame.Ops[patch*d*d+off] ^= r.b.lsOps[basis][i]
	}
}

// injectNoise is the dense noise round: per ESM-active patch, in patch
// order, one AppendSites over the d^2 sites for X flips, then one for Z.
func (r *scanRef) injectNoise() {
	d := r.b.Code.D
	for _, patch := range r.b.Layout.ActiveESMPatches() {
		for _, op := range [2]pauli.Pauli{pauli.X, pauli.Z} {
			r.sites = r.data.AppendSites(r.sites[:0], d*d)
			for _, off := range r.sites {
				r.frame.Ops[patch*d*d+off] ^= op
			}
		}
	}
}

// parity is template si's noise-free parity on patch's truth frame.
func (r *scanRef) parity(patch, si int) bool {
	b := r.b
	d := b.Code.D
	st := b.template(si)
	par := false
	for _, q := range st.Data {
		if !r.frame.Ops[patch*d*d+q.Row*d+q.Col].Commutes(st.Basis) {
			par = !par
		}
	}
	return par
}

func (r *scanRef) round(final bool) int {
	b := r.b
	measured := 0
	dropped := r.dropNext
	r.dropNext = false
	for _, patch := range b.Layout.ActiveESMPatches() {
		if !r.active[patch] {
			r.activate(patch)
		}
		dyn := b.Layout.Patch(patch).Dynamic
		prev, acc, live := r.prev[patch], r.acc[patch], r.live[patch]
		wasActive := r.wasActive[patch]
		parityOf := func(si int) bool {
			par := r.parity(patch, si)
			if !final && r.meas.Hit() {
				par = !par
			}
			return par
		}
		toggle := func(si int) {
			acc[si] = !acc[si]
			if acc[si] {
				r.eventCount[patch]++
			} else {
				r.eventCount[patch]--
			}
		}
		for si, st := range b.stabs {
			live[si] = surface.StabilizerActive(b.Code, st, dyn)
			if !live[si] {
				continue
			}
			par := parityOf(si)
			if par != prev[si] && !dropped {
				toggle(si)
			}
			prev[si] = par
			measured++
		}
		// Seam checks: only while their side is a Z&X seam; re-baseline
		// on activation.
		for ci, cs := range b.condStabs {
			si := len(b.stabs) + ci
			live[si] = surface.ConditionalActive(cs, dyn)
			if !live[si] {
				wasActive[ci] = false
				continue
			}
			par := parityOf(si)
			if wasActive[ci] && par != prev[si] && !dropped {
				toggle(si)
			}
			prev[si] = par
			wasActive[ci] = true
			measured++
		}
	}
	return measured
}

// finishWindow decodes the reference accumulators exactly as
// Backend.FinishWindow does, without touching the estimate frame.
func (r *scanRef) finishWindow() WindowDecode {
	b := r.b
	var out WindowDecode
	for _, patch := range b.Layout.ActiveESMPatches() {
		if !r.active[patch] {
			continue
		}
		out.Windows++
		out.ActiveCells += len(b.stabs)
		if r.eventCount[patch] == 0 {
			continue
		}
		r.eventCount[patch] = 0
		acc, live := r.acc[patch], r.live[patch]
		for ci, cs := range b.condStabs {
			si := len(b.stabs) + ci
			if !live[si] || !acc[si] {
				continue
			}
			out.Syndromes++
			m := decoder.Match{From: cs.Anc, ToBoundary: true, Steps: 1}
			if cs.Basis == pauli.Z {
				out.MatchesZ = append(out.MatchesZ, m)
			} else {
				out.MatchesX = append(out.MatchesX, m)
			}
			acc[si] = false
		}
		for _, basis := range [2]pauli.Pauli{pauli.Z, pauli.X} {
			r.synBM.Reset()
			nontrivial := 0
			for si, st := range b.stabs {
				if live[si] && st.Basis == basis && acc[si] {
					r.synBM.Set(st.Anc)
					nontrivial++
				}
			}
			if nontrivial == 0 {
				continue
			}
			out.Syndromes += nontrivial
			decoder.DecodePatchInto(b.Code, basis, r.synBM, &r.sc, &r.res)
			if basis == pauli.Z {
				out.MatchesZ = append(out.MatchesZ, r.res.Matches...)
			} else {
				out.MatchesX = append(out.MatchesX, r.res.Matches...)
			}
			out.Flips += len(r.res.Flips)
		}
		for si := range b.stabs {
			if live[si] {
				acc[si] = false
			}
		}
	}
	return out
}

// compare checks the backend's truth frame and syndrome state against
// the reference: every frame site, activity, pending-event counts, every
// accumulator bit, seam liveness, and the diff invariant (last measured
// value XOR noise-free parity).
func (r *scanRef) compare() error {
	b := r.b
	for i, op := range r.frame.Ops {
		if b.errFrame.Ops[i] != op {
			return fmt.Errorf("truth frame site %d: %v, reference %v", i, b.errFrame.Ops[i], op)
		}
	}
	total := len(b.stabs) + len(b.condStabs)
	bit := func(slab []uint64, patch, si int) bool {
		return b.synRow(slab, patch)[si>>6]>>(si&63)&1 == 1
	}
	for patch := range r.active {
		if r.active[patch] != b.synActive[patch] {
			return fmt.Errorf("patch %d: synActive %v, reference %v", patch, b.synActive[patch], r.active[patch])
		}
		if !r.active[patch] {
			continue
		}
		if r.eventCount[patch] != b.eventCount[patch] {
			return fmt.Errorf("patch %d: eventCount %d, reference %d", patch, b.eventCount[patch], r.eventCount[patch])
		}
		for si := 0; si < total; si++ {
			if got := bit(b.eventAcc, patch, si); got != r.acc[patch][si] {
				return fmt.Errorf("patch %d check %d: accumulator %v, reference %v", patch, si, got, r.acc[patch][si])
			}
			if want := r.prev[patch][si] != r.parity(patch, si); bit(b.diff, patch, si) != want {
				return fmt.Errorf("patch %d check %d: diff %v, reference last value XOR parity %v", patch, si, !want, want)
			}
			if ci := si - len(b.stabs); ci >= 0 && bit(b.condWasActive, patch, si) != r.wasActive[patch][ci] {
				return fmt.Errorf("patch %d seam check %d: wasActive %v, reference %v", patch, ci, !r.wasActive[patch][ci], r.wasActive[patch][ci])
			}
		}
	}
	return nil
}

func sameWindowDecode(got, want WindowDecode) bool {
	return slices.Equal(got.MatchesZ, want.MatchesZ) && slices.Equal(got.MatchesX, want.MatchesX) &&
		got.ActiveCells == want.ActiveCells && got.Windows == want.Windows &&
		got.Syndromes == want.Syndromes && got.Flips == want.Flips
}

// runSyndromeDifferential drives a backend and the dense reference in
// lockstep through a random operation sequence that reaches every writer
// of the truth frame and every syndrome-state transition: preparation,
// merge and split windows (with the routing patches measured out before
// or after the split), discards, injected logical errors, noise-only
// backpressure rounds, dropped, final and ordinary rounds, window decodes
// and Reset.
func runSyndromeDifferential(nLQ, d int, p float64, seed int64, steps int) error {
	layout := surface.NewPPRLayout(nLQ, d)
	b := NewBackend(layout, p, seed, seed%2 == 0)
	ref := newScanRef(b, p, seed)
	rng := xrand.New(seed ^ 0x5eed)
	var region []int // the open merge region, nil outside a merge

	intermediates := func(region []int, fn func(patch int)) {
		for _, patch := range region {
			if layout.Patch(patch).Static.Type == surface.Intermediate {
				fn(patch)
			}
		}
	}
	bases := [3]pauli.Pauli{pauli.X, pauli.Z, pauli.Y}

	for step := 0; step < steps; step++ {
		var what string
		switch op := rng.Intn(100); {
		case op < 44:
			final := rng.Intn(5) == 0
			what = fmt.Sprintf("round(final=%v)", final)
			b.InjectRoundNoise()
			ref.injectNoise()
			got, want := b.MeasureSyndromesRound(final), ref.round(final)
			if got != want {
				return fmt.Errorf("step %d %s: measured %d, reference %d", step, what, got, want)
			}
		case op < 54:
			what = "FinishWindow"
			want := ref.finishWindow()
			if got := b.FinishWindow(); !sameWindowDecode(got, want) {
				return fmt.Errorf("step %d FinishWindow: %+v, reference %+v", step, got, want)
			}
		case op < 59:
			what = "backpressure round"
			b.InjectRoundNoise()
			ref.injectNoise()
		case op < 63:
			what = "DropNextRoundEvents"
			b.DropNextRoundEvents()
			ref.dropNext = true
		case op < 73:
			if region != nil && rng.Intn(3) == 0 {
				// The routing patches are measured out while still merged:
				// the rounds before the split re-activate them.
				what = "measure out before split"
				intermediates(region, ref.measureOut)
				b.MeasureIntermediates(region)
				break
			}
			if region != nil {
				what = "split"
				layout.ApplySplit(region)
				intermediates(region, ref.measureOut)
				b.MeasureIntermediates(region)
				region = nil
				break
			}
			lqs := layout.MappedLQs()
			if len(lqs) < 2 {
				continue
			}
			i, j := rng.Intn(len(lqs)), rng.Intn(len(lqs)-1)
			if j >= i {
				j++
			}
			p0, _ := layout.PatchOfLQ(lqs[i])
			p1, _ := layout.PatchOfLQ(lqs[j])
			r, err := layout.MergeRegion([]int{p0, p1})
			if err != nil {
				continue
			}
			what = fmt.Sprintf("merge %v", r)
			region = r
			layout.ApplyMerge(region)
			b.InitIntermediates(region)
			intermediates(region, ref.prepare)
		case op < 81:
			lqs := layout.MappedLQs()
			if len(lqs) == 0 {
				continue
			}
			lq, basis := lqs[rng.Intn(len(lqs))], bases[rng.Intn(3)]
			what = fmt.Sprintf("InjectLogicalError(%d, %v)", lq, basis)
			b.InjectLogicalError(lq, basis)
			patch, _ := layout.PatchOfLQ(lq)
			ref.injectLogical(patch, basis)
		case op < 89:
			// Any mapped qubit, or a resource qubit mapped on demand.
			lqs := append(layout.MappedLQs(), layout.AncillaLQ, layout.MagicLQ)
			lq := lqs[rng.Intn(len(lqs))]
			if rng.Intn(2) == 0 {
				what = fmt.Sprintf("PrepareZero(%d)", lq)
				b.PrepareZero(lq)
			} else {
				what = fmt.Sprintf("PreparePlus(%d)", lq)
				b.PreparePlus(lq)
			}
			patch, _ := layout.PatchOfLQ(lq)
			ref.prepare(patch)
		case op < 97:
			if region != nil {
				continue
			}
			lq := layout.AncillaLQ + rng.Intn(2)
			if rng.Intn(4) == 0 {
				lq = rng.Intn(nLQ)
			}
			patch, ok := layout.PatchOfLQ(lq)
			if !ok {
				continue
			}
			what = fmt.Sprintf("DiscardLogical(%d)", lq)
			b.DiscardLogical(lq)
			ref.measureOut(patch)
		default:
			s := int64(rng.Intn(1 << 20))
			what = fmt.Sprintf("Reset(%d)", s)
			b.Reset(s)
			ref.reset(s)
			region = nil
		}
		if err := ref.compare(); err != nil {
			return fmt.Errorf("step %d after %s: %v", step, what, err)
		}
	}
	return nil
}

// TestIncrementalSyndromesMatchFullScan runs the backend's incremental,
// quiet-skipping noise and syndrome rounds in lockstep with the frozen
// dense noise round and full parity scan over random operation
// sequences: every truth-frame site, every round's measurement count,
// every accumulator bit, every pending-event count and every window
// decode must agree. d=9 is the first distance whose check templates
// span two words; at p=0.0005 most rounds skip whole.
func TestIncrementalSyndromesMatchFullScan(t *testing.T) {
	steps := 600
	if testing.Short() {
		steps = 200
	}
	for _, d := range []int{3, 5, 7, 9} {
		for _, p := range []float64{0.0005, 0.001, 0.01, 0.05} {
			for trial := 0; trial < 6; trial++ {
				nLQ := 2 + trial%3
				seed := int64(1000*d + 100*trial + int(p*1000))
				if err := runSyndromeDifferential(nLQ, d, p, seed, steps); err != nil {
					t.Fatalf("d=%d p=%v nLQ=%d seed=%d: %v", d, p, nLQ, seed, err)
				}
			}
		}
	}
}

// TestSyndromeRoundSteadyStateAllocs pins the round's zero-allocation
// steady state on the MeasureRates layout (4 logical qubits, d=15,
// scaling mode, p=0.1%). The warm-up runs a merge/split window first, so
// every check signature the measured loops meet is already memoized.
func TestSyndromeRoundSteadyStateAllocs(t *testing.T) {
	const d = 15
	layout := surface.NewPPRLayout(4, d)
	b := NewBackend(layout, 0.001, 7, false)
	for q := 0; q < 4; q++ {
		b.PrepareZero(q)
	}
	p0, _ := layout.PatchOfLQ(0)
	p1, _ := layout.PatchOfLQ(1)
	region, err := layout.MergeRegion([]int{p0, p1})
	if err != nil {
		t.Fatal(err)
	}
	round := func() {
		b.InjectRoundNoise()
		b.MeasureSyndromesRound(false)
	}
	window := func() {
		layout.ApplyMerge(region)
		b.InitIntermediates(region)
		for r := 0; r < d; r++ {
			b.InjectRoundNoise()
			b.MeasureSyndromesRound(r == d-1)
		}
		b.FinishWindow()
		layout.ApplySplit(region)
		b.MeasureIntermediates(region)
		for r := 0; r < d; r++ {
			b.InjectRoundNoise()
			b.MeasureSyndromesRound(r == d-1)
		}
		b.FinishWindow()
	}
	for i := 0; i < 4; i++ { // warm up: memoize signatures, grow buffers
		window()
	}
	if allocs := testing.AllocsPerRun(500, round); allocs != 0 {
		t.Errorf("steady-state round allocates %v times, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(20, window); allocs != 0 {
		t.Errorf("steady-state merge/split window allocates %v times, want 0", allocs)
	}
}
