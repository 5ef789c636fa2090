package microarch

import (
	"fmt"
	"slices"
	"testing"

	"xqsim/internal/ftqc"
	"xqsim/internal/pauli"
	"xqsim/internal/stab"
	"xqsim/internal/surface"
	"xqsim/internal/xrand"
)

// crossRef is the frozen physical-cross tableau the logical tableau
// replaced, kept as the differential reference. For each of the machine's
// nLQ+2 logical-qubit blocks it tracks the 2d-1 sites of the canonical
// logical-Z and logical-X supports, in LogicalZ-then-LogicalX order. It
// resets and Hadamards a block site by site, measures products of the
// supports' physical strings, and skips the reset of a virgin block (one
// untouched since it was last |0...0>). It is seeded like the backend's
// tableau and never reads it.
type crossRef struct {
	tab   *stab.Tableau
	block int   // tracked sites per block
	off   []int // compact index (mod block) -> patch-local offset
	idx   []int // patch-local offset -> compact index, -1 untracked
	zSup  []surface.Coord
	xSup  []surface.Coord
	d     int
	// virgin[lq]: block lq is |0...0>, so its reset is skipped.
	virgin []bool
	// plus[lq]: block lq was last prepared by preparePlus.
	plus []bool
}

func newCrossRef(code surface.Code, nBlocks int, seed int64) *crossRef {
	d := code.D
	r := &crossRef{zSup: code.LogicalZ(), xSup: code.LogicalX(), d: d, idx: make([]int, d*d)}
	for i := range r.idx {
		r.idx[i] = -1
	}
	for _, sup := range [2][]surface.Coord{r.zSup, r.xSup} {
		for _, c := range sup {
			if off := c.Row*d + c.Col; r.idx[off] < 0 {
				r.idx[off] = len(r.off)
				r.off = append(r.off, off)
			}
		}
	}
	r.block = len(r.off)
	r.tab = stab.New(nBlocks*r.block, seed+2)
	r.virgin = make([]bool, nBlocks)
	r.plus = make([]bool, nBlocks)
	r.reset(seed)
	return r
}

func (r *crossRef) reset(seed int64) {
	r.tab.Reinit(seed + 2)
	for i := range r.virgin {
		r.virgin[i] = true
		r.plus[i] = false
	}
}

func (r *crossRef) prepareZero(lq int) {
	if !r.virgin[lq] {
		for k := 0; k < r.block; k++ {
			r.tab.Reset(lq*r.block + k)
		}
	}
	r.virgin[lq] = true
	r.plus[lq] = false
}

func (r *crossRef) preparePlus(lq int) {
	r.prepareZero(lq)
	for k := 0; k < r.block; k++ {
		r.tab.H(lq*r.block + k)
	}
	r.virgin[lq] = false
	r.plus[lq] = true
}

func (r *crossRef) prepareResource(lq int) {
	r.prepareZero(lq)
	r.virgin[lq] = false
	qs, ops := r.appendLogicalOps(nil, nil, lq, pauli.Y)
	if out, _ := r.tab.MeasureProduct(qs, ops); out {
		zqs, zops := r.appendLogicalOps(nil, nil, lq, pauli.Z)
		for i, q := range zqs {
			r.tab.ApplyPauli(q, zops[i])
		}
	}
}

// appendLogicalOps appends lq's logical operator string as compact
// tableau indices, merging the Z and X supports' overlap at (0,0) by
// Pauli multiplication.
func (r *crossRef) appendLogicalOps(qs []int, ops []pauli.Pauli, lq int, basis pauli.Pauli) ([]int, []pauli.Pauli) {
	start := len(qs)
	add := func(coords []surface.Coord, p pauli.Pauli) {
		for _, c := range coords {
			idx := lq*r.block + r.idx[c.Row*r.d+c.Col]
			found := false
			for i := start; i < len(qs); i++ {
				if qs[i] == idx {
					ops[i] = ops[i].Mul(p)
					found = true
					break
				}
			}
			if !found {
				qs = append(qs, idx)
				ops = append(ops, p)
			}
		}
	}
	if basis.ZBit() {
		add(r.zSup, pauli.Z)
	}
	if basis.XBit() {
		add(r.xSup, pauli.X)
	}
	return qs, ops
}

// frameString is the cross's string of logical basis in patch-local
// offsets.
func (r *crossRef) frameString(basis pauli.Pauli) ([]int, []pauli.Pauli) {
	qs, ops := r.appendLogicalOps(nil, nil, 0, basis)
	for i, q := range qs {
		qs[i] = r.off[q]
	}
	return qs, ops
}

// measure returns the ideal outcome of the logical product pr and the
// product's frame string on the backend's lattice.
func (r *crossRef) measure(b *Backend, pr pauli.Product) (ideal bool, fqs []int, fops []pauli.Pauli) {
	var qs []int
	var ops []pauli.Pauli
	d := b.Code.D
	for lq, p := range pr.Ops {
		if p == pauli.I {
			continue
		}
		r.virgin[lq] = false
		qs, ops = r.appendLogicalOps(qs, ops, lq, p)
		patch, _ := b.Layout.PatchOfLQ(lq)
		offs, fo := r.frameString(p)
		for i, off := range offs {
			fqs = append(fqs, patch*d*d+off)
			fops = append(fops, fo[i])
		}
	}
	ideal, _ = r.tab.MeasureProduct(qs, ops)
	return ideal, fqs, fops
}

// entangled reports whether logical qubit lq of the backend's tableau has
// a mixed reduced state: no single-qubit Pauli on it is a stabilizer.
func entangled(t *stab.Tableau, lq int) bool {
	for _, p := range [3]pauli.Pauli{pauli.X, pauli.Y, pauli.Z} {
		if t.ExpectProduct([]int{lq}, []pauli.Pauli{p}) != 0 {
			return false
		}
	}
	return true
}

// runTableauDifferential drives a functional backend and the physical-
// cross reference in lockstep through a random operation sequence:
// preparations of data and resource qubits in |0>, |+> and |+i>, random
// multi-qubit product measurements, noise and syndrome rounds, window
// decodes, injected logical errors, discards and Reset. Every ideal
// outcome, every frame string and the random streams' next draws must
// agree. It returns how many preparations reset a block last prepared
// in |+>, and how many of those blocks were entangled.
func runTableauDifferential(nLQ, d int, p float64, seed int64, steps int) (xResets, xEntangled int, err error) {
	layout := surface.NewPPRLayout(nLQ, d)
	b := NewBackend(layout, p, seed, true)
	ref := newCrossRef(b.Code, b.NumLQ(), seed)
	for _, basis := range [4]pauli.Pauli{pauli.I, pauli.X, pauli.Z, pauli.Y} {
		offs, ops := ref.frameString(basis)
		if !slices.Equal(b.lsOff[basis], offs) || !slices.Equal(b.lsOps[basis], ops) {
			return 0, 0, fmt.Errorf("logical %v string %v %v, reference %v %v", basis, b.lsOff[basis], b.lsOps[basis], offs, ops)
		}
	}
	rng := xrand.New(seed ^ 0x7ab1)
	// usable lists the qubits an operation may touch: the mapped data
	// qubits and both resource qubits (mapped on demand).
	usable := func() []int {
		var lqs []int
		for lq := 0; lq < nLQ; lq++ {
			if _, ok := layout.PatchOfLQ(lq); ok {
				lqs = append(lqs, lq)
			}
		}
		return append(lqs, layout.AncillaLQ, layout.MagicLQ)
	}
	bases := [3]pauli.Pauli{pauli.X, pauli.Z, pauli.Y}

	for step := 0; step < steps; step++ {
		lqs := usable()
		switch op := rng.Intn(100); {
		case op < 30:
			lq := lqs[rng.Intn(len(lqs))]
			if ref.plus[lq] {
				xResets++
				if entangled(b.tab, lq) {
					xEntangled++
				}
			}
			switch rng.Intn(3) {
			case 0:
				b.PrepareZero(lq)
				ref.prepareZero(lq)
			case 1:
				b.PreparePlus(lq)
				ref.preparePlus(lq)
			default:
				b.PrepareResource(lq, ftqc.AnglePi4)
				ref.prepareResource(lq)
			}
		case op < 70:
			pr := pauli.NewProduct(b.NumLQ())
			for _, lq := range lqs {
				if rng.Intn(3) != 0 {
					pr.Ops[lq] = bases[rng.Intn(3)]
				}
			}
			if pr.IsIdentity() {
				pr.Ops[lqs[0]] = pauli.Z
			}
			_, raw, pfFlip := b.MeasureProductDetail(pr, nil)
			want, fqs, fops := ref.measure(b, pr)
			if got := raw != frameFlip(b.errFrame, fqs, fops); got != want {
				return 0, 0, fmt.Errorf("step %d measuring %v: ideal outcome %v, reference %v", step, pr, got, want)
			}
			if want := frameFlip(b.pfFrame, fqs, fops); pfFlip != want {
				return 0, 0, fmt.Errorf("step %d measuring %v: estimate-frame flip %v, reference %v", step, pr, pfFlip, want)
			}
		case op < 82:
			b.InjectRoundNoise()
			b.MeasureSyndromesRound(rng.Intn(4) == 0)
		case op < 86:
			b.FinishWindow()
		case op < 92:
			lq, basis := lqs[rng.Intn(len(lqs))], bases[rng.Intn(3)]
			before := slices.Clone(b.errFrame.Ops)
			b.InjectLogicalError(lq, basis)
			patch, _ := layout.PatchOfLQ(lq)
			offs, ops := ref.frameString(basis)
			for i, off := range offs {
				before[patch*d*d+off] ^= ops[i]
			}
			if !slices.Equal(before, b.errFrame.Ops) {
				return 0, 0, fmt.Errorf("step %d InjectLogicalError(%d, %v): truth frame differs from the reference string", step, lq, basis)
			}
		case op < 98:
			lq := layout.AncillaLQ + rng.Intn(2)
			if rng.Intn(3) == 0 {
				lq = rng.Intn(nLQ)
			}
			b.DiscardLogical(lq)
		default:
			s := int64(rng.Intn(1 << 20))
			b.Reset(s)
			ref.reset(s)
		}
	}
	for i := 0; i < 64; i++ {
		if got, want := b.tab.RandomBit(), ref.tab.RandomBit(); got != want {
			return 0, 0, fmt.Errorf("after %d steps: random streams diverged at draw %d", steps, i)
		}
	}
	return xResets, xEntangled, nil
}

// TestLogicalTableauMatchesCross runs the backend's logical tableau in
// lockstep with the frozen physical-cross tableau over random operation
// sequences on 1-4 logical qubits at d = 3, 5, 7. No compiled program
// re-prepares a |+> block, so the sequences are built to: the
// X-gauge reset replay must run on entangled blocks at least 1,000
// times.
func TestLogicalTableauMatchesCross(t *testing.T) {
	steps, trials := 400, 40
	if testing.Short() {
		steps, trials = 200, 10
	}
	xResets, xEntangled := 0, 0
	for _, d := range []int{3, 5, 7} {
		for nLQ := 1; nLQ <= 4; nLQ++ {
			for trial := 0; trial < trials; trial++ {
				p := []float64{0.001, 0.02}[trial%2]
				seed := int64(10000*d + 100*nLQ + trial)
				xr, xe, err := runTableauDifferential(nLQ, d, p, seed, steps)
				if err != nil {
					t.Fatalf("d=%d nLQ=%d p=%v seed=%d: %v", d, nLQ, p, seed, err)
				}
				xResets += xr
				xEntangled += xe
			}
		}
	}
	t.Logf("X-gauge resets: %d, of entangled blocks: %d", xResets, xEntangled)
	if want := 1000; !testing.Short() && xEntangled < want {
		t.Fatalf("only %d X-gauge resets of entangled blocks, want at least %d", xEntangled, want)
	}
}
