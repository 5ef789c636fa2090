package surface

import (
	"fmt"

	"xqsim/internal/pauli"
)

// PatchType classifies a lattice position (the paper's pch_type).
type PatchType int

// Patch types.
const (
	Unused       PatchType = iota
	Mapped                 // holds a logical qubit
	Intermediate           // routing space consumed by merges
)

// String returns the patch type name.
func (t PatchType) String() string {
	switch t {
	case Unused:
		return "unused"
	case Mapped:
		return "mapped"
	case Intermediate:
		return "intermediate"
	}
	return "unused"
}

// InitState is the initialization type of a mapped patch.
type InitState int

// Logical initialization states. InitMagic denotes the resource state
// |m> = (|0> + e^{i*theta}|1>)/sqrt(2); the validation flow substitutes
// theta = pi/2 (the stabilizer state |+i>) as documented in DESIGN.md.
const (
	InitNone  InitState = iota
	InitZero            // |0>
	InitPlus            // |+>
	InitMagic           // resource state for PPR rotations
)

// String returns the init-state name.
func (s InitState) String() string {
	switch s {
	case InitNone:
		return "-"
	case InitZero:
		return "|0>"
	case InitPlus:
		return "|+>"
	case InitMagic:
		return "|m>"
	}
	return "-"
}

// ESMType says which ancilla types on a patch side participate in the ESM
// (the paper's ESM_left..bottom fields).
type ESMType int

// ESM participation per boundary.
const (
	ESMNone ESMType = iota
	ESMZ            // only Z-ancillas on this side
	ESMX            // only X-ancillas
	ESMBoth         // Z & X (merged seam)
)

// String returns the ESM type name.
func (e ESMType) String() string {
	switch e {
	case ESMNone:
		return "None"
	case ESMZ:
		return "Z"
	case ESMX:
		return "X"
	case ESMBoth:
		return "Z&X"
	}
	return "None"
}

// Static is the per-patch static information (pchinfo_static).
type Static struct {
	Type PatchType
	Init InitState
	// ZSide/XSide record one representative boundary of each type as in
	// Table 2 (canonical orientation: Z on Top/Bottom, X on Left/Right).
	ZSide Side
	XSide Side
	// LQ is the logical qubit mapped here, or -1.
	LQ int
}

// Dynamic is the per-patch dynamic information (pchinfo_dynamic).
type Dynamic struct {
	ESM     [4]ESMType // indexed by Side (Left, Top, Right, Bottom)
	ESMOn   bool
	MergeOn bool
}

// Patch is one lattice position.
type Patch struct {
	Idx      int
	Row, Col int
	Static   Static
	Dynamic  Dynamic
	// epoch is the lattice epoch of the last write to Dynamic (see
	// Lattice.PatchEpoch).
	epoch uint64
}

// Lattice is the grid of surface-code patches managed by the control
// processor, plus the logical-qubit-to-patch mapping (pch_maptable).
type Lattice struct {
	Code    Code
	Rows    int
	Cols    int
	Patches []Patch
	// lqToPatch[lq] is the index of the patch holding logical qubit lq,
	// or -1 while lq is unmapped; MapLogical grows it.
	lqToPatch []int
	// mergeScratch is ApplyMerge's reusable in-region membership table;
	// activeScratch backs ActiveESMPatches. Both exist so the per-shot
	// lattice-surgery hot path stays allocation-free.
	mergeScratch  []bool
	activeScratch []int
	// esmEpoch increments on every mutation that can change the active-ESM
	// set, and every patch the mutation writes is stamped with the new
	// value; activeEpoch records the epoch activeScratch was built at, so
	// the round-loop callers of ActiveESMPatches pay the lattice scan only
	// when the set actually changed.
	esmEpoch    uint64
	activeEpoch uint64
}

// NewLattice builds a rows x cols lattice of unused patches with code
// distance d.
func NewLattice(rows, cols, d int) *Lattice {
	if rows < 1 || cols < 1 {
		//xqlint:ignore nopanic constructor precondition: dimensions derive from the LQ count
		panic("surface: empty lattice")
	}
	l := &Lattice{
		Code:     NewCode(d),
		Rows:     rows,
		Cols:     cols,
		Patches:  make([]Patch, rows*cols),
		esmEpoch: 1, // ahead of activeEpoch so the first listing builds
	}
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			idx := r*cols + c
			l.Patches[idx] = Patch{
				Idx: idx, Row: r, Col: c,
				Static: Static{
					Type:  Intermediate,
					LQ:    -1,
					ZSide: Top,
					XSide: Left,
				},
			}
		}
	}
	return l
}

// NumPatches returns the total number of lattice positions.
func (l *Lattice) NumPatches() int { return len(l.Patches) }

// PhysicalQubits returns the paper's physical-qubit accounting for the
// whole lattice: n_patches * 2*(d+1)^2.
func (l *Lattice) PhysicalQubits() int { return l.NumPatches() * l.Code.PhysPerPatch() }

// PatchAt returns the patch at (row, col) or nil if out of range.
func (l *Lattice) PatchAt(row, col int) *Patch {
	if row < 0 || row >= l.Rows || col < 0 || col >= l.Cols {
		return nil
	}
	return &l.Patches[row*l.Cols+col]
}

// Patch returns patch idx.
func (l *Lattice) Patch(idx int) *Patch { return &l.Patches[idx] }

// MapLogical maps logical qubit lq onto patch idx with the given
// initialization type, making the patch a mapped patch.
func (l *Lattice) MapLogical(lq, idx int, init InitState) {
	p := &l.Patches[idx]
	if p.Static.Type == Mapped {
		//xqlint:ignore nopanic invariant guard: execLQI discards before remapping; double-map means pipeline corruption
		panic(fmt.Sprintf("surface: patch %d already mapped to LQ %d", idx, p.Static.LQ))
	}
	p.Static.Type = Mapped
	p.Static.Init = init
	p.Static.LQ = lq
	for len(l.lqToPatch) <= lq {
		l.lqToPatch = append(l.lqToPatch, -1)
	}
	l.lqToPatch[lq] = idx
}

// UnmapLogical releases the patch holding logical qubit lq (used when the
// per-PPR resource qubits are measured out).
func (l *Lattice) UnmapLogical(lq int) {
	idx, ok := l.PatchOfLQ(lq)
	if !ok {
		return
	}
	p := &l.Patches[idx]
	p.Static.Type = Intermediate
	p.Static.Init = InitNone
	p.Static.LQ = -1
	l.lqToPatch[lq] = -1
}

// PatchOfLQ returns the patch index of logical qubit lq.
func (l *Lattice) PatchOfLQ(lq int) (int, bool) {
	if lq < 0 || lq >= len(l.lqToPatch) || l.lqToPatch[lq] < 0 {
		return 0, false
	}
	return l.lqToPatch[lq], true
}

// MappedLQs lists the logical qubits currently mapped, in ascending order.
func (l *Lattice) MappedLQs() []int {
	var out []int
	for lq, idx := range l.lqToPatch {
		if idx >= 0 {
			out = append(out, lq)
		}
	}
	return out
}

// neighbors4 returns the in-range 4-neighbor patch indices of idx, paired
// with the side of idx facing each neighbor, in a fixed-size buffer plus
// the valid count so per-shot hot paths stay allocation-free (ApplyMerge
// runs once per merge per shot).
func (l *Lattice) neighbors4(idx int) ([4][2]int, int) {
	p := l.Patches[idx]
	var out [4][2]int
	n := 0
	if q := l.PatchAt(p.Row, p.Col-1); q != nil {
		out[n] = [2]int{q.Idx, int(Left)}
		n++
	}
	if q := l.PatchAt(p.Row-1, p.Col); q != nil {
		out[n] = [2]int{q.Idx, int(Top)}
		n++
	}
	if q := l.PatchAt(p.Row, p.Col+1); q != nil {
		out[n] = [2]int{q.Idx, int(Right)}
		n++
	}
	if q := l.PatchAt(p.Row+1, p.Col); q != nil {
		out[n] = [2]int{q.Idx, int(Bottom)}
		n++
	}
	return out, n
}

// MergeRegion computes the set of patches participating in a Pauli product
// measurement over the given target patches: the targets plus the
// intermediate patches needed to connect them. Routing uses BFS through
// Intermediate patches; the returned slice is sorted by patch index and
// includes the targets. It returns an error if the targets cannot be
// connected.
func (l *Lattice) MergeRegion(targets []int) ([]int, error) {
	if len(targets) == 0 {
		return nil, fmt.Errorf("surface: merge with no targets")
	}
	inRegion := make([]bool, l.NumPatches())
	inRegion[targets[0]] = true
	// Connect each subsequent target to the growing region with BFS that
	// may pass through Intermediate patches only. prev holds each visited
	// patch's BFS parent (-1 for the root, -2 while unvisited).
	prev := make([]int, l.NumPatches())
	var queue []int
	for _, tgt := range targets[1:] {
		if inRegion[tgt] {
			continue
		}
		for i := range prev {
			prev[i] = -2
		}
		queue = append(queue[:0], tgt)
		prev[tgt] = -1
		found := -1
		for head := 0; head < len(queue) && found < 0; head++ {
			nbs, n := l.neighbors4(queue[head])
			for _, nb := range nbs[:n] {
				next := nb[0]
				if prev[next] != -2 {
					continue
				}
				prev[next] = queue[head]
				if inRegion[next] {
					found = next
					break
				}
				if l.Patches[next].Static.Type == Intermediate {
					queue = append(queue, next)
				}
			}
		}
		if found < 0 {
			return nil, fmt.Errorf("surface: no routing path to target patch %d", tgt)
		}
		for cur := found; cur != -1; cur = prev[cur] {
			inRegion[cur] = true
		}
	}
	var out []int
	for idx, in := range inRegion {
		if in {
			out = append(out, idx)
		}
	}
	return out, nil
}

// ApplyMerge updates the dynamic patch information for a merge over the
// given region (the semantics of the MERGE_INFO instruction): every patch
// in the region turns merge_on and ESM_on, and each side facing another
// in-region patch becomes a Z&X seam; other sides keep their static
// boundary type.
func (l *Lattice) ApplyMerge(region []int) {
	l.esmEpoch++
	if len(l.mergeScratch) < l.NumPatches() {
		l.mergeScratch = make([]bool, l.NumPatches())
	}
	inRegion := l.mergeScratch
	for _, idx := range region {
		inRegion[idx] = true
	}
	for _, idx := range region {
		p := &l.Patches[idx]
		p.epoch = l.esmEpoch
		p.Dynamic.MergeOn = true
		p.Dynamic.ESMOn = true
		for s := Left; s <= Bottom; s++ {
			p.Dynamic.ESM[s] = esmFromBasis(l.Code.BoundaryBasis(s))
		}
		nbs, n := l.neighbors4(idx)
		for _, nb := range nbs[:n] {
			if inRegion[nb[0]] {
				p.Dynamic.ESM[Side(nb[1])] = ESMBoth
			}
		}
	}
	for _, idx := range region {
		inRegion[idx] = false
	}
}

// ApplySplit reverts the dynamic information of the region to the
// unmerged state (SPLIT_INFO): mapped patches stay ESM_on with their
// static boundary types; intermediate patches stop participating.
func (l *Lattice) ApplySplit(region []int) {
	l.esmEpoch++
	for _, idx := range region {
		p := &l.Patches[idx]
		p.epoch = l.esmEpoch
		p.Dynamic.MergeOn = false
		if p.Static.Type == Mapped {
			p.Dynamic.ESMOn = true
			for s := Left; s <= Bottom; s++ {
				p.Dynamic.ESM[s] = esmFromBasis(l.Code.BoundaryBasis(s))
			}
		} else {
			p.Dynamic.ESMOn = false
			for s := Left; s <= Bottom; s++ {
				p.Dynamic.ESM[s] = ESMNone
			}
		}
	}
}

// EnableESM marks a freshly mapped patch as participating in the ESM with
// its static boundary types (the state right after LQI).
func (l *Lattice) EnableESM(idx int) {
	l.esmEpoch++
	p := &l.Patches[idx]
	p.epoch = l.esmEpoch
	p.Dynamic.ESMOn = true
	for s := Left; s <= Bottom; s++ {
		p.Dynamic.ESM[s] = esmFromBasis(l.Code.BoundaryBasis(s))
	}
}

// ActiveESMPatches lists patches with ESM_on set. The returned slice is
// backed by a single reusable buffer, recomputed only when the active set
// changed since the last call (hot paths call it every syndrome round).
// Callers that need to retain it across mutations must copy.
func (l *Lattice) ActiveESMPatches() []int {
	if l.activeEpoch == l.esmEpoch {
		return l.activeScratch
	}
	out := l.activeScratch[:0]
	for i := range l.Patches {
		if l.Patches[i].Dynamic.ESMOn {
			out = append(out, i)
		}
	}
	l.activeScratch = out
	l.activeEpoch = l.esmEpoch
	return out
}

// ESMEpoch returns a counter that increments on every mutation that can
// change any patch's ESM participation (merges, splits, ESM enable or
// disable, layout reset). It starts at 1 and only grows.
func (l *Lattice) ESMEpoch() uint64 { return l.esmEpoch }

// PatchEpoch returns the ESMEpoch of the last mutation that wrote patch
// idx's dynamic information, or 0 if none has. Callers caching state
// derived from one patch's Dynamic compare its epoch, so a mutation
// elsewhere on the lattice costs them nothing.
func (l *Lattice) PatchEpoch(idx int) uint64 { return l.Patches[idx].epoch }

// DisableESM removes a patch from syndrome extraction entirely — the
// state after a destructive logical measurement discards it.
func (l *Lattice) DisableESM(idx int) {
	l.esmEpoch++
	p := &l.Patches[idx]
	p.epoch = l.esmEpoch
	p.Dynamic.ESMOn = false
	for s := Left; s <= Bottom; s++ {
		p.Dynamic.ESM[s] = ESMNone
	}
}

// MergedPatches lists patches with merge_on set.
func (l *Lattice) MergedPatches() []int {
	var out []int
	for i := range l.Patches {
		if l.Patches[i].Dynamic.MergeOn {
			out = append(out, i)
		}
	}
	return out
}

func esmFromBasis(b pauli.Pauli) ESMType {
	if b == pauli.Z {
		return ESMZ
	}
	return ESMX
}

// PPRLayout builds the standard lattice layout for running Pauli product
// rotations over nLQ logical qubits: the logical qubits sit on the top row
// at even columns, a full routing row lies beneath them, and the bottom
// row hosts the per-rotation resource patches (the |0> ancilla at column 0
// and the magic-state patch at column 2). All logical qubits are mapped
// and initialized to |0>.
//
// The layout uses 3 x max(5, 2*nLQ-1) patches; with the paper's
// 2*(d+1)^2 accounting this reproduces, e.g., 15 patches / 480 physical
// qubits for the 3-logical-qubit d=3 validation benchmark.
type PPRLayout struct {
	*Lattice
	NLQ      int //xqlint:persistent layout geometry, fixed at construction
	AncillaP int //xqlint:persistent patch index reserved for the |0> ancilla (Q_A), fixed at construction
	MagicP   int //xqlint:persistent patch index reserved for the resource state (Q_M), fixed at construction
	// AncillaLQ/MagicLQ are the logical-qubit ids used for the per-PPR
	// resource qubits (above the data logical qubits).
	AncillaLQ int //xqlint:persistent fixed at construction
	MagicLQ   int //xqlint:persistent fixed at construction
}

// NewPPRLayout constructs the layout for nLQ data logical qubits at code
// distance d.
func NewPPRLayout(nLQ, d int) *PPRLayout {
	if nLQ < 1 {
		//xqlint:ignore nopanic constructor precondition: NLQ is validated at compile time
		panic("surface: need at least one logical qubit")
	}
	cols := 2*nLQ - 1
	if cols < 5 {
		cols = 5
	}
	l := NewLattice(3, cols, d)
	l.lqToPatch = make([]int, 0, nLQ+2) // the data qubits and the two resource qubits
	for q := 0; q < nLQ; q++ {
		l.MapLogical(q, 0*cols+2*q, InitZero)
		l.EnableESM(0*cols + 2*q)
	}
	return &PPRLayout{
		Lattice:   l,
		NLQ:       nLQ,
		AncillaP:  2*cols + 0,
		MagicP:    2*cols + 2,
		AncillaLQ: nLQ,
		MagicLQ:   nLQ + 1,
	}
}

// Reset restores the layout to its freshly constructed state — every data
// logical qubit mapped to its home patch with |0> initialization and ESM
// enabled, every other patch an inactive intermediate — without
// reallocating the patch array or the logical-qubit table. Shot loops
// reuse one layout across shots; a reset layout is indistinguishable
// from a new one.
func (l *PPRLayout) Reset() {
	l.esmEpoch++
	for i := range l.Patches {
		p := &l.Patches[i]
		p.Static = Static{Type: Intermediate, LQ: -1, ZSide: Top, XSide: Left}
		p.Dynamic = Dynamic{}
		p.epoch = l.esmEpoch
	}
	for i := range l.lqToPatch {
		l.lqToPatch[i] = -1
	}
	for q := 0; q < l.NLQ; q++ {
		l.MapLogical(q, 2*q, InitZero)
		l.EnableESM(2 * q)
	}
}
