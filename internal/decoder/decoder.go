// Package decoder implements the error decode unit's matching algorithm:
// the spike/token nearest-pair decoder of QECOOL [69] extended for lattice
// surgery, in the three token-setup variants studied in the paper:
//
//   - SchemeRoundRobin: the baseline, which shifts the token one ancilla
//     cell per cycle while scanning for non-trivial syndromes (Fig. 15a);
//   - SchemePriority: Optimization #1, a priority encoder that allocates
//     the token directly to the next non-trivial cell (Fig. 15b);
//   - SchemePatchSliding: Optimization #4, which decodes through a
//     constant-size sliding window of EDU cells (Fig. 20), producing the
//     same matching with far fewer powered cells.
//
// The matching itself is identical across schemes (the paper's
// optimizations change latency and power, not the decode result); this
// package computes matches and correction paths, and WindowCycles prices
// a decode window under each scheme. Decoding is per basis type: Z-type
// plaquettes detect X errors, whose chains terminate on the X-boundaries
// (left/right in the canonical orientation), and symmetrically for
// X-type plaquettes.
//
// The hot path is allocation-free: syndromes travel as bit-packed
// SyndromeBitmaps, per-distance boundary tables are precomputed once, and
// DecodePatchInto threads a reusable Scratch through clustering, the
// exact matcher (a memoized recurrence over the at most F(k+2) member
// subsets a k-syndrome cluster reaches, fewer once dominated pairings
// and pairings a lower bound rules out are pruned), and path
// reconstruction. The map-based
// DecodePatch remains as a convenience wrapper producing identical
// results (see TestBitmapEquivalence).
package decoder

import (
	"math/bits"
	"sync"

	"xqsim/internal/pauli"
	"xqsim/internal/surface"
)

// Scheme selects the token-setup microarchitecture.
type Scheme int

// Token-setup schemes. NumSchemes counts them: a scheme in [0,
// NumSchemes) indexes a WindowPrices result.
const (
	SchemeRoundRobin Scheme = iota
	SchemePriority
	SchemePatchSliding
	NumSchemes
)

// Known reports whether s is one of the NumSchemes token-setup schemes.
func (s Scheme) Known() bool { return s >= 0 && s < NumSchemes }

// String names the scheme.
func (s Scheme) String() string {
	switch s {
	case SchemeRoundRobin:
		return "round-robin"
	case SchemePriority:
		return "priority"
	case SchemePatchSliding:
		return "patch-sliding"
	}
	return "?"
}

// Match records one decoded pairing.
type Match struct {
	From surface.Coord // token cell (plaquette coordinates)
	To   surface.Coord // matched cell; meaningless if ToBoundary
	// ToBoundary marks a chain terminated on an open boundary.
	ToBoundary bool
	// Steps is the chain length in data-qubit flips.
	Steps int
}

// Result is the outcome of decoding one patch window for one basis.
type Result struct {
	// Flips lists the data qubits (patch-local coordinates) whose errors
	// the decoder identified. For Z-type decoding these are X errors.
	Flips []surface.Coord
	// Matches lists the pairings in token allocation order.
	Matches []Match
}

// plaquetteDist is the minimum number of diagonal chain steps between two
// same-type plaquettes (Chebyshev distance; coordinates of equal-type
// plaquettes always have component differences of equal parity).
func plaquetteDist(a, b surface.Coord) int {
	dr, dc := a.Row-b.Row, a.Col-b.Col
	if dr < 0 {
		dr = -dr
	}
	if dc < 0 {
		dc = -dc
	}
	if dr > dc {
		return dr
	}
	return dc
}

// boundaryDist is the chain length from a plaquette to its nearest open
// boundary: left/right for Z-type plaquettes, top/bottom for X-type.
func boundaryDist(c surface.Code, basis pauli.Pauli, p surface.Coord) int {
	if basis == pauli.Z {
		if p.Col <= c.D-p.Col {
			return p.Col
		}
		return c.D - p.Col
	}
	if p.Row <= c.D-p.Row {
		return p.Row
	}
	return c.D - p.Row
}

// boundaryTables holds the per-plaquette boundary distances of one code
// distance, indexed row*(d+1)+col, for both decode bases.
type boundaryTables struct {
	z, x []int16
}

// bTableCache caches boundary tables per code distance: every ESM round
// decodes the same few distances, so the table is built once per process.
var bTableCache sync.Map // int (d) -> *boundaryTables

func boundaryTable(c surface.Code, basis pauli.Pauli) []int16 {
	if t, ok := bTableCache.Load(c.D); ok {
		bt := t.(*boundaryTables)
		if basis == pauli.Z {
			return bt.z
		}
		return bt.x
	}
	stride := c.D + 1
	bt := &boundaryTables{
		z: make([]int16, stride*stride),
		x: make([]int16, stride*stride),
	}
	for r := 0; r < stride; r++ {
		for col := 0; col < stride; col++ {
			p := surface.Coord{Row: r, Col: col}
			bt.z[r*stride+col] = int16(boundaryDist(c, pauli.Z, p))
			bt.x[r*stride+col] = int16(boundaryDist(c, pauli.X, p))
		}
	}
	t, _ := bTableCache.LoadOrStore(c.D, bt)
	bt = t.(*boundaryTables)
	if basis == pauli.Z {
		return bt.z
	}
	return bt.x
}

// boundaryPath returns the data qubits of the straight chain from
// plaquette p to its nearest open boundary.
func boundaryPath(c surface.Code, basis pauli.Pauli, p surface.Coord) []surface.Coord {
	return appendBoundaryPath(nil, c, basis, p)
}

// appendBoundaryPath appends boundaryPath's chain to out, avoiding a
// per-match allocation on the decode hot path.
func appendBoundaryPath(out []surface.Coord, c surface.Code, basis pauli.Pauli, p surface.Coord) []surface.Coord {
	if basis == pauli.Z {
		row := p.Row
		if row > c.D-1 {
			row = c.D - 1
		}
		if p.Col <= c.D-p.Col {
			for col := 0; col < p.Col; col++ {
				out = append(out, surface.Coord{Row: row, Col: col})
			}
		} else {
			for col := p.Col; col < c.D; col++ {
				out = append(out, surface.Coord{Row: row, Col: col})
			}
		}
		return out
	}
	col := p.Col
	if col > c.D-1 {
		col = c.D - 1
	}
	if p.Row <= c.D-p.Row {
		for row := 0; row < p.Row; row++ {
			out = append(out, surface.Coord{Row: row, Col: col})
		}
	} else {
		for row := p.Row; row < c.D; row++ {
			out = append(out, surface.Coord{Row: row, Col: col})
		}
	}
	return out
}

// pairPath walks diagonally from plaquette a to plaquette b, returning the
// data qubit crossed at each step. When one coordinate difference is
// exhausted the walk zigzags, alternating direction while staying inside
// the patch.
func pairPath(c surface.Code, a, b surface.Coord) []surface.Coord {
	return appendPairPath(nil, c, a, b)
}

// appendPairPath appends pairPath's chain to out.
func appendPairPath(out []surface.Coord, c surface.Code, a, b surface.Coord) []surface.Coord {
	r, col := a.Row, a.Col
	zig := 1
	for r != b.Row || col != b.Col {
		dr := sign(b.Row - r)
		if dr == 0 {
			dr = zig
			if r+dr < 0 || r+dr > c.D {
				dr = -dr
			}
			zig = -dr
		}
		dc := sign(b.Col - col)
		if dc == 0 {
			dc = zig
			if col+dc < 0 || col+dc > c.D {
				dc = -dc
			}
			zig = -dc
		}
		// Step (dr, dc) crosses the data qubit at the shared corner.
		cross := surface.Coord{Row: r + (dr-1)/2, Col: col + (dc-1)/2}
		out = append(out, cross)
		r += dr
		col += dc
	}
	return out
}

func sign(x int) int {
	switch {
	case x > 0:
		return 1
	case x < 0:
		return -1
	}
	return 0
}

// maxExactCluster bounds the exact matcher; larger clusters fall back to
// greedy nearest-pair matching.
const maxExactCluster = 20

// reachableSubsets[k] is the number of subsets the exact matcher visits
// on a k-member cluster, the empty set included: every step removes the
// lowest member, alone or with one higher partner, which reaches exactly
// the Fibonacci number F(k+2) of the 2^k subsets (987 of 16,384 at k=14,
// 17,711 of 1,048,576 at k=20).
var reachableSubsets = func() [maxExactCluster + 1]int {
	var t [maxExactCluster + 1]int
	a, b := 1, 2 // F(2), F(3)
	for k := range t {
		t[k] = a
		a, b = b, a+b
	}
	return t
}()

// memoEntry is one solved subset of the cluster being matched.
type memoEntry struct {
	set    uint32 // member subset (bit i = sc.member[i]); 0 marks a free slot
	cost   int32  // minimum cost to resolve every syndrome in set
	choice int32  // partner of set's lowest member (-1 = boundary)
}

// Scratch holds the reusable working memory of one decode stream. A zero
// Scratch is ready to use; buffers grow to the high-water mark of the
// stream and are reused across calls, making DecodePatchInto
// allocation-free in steady state. A Scratch must not be shared between
// concurrent decoders.
type Scratch struct {
	cells  []surface.Coord // non-trivial plaquettes in scan order
	bdist  []int32         // per-cell boundary distance
	dist   []int32         // pairwise plaquette distances, n*n
	parent []int32         // union-find forest over cells
	gid    []int32         // root -> group id in first-seen order (-1 unset)
	group  []int32         // per-cell group id
	member []int32         // member gather buffer for one cluster
	open   []bool          // greedy-fallback token state
	// nbr[i] is the set of higher members j (bit j) that member i of the
	// exact-matched cluster can profitably pair with:
	// dist(i,j) < bdist(i)+bdist(j).
	nbr [maxExactCluster]uint32
	// lb[i] is member i's share of the matcher's lower bound:
	// min(2·bdist(i), distance to the nearest other member). Summed over
	// any member subset S it is at most 2·cost(S) (see solve).
	lb [maxExactCluster]int32
	// memo is the exact matcher's open-addressed table of solved
	// subsets, sized per cluster to the reachable-subset count (never
	// 2^k) and keyed by a multiplicative hash of the subset.
	memo      []memoEntry
	memoShift uint32 // 32 - log2(len(memo))
	// claimed lists the memo slots the last cluster filled: the next
	// cluster frees only these, not the whole table.
	claimed []int32
}

// grow returns s resized to n, reusing capacity.
func growInt32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

// prepare loads the cells' distance views and clusters them: two
// syndromes join a cluster when their pairing could beat their boundary
// terminations. Group ids are assigned in first-seen scan order.
func (sc *Scratch) prepare(c surface.Code, basis pauli.Pauli) int {
	n := len(sc.cells)
	sc.bdist = growInt32(sc.bdist, n)
	sc.dist = growInt32(sc.dist, n*n)
	sc.parent = growInt32(sc.parent, n)
	sc.gid = growInt32(sc.gid, n)
	sc.group = growInt32(sc.group, n)

	bt := boundaryTable(c, basis)
	stride := c.D + 1
	for i, p := range sc.cells {
		sc.bdist[i] = int32(bt[p.Row*stride+p.Col])
		sc.parent[i] = int32(i)
		sc.gid[i] = -1
	}
	find := func(i int32) int32 {
		for sc.parent[i] != i {
			sc.parent[i] = sc.parent[sc.parent[i]]
			i = sc.parent[i]
		}
		return i
	}
	for i := 0; i < n; i++ {
		sc.dist[i*n+i] = 0
		for j := i + 1; j < n; j++ {
			d := int32(plaquetteDist(sc.cells[i], sc.cells[j]))
			sc.dist[i*n+j] = d
			sc.dist[j*n+i] = d
			if d <= sc.bdist[i]+sc.bdist[j] {
				sc.parent[find(int32(i))] = find(int32(j))
			}
		}
	}
	groups := 0
	for i := 0; i < n; i++ {
		r := find(int32(i))
		if sc.gid[r] < 0 {
			sc.gid[r] = int32(groups)
			groups++
		}
		sc.group[i] = sc.gid[r]
	}
	return groups
}

// DecodePatchInto computes the minimum-weight matching of the non-trivial
// plaquettes of one basis over one patch window, writing the result into
// res (whose slices are truncated and reused). It is the allocation-free
// core of DecodePatch: every syndrome pairs with another syndrome or
// terminates on an open boundary, minimizing the total chain length. This
// is the matching the racing spikes of the cell array converge to (the
// earliest spike to arrive wins); the per-scheme token setup changes only
// the cycle cost, computed separately by WindowCycles.
//
// Syndromes are first split into independent clusters (two syndromes can
// only be profitably paired when their distance is below the sum of their
// boundary distances); each cluster is solved exactly by a memoized
// recurrence over member subsets (decodeClusterInto), with a nearest-pair
// greedy fallback for clusters too large for the exact solver (which do
// not occur at the paper's error rates).
//
// Cells are consumed in row-major scan order (the hardware's cell scan
// order), so identical syndromes always produce identical Results.
func DecodePatchInto(c surface.Code, basis pauli.Pauli, syn *SyndromeBitmap, sc *Scratch, res *Result) {
	res.Flips = res.Flips[:0]
	res.Matches = res.Matches[:0]
	sc.cells = syn.AppendCells(sc.cells[:0])
	n := len(sc.cells)
	if n == 0 {
		return
	}
	groups := sc.prepare(c, basis)
	for g := 0; g < groups; g++ {
		sc.member = sc.member[:0]
		for i := 0; i < n; i++ {
			if sc.group[i] == int32(g) {
				sc.member = append(sc.member, int32(i))
			}
		}
		decodeClusterInto(c, basis, sc, res)
	}
}

// FitsExactMatcher reports whether every cluster of the syndrome has at
// most maxExactCluster (20) members, so DecodePatch and
// ReferenceDecodePatch solve all of it exactly and their correction has
// minimum weight. A larger cluster falls back to greedy matching, which
// another backend can beat.
func FitsExactMatcher(c surface.Code, basis pauli.Pauli, syn *SyndromeBitmap) bool {
	var sc Scratch
	sc.cells = syn.AppendCells(nil)
	size := make([]int, sc.prepare(c, basis))
	for _, g := range sc.group {
		size[g]++
		if size[g] > maxExactCluster {
			return false
		}
	}
	return true
}

// decodeClusterInto solves one cluster (sc.member) exactly. cost(S) is
// the minimum cost to resolve the syndromes in member subset S: S's
// lowest member terminates on the boundary or pairs with a higher member
// j, so cost(S) = min(bdist + cost(S−lowest), dist(lowest, j) +
// cost(S−lowest−j)), ties going to the boundary and then to the lowest j.
// The recurrence is evaluated top-down from the full cluster and
// memoized, so only the subsets it reaches are ever solved: at most
// F(k+2), fewer once dominated pairs and pairings the lower bound
// sc.lb rules out are skipped (see solve).
// ReferenceDecodePatch fills the same recurrence bottom-up over all 2^k
// subsets, and every reached subset gets the same cost and choice there.
func decodeClusterInto(c surface.Code, basis pauli.Pauli, sc *Scratch, res *Result) {
	k := len(sc.member)
	if k == 0 {
		return
	}
	if k > maxExactCluster {
		decodeGreedyInto(c, basis, sc, res)
		return
	}
	// A power-of-two table at least 1.5x the reachable count keeps
	// linear probes short. Freeing the previous cluster's slots leaves
	// the whole backing array free, whatever size this table takes.
	all := sc.memo[:cap(sc.memo)]
	for _, h := range sc.claimed {
		all[h] = memoEntry{}
	}
	sc.claimed = sc.claimed[:0]
	reach := reachableSubsets[k]
	logSize := bits.Len32(uint32(reach + reach/2))
	size := 1 << uint(logSize)
	if cap(sc.memo) < size {
		sc.memo = make([]memoEntry, size)
	}
	sc.memo = sc.memo[:size]
	sc.memoShift = uint32(32 - logSize)

	n := len(sc.cells)
	for a := 0; a < k; a++ {
		sc.nbr[a] = 0
		sc.lb[a] = 2 * sc.bdist[sc.member[a]]
	}
	var g int32
	for a := 0; a < k; a++ {
		ma := int(sc.member[a])
		for b := a + 1; b < k; b++ {
			mb := int(sc.member[b])
			d := sc.dist[ma*n+mb]
			if d < sc.bdist[ma]+sc.bdist[mb] {
				sc.nbr[a] |= 1 << uint(b)
			}
			sc.lb[a] = min(sc.lb[a], d)
			sc.lb[b] = min(sc.lb[b], d)
		}
		g += sc.lb[a]
	}

	full := uint32(1)<<uint(k) - 1
	sc.cost(full, g)
	for s := full; s != 0; {
		i := bits.TrailingZeros32(s)
		mi := int(sc.member[i])
		j := sc.memo[sc.slot(s)].choice
		if j < 0 {
			res.Matches = append(res.Matches, Match{From: sc.cells[mi], ToBoundary: true, Steps: int(sc.bdist[mi])})
			res.Flips = appendBoundaryPath(res.Flips, c, basis, sc.cells[mi])
			s &^= 1 << uint(i)
			continue
		}
		mj := int(sc.member[j])
		res.Matches = append(res.Matches, Match{From: sc.cells[mi], To: sc.cells[mj], Steps: int(sc.dist[mi*n+mj])})
		res.Flips = appendPairPath(res.Flips, c, sc.cells[mi], sc.cells[mj])
		s &^= 1<<uint(i) | 1<<uint(j)
	}
}

// slot returns the memo index holding subset s, or the free slot where s
// belongs. The table never fills: it is sized above the reachable count.
func (sc *Scratch) slot(s uint32) int {
	mask := len(sc.memo) - 1
	h := int((s * 0x9e3779b1) >> sc.memoShift)
	for sc.memo[h].set != s && sc.memo[h].set != 0 {
		h = (h + 1) & mask
	}
	return h
}

// cost returns cost(s), solving s on its first reach; g is G(s), the
// sum of sc.lb over s.
func (sc *Scratch) cost(s uint32, g int32) int32 {
	if s == 0 {
		return 0
	}
	h := sc.slot(s)
	if sc.memo[h].set == s {
		return sc.memo[h].cost
	}
	return sc.solve(s, h, g)
}

// solve computes and memoizes cost(s) and its choice into free slot h;
// g is G(s). The slot is claimed before the recursion so later inserts
// cannot take it; the recursion only descends to strictly smaller
// subsets, so no claimed entry is read before it is filled.
//
// Two rules skip a partner j of s's lowest member i without changing
// any reached subset's cost or choice, because under the strict-< rule
// neither skipped candidate could win:
//
//   - Only the profitable partners sc.nbr[i] are tried. A dominated
//     pair, dist(i,j) >= bdist(i)+bdist(j), can never strictly beat
//     sending i to the boundary, because cost(s−i) <= bdist(j)+
//     cost(s−i−j) (j on the boundary is one way to resolve s−i).
//   - j is skipped when 2·dist(i,j) + G(s−i−j) >= 2·best. G is
//     admissible, G(S) <= 2·cost(S): in a minimum matching of S each
//     member either terminates on the boundary (bdist >= lb/2) or
//     shares a chain of length dist >= lb with its partner. So pairing
//     with j costs at least the best candidate already found, and
//     cost(s−i−j) need not be solved.
//
// Fewer subsets are reached than the F(k+2) of the full recurrence.
func (sc *Scratch) solve(s uint32, h int, g int32) int32 {
	sc.memo[h].set = s
	sc.claimed = append(sc.claimed, int32(h))
	i := bits.TrailingZeros32(s)
	rest := s &^ (1 << uint(i))
	gRest := g - sc.lb[i]
	mi := int(sc.member[i])
	best := sc.bdist[mi] + sc.cost(rest, gRest)
	bestJ := int32(-1)
	n := len(sc.cells)
	for r := rest & sc.nbr[i]; r != 0; r &= r - 1 {
		j := bits.TrailingZeros32(r)
		d := sc.dist[mi*n+int(sc.member[j])]
		gPair := gRest - sc.lb[j]
		if 2*d+gPair >= 2*best {
			continue
		}
		pair := d + sc.cost(rest&^(1<<uint(j)), gPair)
		if pair < best {
			best, bestJ = pair, int32(j)
		}
	}
	sc.memo[h].cost = best
	sc.memo[h].choice = bestJ
	return best
}

// decodeGreedyInto is the nearest-pair fallback for oversized clusters.
func decodeGreedyInto(c surface.Code, basis pauli.Pauli, sc *Scratch, res *Result) {
	k := len(sc.member)
	n := len(sc.cells)
	if cap(sc.open) < k {
		sc.open = make([]bool, k)
	}
	sc.open = sc.open[:k]
	for i := range sc.open {
		sc.open[i] = true
	}
	for a := 0; a < k; a++ {
		if !sc.open[a] {
			continue
		}
		sc.open[a] = false
		ma := int(sc.member[a])
		bestB := -1
		bestDist := int32(-1)
		for b := 0; b < k; b++ {
			if !sc.open[b] {
				continue
			}
			d := sc.dist[ma*n+int(sc.member[b])]
			if bestDist < 0 || d < bestDist {
				bestB, bestDist = b, d
			}
		}
		bd := sc.bdist[ma]
		if bestDist < 0 || bd < bestDist {
			res.Matches = append(res.Matches, Match{From: sc.cells[ma], ToBoundary: true, Steps: int(bd)})
			res.Flips = appendBoundaryPath(res.Flips, c, basis, sc.cells[ma])
			continue
		}
		sc.open[bestB] = false
		mb := int(sc.member[bestB])
		res.Matches = append(res.Matches, Match{From: sc.cells[ma], To: sc.cells[mb], Steps: int(bestDist)})
		res.Flips = appendPairPath(res.Flips, c, sc.cells[ma], sc.cells[mb])
	}
}

// patchState pools the conversion buffers behind the map-based
// convenience API, so occasional DecodePatch callers don't pay a fresh
// bitmap + scratch per call.
type patchState struct {
	bm SyndromeBitmap
	sc Scratch
}

var patchPool = sync.Pool{New: func() any { return new(patchState) }}

// DecodePatch decodes one patch window from the map syndrome
// representation. It is a convenience wrapper over DecodePatchInto
// (entries with value false are ignored) and returns an identical Result:
// cells are consumed in row-major order regardless of map iteration
// order, matching the hardware's cell scan order.
func DecodePatch(c surface.Code, basis pauli.Pauli, syndrome map[surface.Coord]bool) Result {
	st := patchPool.Get().(*patchState)
	st.bm.Resize(c)
	//xqlint:ignore maprange each key sets its own bit; DecodePatchInto scans the bitmap row-major
	for p, on := range syndrome {
		if on {
			st.bm.Set(p)
		}
	}
	var res Result
	DecodePatchInto(c, basis, &st.bm, &st.sc, &res)
	patchPool.Put(st)
	return res
}

// SyndromeOf computes the non-trivial plaquettes of the given basis for a
// set of data-qubit errors (patch-local coordinates carrying the opposite
// Pauli type: X errors for Z-plaquettes). Intended for tests and for the
// quantum backend's syndrome generation.
func SyndromeOf(c surface.Code, basis pauli.Pauli, errors []surface.Coord) map[surface.Coord]bool {
	errSet := make(map[surface.Coord]int, len(errors))
	for _, e := range errors {
		errSet[e]++
	}
	out := make(map[surface.Coord]bool)
	for _, st := range c.Stabilizers() {
		if st.Basis != basis {
			continue
		}
		par := 0
		for _, q := range st.Data {
			par += errSet[q]
		}
		if par%2 == 1 {
			out[st.Anc] = true
		}
	}
	return out
}

// residualLogicalError reports whether error+correction flips the logical
// operator of the basis type detected by `basis` plaquettes: Z-plaquettes
// detect X errors, which corrupt logical Z (vertical string on column 0);
// the parity of flips crossing that string decides a logical error.
func residualLogicalError(c surface.Code, basis pauli.Pauli, errors, correction []surface.Coord) bool {
	var logical []surface.Coord
	if basis == pauli.Z {
		logical = c.LogicalZ()
	} else {
		logical = c.LogicalX()
	}
	onLogical := make(map[surface.Coord]bool, len(logical))
	for _, q := range logical {
		onLogical[q] = true
	}
	par := 0
	for _, q := range errors {
		if onLogical[q] {
			par++
		}
	}
	for _, q := range correction {
		if onLogical[q] {
			par++
		}
	}
	return par%2 == 1
}

// SpikeOverheadCycles covers token grant, state-machine transition, and
// match removal per token.
const SpikeOverheadCycles = 4

// SpikeWaitCycles is the per-token spike-propagation window: the token
// cell waits for the racing spikes to cross the patch-sized cell window
// and reflect before committing a match (4*(d+1) cell hops). Two cycles
// per chain step, this wait and SpikeOverheadCycles are the per-match
// spike cost that WindowCycles charges under every scheme and that the
// scalability evaluation (core.System.Evaluate) charges analytically.
func SpikeWaitCycles(d int) int { return 4 * (d + 1) }

// WindowPrices is the EDU's latency for one decode window of d ESM
// rounds under every token-setup scheme, indexed by Scheme, given the
// window's Z-plaquette matches z and X-plaquette matches x in token
// order:
//
//   - round-robin (baseline, Fig. 15a): the shared token circulates
//     through every active cell once per ESM round of the window, plus
//     the per-match spike traffic of both bases;
//   - priority (Optimization #1, Fig. 15b): the X and Z cell arrays
//     decode in parallel; each token allocation costs a single cycle
//     plus the spike window, and the slower basis sets the latency;
//   - patch-sliding (Optimization #4, Fig. 20): priority latency plus one
//     pipeline-fill cycle per window slide (the double-buffered global
//     ESM_srmem hides the reload itself).
//
// activeCells is the number of EDU cells participating (all active
// ancillas) and slides the number of window slides; each only enters
// its own scheme's term. The schemes share the per-basis spike sums, so
// one pass over the matches prices all three: a run can price every
// scheme at the cost of one.
func WindowPrices(d int, z, x []Match, activeCells, slides int) [NumSchemes]uint64 {
	wait := SpikeWaitCycles(d)
	spikes := func(ms []Match) int {
		total := 0
		for _, m := range ms {
			total += 2*m.Steps + wait + SpikeOverheadCycles
		}
		return total
	}
	sz, sx := spikes(z), spikes(x)
	priority := max(len(z)+sz, len(x)+sx)
	var p [NumSchemes]uint64
	p[SchemeRoundRobin] = uint64(d*activeCells + sz + sx)
	p[SchemePriority] = uint64(priority)
	p[SchemePatchSliding] = uint64(priority + slides)
	return p
}

// WindowCycles is one decode window's price under scheme s (see
// WindowPrices); an unknown scheme prices 0. It is the one price of a
// window: the pipeline, the memory experiment's fault injector and
// MatchingBackend all charge it.
func WindowCycles(s Scheme, d int, z, x []Match, activeCells, slides int) uint64 {
	if !s.Known() {
		return 0
	}
	return WindowPrices(d, z, x, activeCells, slides)[s]
}

// ResidualLogicalError reports whether error plus correction flips the
// logical operator threatened by this basis' errors (X errors corrupt
// logical Z and vice versa). Exposed for the quantum backend's
// logical-error accounting and for tests.
func ResidualLogicalError(c surface.Code, basis pauli.Pauli, errors, correction []surface.Coord) bool {
	return residualLogicalError(c, basis, errors, correction)
}
