package decoder

import (
	"xqsim/internal/pauli"
	"xqsim/internal/surface"
)

// UnionFindBackend is the union-find decoder (Delfosse-Nickerson style)
// adapted to the patch geometry: defect clusters grow in uniform
// half-steps of the chain metric, merge when their grown regions meet,
// and freeze once their parity is even or their region reaches an open
// boundary; each frozen cluster is then resolved locally by nearest-pair
// peeling. Chains are rendered through the same path walkers the exact
// matcher uses, so the syndrome-annihilation invariant (the correction's
// own syndrome equals the input) holds by construction; only the pairing
// is approximate. Compared to the exact matcher it trades a slightly
// heavier correction (never lighter — the reference is minimum-weight)
// for a cycle cost that grows with cluster diameter instead of with the
// spike round trip across the patch, which is what makes it interesting
// in the decoder tournament at large distances.
//
// All scratch grows to the stream's high-water mark and is reused, so
// steady-state decodes are allocation-free (pinned by
// TestUnionFindSteadyStateAllocs). A backend is single-goroutine; Clone
// gives each worker its own.
type UnionFindBackend struct {
	cells []surface.Coord // non-trivial plaquettes in scan order
	bdist []int32         // per-defect boundary distance (chain steps)
	dist  []int32         // pairwise defect distances, n*n

	// Union-find forest over defects; cluster attributes live at roots.
	parent []int32
	radius []int32 // cluster growth radius in half-steps
	bmin   []int32 // min boundary distance over the cluster's defects
	odd    []bool  // cluster syndrome parity
	touch  []bool  // cluster region reaches an open boundary

	gid    []int32 // root -> group id in first-seen scan order (-1 unset)
	group  []int32 // per-defect group id
	member []int32 // member gather buffer for one cluster
	open   []int32 // unresolved members during peeling (1 = open)
}

// NewUnionFindBackend returns a union-find backend with fresh scratch.
func NewUnionFindBackend() *UnionFindBackend { return &UnionFindBackend{} }

// Name implements Backend.
func (u *UnionFindBackend) Name() string { return "union-find" }

// Clone implements Backend.
func (u *UnionFindBackend) Clone() Backend { return NewUnionFindBackend() }

// ufMergeCycles prices one cluster merge (union plus attribute
// bookkeeping) in the modeled cycle count.
const ufMergeCycles = 2

// Decode implements Backend. The returned cycle model counts one cycle
// per cluster per growth half-step, ufMergeCycles per merge, and the
// peeling cost per committed match (2 cycles per chain step plus the
// token overhead) — no patch-crossing spike wait, because union-find
// commits matches from cluster-local state.
func (u *UnionFindBackend) Decode(c surface.Code, basis pauli.Pauli, syn *SyndromeBitmap, res *Result) uint64 {
	res.Flips = res.Flips[:0]
	res.Matches = res.Matches[:0]
	u.cells = syn.AppendCells(u.cells[:0])
	n := len(u.cells)
	if n == 0 {
		return 0
	}

	u.bdist = growInt32(u.bdist, n)
	u.dist = growInt32(u.dist, n*n)
	u.parent = growInt32(u.parent, n)
	u.radius = growInt32(u.radius, n)
	u.bmin = growInt32(u.bmin, n)
	u.odd = growBool(u.odd, n)
	u.touch = growBool(u.touch, n)
	u.gid = growInt32(u.gid, n)
	u.group = growInt32(u.group, n)

	bt := boundaryTable(c, basis)
	stride := c.D + 1
	for i, p := range u.cells {
		u.bdist[i] = int32(bt[p.Row*stride+p.Col])
		u.parent[i] = int32(i)
		u.radius[i] = 0
		u.bmin[i] = u.bdist[i]
		u.odd[i] = true
		// A defect sitting on the boundary is neutral from the start.
		u.touch[i] = u.bdist[i] == 0
	}
	for i := 0; i < n; i++ {
		u.dist[i*n+i] = 0
		for j := i + 1; j < n; j++ {
			d := int32(plaquetteDist(u.cells[i], u.cells[j]))
			u.dist[i*n+j] = d
			u.dist[j*n+i] = d
		}
	}

	find := func(i int32) int32 {
		for u.parent[i] != i {
			u.parent[i] = u.parent[u.parent[i]]
			i = u.parent[i]
		}
		return i
	}
	union := func(a, b int32) {
		if a > b {
			a, b = b, a
		}
		u.parent[b] = a
		u.odd[a] = u.odd[a] != u.odd[b]
		if u.radius[b] > u.radius[a] {
			u.radius[a] = u.radius[b]
		}
		if u.bmin[b] < u.bmin[a] {
			u.bmin[a] = u.bmin[b]
		}
		if u.touch[b] || u.radius[a] >= 2*u.bmin[a] {
			u.touch[a] = true
		}
	}

	// Weighted growth: every odd, boundary-free cluster expands half a
	// chain step per iteration; regions meeting merge their clusters.
	// Radii grow monotonically and a cluster freezes no later than
	// reaching its nearest boundary (2*bmin half-steps, bmin <= d/2), so
	// the loop terminates after O(d) iterations.
	var cycles uint64
	for {
		grown := false
		for i := int32(0); int(i) < n; i++ {
			if u.parent[i] != i || !u.odd[i] || u.touch[i] {
				continue
			}
			u.radius[i]++
			cycles++
			if u.radius[i] >= 2*u.bmin[i] {
				u.touch[i] = true
			}
			grown = true
		}
		if !grown {
			break
		}
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				ri, rj := find(int32(i)), find(int32(j))
				if ri == rj {
					continue
				}
				if u.radius[ri]+u.radius[rj] >= 2*u.dist[i*n+j] {
					union(ri, rj)
					cycles += ufMergeCycles
				}
			}
		}
	}

	// Resolve clusters in first-seen scan order.
	groups := 0
	for i := 0; i < n; i++ {
		u.gid[i] = -1
	}
	for i := 0; i < n; i++ {
		r := find(int32(i))
		if u.gid[r] < 0 {
			u.gid[r] = int32(groups)
			groups++
		}
		u.group[i] = u.gid[r]
	}
	for g := 0; g < groups; g++ {
		u.member = u.member[:0]
		for i := 0; i < n; i++ {
			if u.group[i] == int32(g) {
				u.member = append(u.member, int32(i))
			}
		}
		u.peelCluster(c, basis, res)
	}
	for _, m := range res.Matches {
		cycles += uint64(2*m.Steps + SpikeOverheadCycles + 1)
	}
	return cycles
}

// peelCluster resolves one cluster (u.member) by nearest-pair peeling in
// scan order: each open defect pairs with its nearest open neighbour, or
// terminates on the boundary when that is cheaper (or no neighbour
// remains — the odd defect of an odd cluster always ends there). The
// chain walkers guarantee the emitted flips annihilate exactly the
// member defects.
func (u *UnionFindBackend) peelCluster(c surface.Code, basis pauli.Pauli, res *Result) {
	k := len(u.member)
	u.open = growInt32(u.open, k)
	for i := range u.open[:k] {
		u.open[i] = 1
	}
	n := len(u.cells)
	for a := 0; a < k; a++ {
		if u.open[a] == 0 {
			continue
		}
		u.open[a] = 0
		ma := int(u.member[a])
		bestB := -1
		bestDist := int32(-1)
		for b := 0; b < k; b++ {
			if u.open[b] == 0 {
				continue
			}
			d := u.dist[ma*n+int(u.member[b])]
			if bestDist < 0 || d < bestDist {
				bestB, bestDist = b, d
			}
		}
		bd := u.bdist[ma]
		if bestDist < 0 || bd < bestDist {
			res.Matches = append(res.Matches, Match{From: u.cells[ma], ToBoundary: true, Steps: int(bd)})
			res.Flips = appendBoundaryPath(res.Flips, c, basis, u.cells[ma])
			continue
		}
		u.open[bestB] = 0
		mb := int(u.member[bestB])
		res.Matches = append(res.Matches, Match{From: u.cells[ma], To: u.cells[mb], Steps: int(bestDist)})
		res.Flips = appendPairPath(res.Flips, c, u.cells[ma], u.cells[mb])
	}
}

// growBool returns s resized to n, reusing capacity.
func growBool(s []bool, n int) []bool {
	if cap(s) < n {
		return make([]bool, n)
	}
	return s[:n]
}
