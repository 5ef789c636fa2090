package decoder

import (
	"math/bits"
	"math/rand"
	"reflect"
	"testing"

	"xqsim/internal/pauli"
	"xqsim/internal/surface"
)

// synFromBitmap converts a bitmap back to the map form the reference
// decoder consumes.
func synFromBitmap(bm *SyndromeBitmap) map[surface.Coord]bool {
	syn := make(map[surface.Coord]bool)
	for _, p := range bm.AppendCells(nil) {
		syn[p] = true
	}
	return syn
}

// checkBackendContract asserts the Backend contract on one decode: the
// correction annihilates the input syndrome exactly, the weight is never
// below the reference when that is minimum-weight (every cluster fits
// the exact matcher), and the matching backend is bit-identical to the
// reference.
func checkBackendContract(t *testing.T, b Backend, c surface.Code, basis pauli.Pauli, bm *SyndromeBitmap) {
	t.Helper()
	syn := synFromBitmap(bm)
	ref := ReferenceDecodePatch(c, basis, syn)

	var res Result
	b.Decode(c, basis, bm, &res)

	resyn := SyndromeOf(c, basis, res.Flips)
	for p := range syn {
		if !resyn[p] {
			t.Fatalf("%s d=%d basis=%v: correction misses plaquette %v (flips %v)", b.Name(), c.D, basis, p, res.Flips)
		}
	}
	for p, on := range resyn {
		if on && !syn[p] {
			t.Fatalf("%s d=%d basis=%v: correction excites plaquette %v (flips %v)", b.Name(), c.D, basis, p, res.Flips)
		}
	}
	if len(res.Flips) < len(ref.Flips) && FitsExactMatcher(c, basis, bm) {
		t.Fatalf("%s d=%d basis=%v: weight %d below the minimum-weight reference %d", b.Name(), c.D, basis, len(res.Flips), len(ref.Flips))
	}
	if b.Name() == "matching" && !resultsEqual(ref, res) {
		t.Fatalf("matching d=%d basis=%v diverged from reference:\nref %+v\ngot %+v", c.D, basis, ref, res)
	}

	// Determinism: the same backend, a fresh one, and a clone all agree.
	var again, fresh, cloned Result
	b.Decode(c, basis, bm, &again)
	if !resultsEqual(res, again) {
		t.Fatalf("%s d=%d: repeat decode diverged", b.Name(), c.D)
	}
	nb, err := NewBackendByName(b.Name())
	if err != nil {
		t.Fatal(err)
	}
	nb.Decode(c, basis, bm, &fresh)
	if !resultsEqual(res, fresh) {
		t.Fatalf("%s d=%d: fresh backend diverged", b.Name(), c.D)
	}
	b.Clone().Decode(c, basis, bm, &cloned)
	if !resultsEqual(res, cloned) {
		t.Fatalf("%s d=%d: clone diverged", b.Name(), c.D)
	}
}

// TestBackendRegistry pins the registry contents and the error path.
func TestBackendRegistry(t *testing.T) {
	names := BackendNames()
	want := []string{"matching", "union-find"}
	if len(names) != len(want) {
		t.Fatalf("BackendNames() = %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("BackendNames() = %v, want %v", names, want)
		}
	}
	for _, name := range names {
		b, err := NewBackendByName(name)
		if err != nil || b == nil || b.Name() != name {
			t.Fatalf("NewBackendByName(%q) = %v, %v", name, b, err)
		}
	}
	if _, err := NewBackendByName("nope"); err == nil {
		t.Fatal("NewBackendByName accepted garbage")
	}
}

// TestBackendContractRandomSyndromes drives every registered backend over
// random plaquette subsets (including unrealizable ones) and random
// error-chain syndromes.
func TestBackendContractRandomSyndromes(t *testing.T) {
	r := rand.New(rand.NewSource(71))
	for _, name := range BackendNames() {
		b, err := NewBackendByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range []int{3, 5, 7} {
			c := surface.NewCode(d)
			bm := NewSyndromeBitmap(c)
			for _, basis := range []pauli.Pauli{pauli.Z, pauli.X} {
				for trial := 0; trial < 120; trial++ {
					var syn map[surface.Coord]bool
					if trial%3 == 0 {
						syn = randomSyndrome(r, c, basis, trial%6 == 0)
					} else {
						var errs []surface.Coord
						for i := 0; i < 1+r.Intn(d); i++ {
							errs = append(errs, surface.Coord{Row: r.Intn(d), Col: r.Intn(d)})
						}
						syn = SyndromeOf(c, basis, errs)
					}
					bm.Resize(c)
					bm.FromMap(syn)
					checkBackendContract(t, b, c, basis, bm)
				}
			}
		}
	}
}

// TestBackendEmptySyndromeIsFree asserts an all-quiet window decodes to
// an empty correction at zero modeled cost on every backend.
func TestBackendEmptySyndromeIsFree(t *testing.T) {
	c := surface.NewCode(5)
	bm := NewSyndromeBitmap(c)
	for _, name := range BackendNames() {
		b, err := NewBackendByName(name)
		if err != nil {
			t.Fatal(err)
		}
		res := Result{Flips: []surface.Coord{{Row: 1}}, Matches: []Match{{}}}
		cycles := b.Decode(c, pauli.Z, bm, &res)
		if len(res.Flips) != 0 || len(res.Matches) != 0 {
			t.Fatalf("%s: empty syndrome left a correction %+v", name, res)
		}
		if cycles != 0 {
			t.Fatalf("%s: empty syndrome cost %d cycles", name, cycles)
		}
	}
}

// TestUnionFindSingleDefectTerminatesOnBoundary pins the simplest
// cluster: one defect must grow to its nearest boundary and terminate
// there with a minimum-length chain.
func TestUnionFindSingleDefectTerminatesOnBoundary(t *testing.T) {
	c := surface.NewCode(5)
	u := NewUnionFindBackend()
	for _, st := range c.Stabilizers() {
		if st.Basis != pauli.Z {
			continue
		}
		bm := NewSyndromeBitmap(c)
		bm.Set(st.Anc)
		var res Result
		u.Decode(c, pauli.Z, bm, &res)
		if len(res.Matches) != 1 || !res.Matches[0].ToBoundary {
			t.Fatalf("anc %v: matches %+v, want one boundary match", st.Anc, res.Matches)
		}
		ref := ReferenceDecodePatch(c, pauli.Z, map[surface.Coord]bool{st.Anc: true})
		if len(res.Flips) != len(ref.Flips) {
			t.Fatalf("anc %v: boundary chain weight %d, reference %d", st.Anc, len(res.Flips), len(ref.Flips))
		}
	}
}

// TestUnionFindAdjacentPairMatches pins the other primitive: two adjacent
// defects (one data error between them) must pair with each other, not
// run to the boundary, whenever pairing is cheaper.
func TestUnionFindAdjacentPairMatches(t *testing.T) {
	c := surface.NewCode(7)
	u := NewUnionFindBackend()
	// A single data error in the bulk excites exactly two Z-plaquettes one
	// chain step apart.
	syn := SyndromeOf(c, pauli.Z, []surface.Coord{{Row: 3, Col: 3}})
	bm := NewSyndromeBitmap(c)
	bm.FromMap(syn)
	var res Result
	u.Decode(c, pauli.Z, bm, &res)
	if len(res.Matches) != 1 || res.Matches[0].ToBoundary {
		t.Fatalf("matches %+v, want one pair match", res.Matches)
	}
	if len(res.Flips) != 1 || res.Flips[0] != (surface.Coord{Row: 3, Col: 3}) {
		t.Fatalf("flips %v, want the single injected error", res.Flips)
	}
}

// TestMatchingCycleCostMatchesPipelineModel keeps the backend's latency
// model aligned with the per-match terms the pipeline charges under
// SchemePriority: any drift here would let tournament latencies diverge
// from pipeline latencies for the same decode.
func TestMatchingCycleCostMatchesPipelineModel(t *testing.T) {
	d := 7
	literal := func(matches []Match) uint64 {
		want := uint64(len(matches))
		for _, m := range matches {
			want += uint64(2*m.Steps + 4*(d+1) + SpikeOverheadCycles)
		}
		return want
	}
	matches := []Match{{Steps: 2}, {Steps: 5, ToBoundary: true}}
	if got, want := WindowCycles(SchemePriority, d, matches, nil, 0, 0), literal(matches); got != want {
		t.Fatalf("WindowCycles(priority) = %d, want %d", got, want)
	}
	c := surface.NewCode(d)
	bm := NewSyndromeBitmap(c)
	bm.FromMap(SyndromeOf(c, pauli.Z, []surface.Coord{{Row: 1, Col: 1}, {Row: 3, Col: 4}, {Row: 5, Col: 2}}))
	var res Result
	got := NewMatchingBackend().Decode(c, pauli.Z, bm, &res)
	if len(res.Matches) == 0 {
		t.Fatal("no matches decoded")
	}
	if want := literal(res.Matches); got != want {
		t.Fatalf("MatchingBackend.Decode = %d cycles, want %d", got, want)
	}
}

// TestUnionFindSteadyStateAllocs pins the zero-allocation steady state of
// the union-find scratch across repeated decodes.
func TestUnionFindSteadyStateAllocs(t *testing.T) {
	c := surface.NewCode(7)
	r := rand.New(rand.NewSource(73))
	var errs []surface.Coord
	for i := 0; i < 5; i++ {
		errs = append(errs, surface.Coord{Row: r.Intn(7), Col: r.Intn(7)})
	}
	bm := NewSyndromeBitmap(c)
	bm.FromMap(SyndromeOf(c, pauli.Z, errs))
	u := NewUnionFindBackend()
	var res Result
	u.Decode(c, pauli.Z, bm, &res) // warm the scratch
	allocs := testing.AllocsPerRun(100, func() {
		u.Decode(c, pauli.Z, bm, &res)
	})
	if allocs != 0 {
		t.Fatalf("union-find steady state allocates %.1f/op, want 0", allocs)
	}
}

// heavyWindow returns the first k Z-type plaquettes of c in columns 6-9,
// in row-major order. At d=15 each lies at least 6 steps from the
// Z-boundaries and within 3 of the previous one, so every neighbouring
// pair joins a cluster and for k <= 32 they form a single k-member one.
func heavyWindow(c surface.Code, k int) *SyndromeBitmap {
	bm := NewSyndromeBitmap(c)
	n := 0
	for _, st := range c.Stabilizers() {
		if n < k && st.Basis == pauli.Z && st.Anc.Col >= 6 && st.Anc.Col <= 9 {
			bm.Set(st.Anc)
			n++
		}
	}
	return bm
}

// TestMatchingSteadyStateAllocs pins the zero-allocation steady state of
// the matching backend across cluster sizes: once warm, decoding a d=15
// window with an 18-member cluster, then a small window, then the large
// one again allocates nothing (the memo is reused, not regrown).
func TestMatchingSteadyStateAllocs(t *testing.T) {
	c := surface.NewCode(15)
	heavy := heavyWindow(c, 18)
	small := NewSyndromeBitmap(c)
	small.FromMap(SyndromeOf(c, pauli.Z, []surface.Coord{{Row: 3, Col: 4}, {Row: 10, Col: 11}}))
	m := NewMatchingBackend()
	var res Result
	m.Decode(c, pauli.Z, heavy, &res)
	if got := clusterSizes(&m.sc); !reflect.DeepEqual(got, []int{18}) {
		t.Fatalf("heavy window clusters = %v, want one 18-member cluster", got)
	}
	m.Decode(c, pauli.Z, small, &res) // warm the scratch on both shapes
	allocs := testing.AllocsPerRun(20, func() {
		m.Decode(c, pauli.Z, heavy, &res)
		m.Decode(c, pauli.Z, small, &res)
		m.Decode(c, pauli.Z, heavy, &res)
	})
	if allocs != 0 {
		t.Fatalf("matching steady state allocates %.1f/op, want 0", allocs)
	}
}

// TestMemoFollowsReachableSubsets pins the exact matcher's memory to the
// subsets its recurrence reaches: solving a k-member cluster fills
// exactly the subsets boundedReach walks to (9,355 at k=20), never more
// than the F(k+2)-1 nonempty subsets of the unpruned recurrence, in a
// table under 3*F(k+2) slots, never the 2^k a full subset table takes.
// heavyWindow's clusters hold no dominated pair, so only the lower bound
// prunes here (TestMemoSkipsDominatedPairs covers clusters with both
// rules). The clusters are solved largest first through one Scratch, so
// each one starts from the memo slots a larger cluster left behind.
func TestMemoFollowsReachableSubsets(t *testing.T) {
	c := surface.NewCode(15)
	var sc Scratch
	var res Result
	fib := []int{1, 2} // fib[k] = F(k+2)
	for k := 2; k <= maxExactCluster; k++ {
		fib = append(fib, fib[k-1]+fib[k-2])
	}
	// pinned[k] is the bounded walk's count on heavyWindow(c, k).
	pinned := []int{0, 1, 2, 4, 6, 12, 14, 33, 35, 88, 90, 232, 234, 609, 611, 1573, 1592, 3935, 3969, 8589, 9355}
	for k := maxExactCluster; k >= 1; k-- {
		bm := heavyWindow(c, k)
		DecodePatchInto(c, pauli.Z, bm, &sc, &res)
		if got := clusterSizes(&sc); !reflect.DeepEqual(got, []int{k}) {
			t.Fatalf("k=%d: window clusters = %v", k, got)
		}
		if n := dominatedPairs(c, sc.cells); n != 0 {
			t.Fatalf("k=%d: window holds %d dominated pairs", k, n)
		}
		reached := boundedReach(c, pauli.Z, bm.AppendCells(nil))
		filled := memoFilled(&sc)
		if filled != len(reached) || len(sc.claimed) != filled || filled != pinned[k] {
			t.Fatalf("k=%d: %d memo entries filled (%d claimed), want the %d subsets the bounded walk reaches (pinned %d)", k, filled, len(sc.claimed), len(reached), pinned[k])
		}
		if reach := reachableSubsets[k]; reach != fib[k] || filled > reach-1 {
			t.Fatalf("k=%d: %d memo entries filled, table says %d reachable, F(k+2) = %d", k, filled, reach, fib[k])
		}
		if len(sc.memo) >= 3*fib[k] {
			t.Fatalf("k=%d: memo has %d slots for %d reachable subsets", k, len(sc.memo), fib[k])
		}
		if want := ReferenceDecodePatch(c, pauli.Z, synFromBitmap(bm)); !resultsEqual(want, res) {
			t.Fatalf("k=%d: diverged from the reference", k)
		}
	}
}

// memoFilled counts the occupied slots of sc's memo table.
func memoFilled(sc *Scratch) int {
	filled := 0
	for _, e := range sc.memo {
		if e.set != 0 {
			filled++
		}
	}
	return filled
}

// dominatedPairs counts the pairs of cells whose distance is at least
// the sum of their boundary distances, the pairings the exact matcher
// never tries.
func dominatedPairs(c surface.Code, cells []surface.Coord) int {
	n := 0
	for i, a := range cells {
		for _, b := range cells[i+1:] {
			if plaquetteDist(a, b) >= boundaryDist(c, pauli.Z, a)+boundaryDist(c, pauli.Z, b) {
				n++
			}
		}
	}
	return n
}

// subsetCosts solves the matching recurrence over all 2^k subsets of one
// cluster's cells (scan order) by brute force, trying every partner:
// cost[S] is the minimum total chain length that resolves S.
func subsetCosts(c surface.Code, basis pauli.Pauli, cells []surface.Coord) []int32 {
	k := len(cells)
	cost := make([]int32, 1<<uint(k))
	for s := 1; s < len(cost); s++ {
		i := bits.TrailingZeros32(uint32(s))
		rest := s &^ (1 << uint(i))
		best := int32(boundaryDist(c, basis, cells[i])) + cost[rest]
		for j := i + 1; j < k; j++ {
			if rest&(1<<uint(j)) != 0 {
				best = min(best, int32(plaquetteDist(cells[i], cells[j]))+cost[rest&^(1<<uint(j))])
			}
		}
		cost[s] = best
	}
	return cost
}

// boundedReach walks the subsets the exact matcher reaches on one
// cluster, independently of Scratch and with subset costs from
// subsetCosts. From each subset s it steps to s minus its lowest member
// i, then tries i's higher partners j in order, skipping a dominated
// pair (dist(i,j) >= bdist(i)+bdist(j)) and any j with 2·dist(i,j) +
// G(s−i−j) >= 2·best, where best is the cheapest candidate so far (the
// boundary first) and G sums min(2·bdist, distance to the nearest other
// member) over a subset.
func boundedReach(c surface.Code, basis pauli.Pauli, cells []surface.Coord) map[uint32]bool {
	k := len(cells)
	cost := subsetCosts(c, basis, cells)
	bd := make([]int32, k)
	lb := make([]int32, k)
	for i, a := range cells {
		bd[i] = int32(boundaryDist(c, basis, a))
		lb[i] = 2 * bd[i]
		for j, b := range cells {
			if j != i {
				lb[i] = min(lb[i], int32(plaquetteDist(a, b)))
			}
		}
	}
	sumLB := func(s uint32) int32 {
		var g int32
		for ; s != 0; s &= s - 1 {
			g += lb[bits.TrailingZeros32(s)]
		}
		return g
	}
	reached := map[uint32]bool{}
	var walk func(s uint32)
	walk = func(s uint32) {
		if s == 0 || reached[s] {
			return
		}
		reached[s] = true
		i := bits.TrailingZeros32(s)
		rest := s &^ (1 << uint(i))
		walk(rest)
		best := bd[i] + cost[rest]
		for j := i + 1; j < k; j++ {
			d := int32(plaquetteDist(cells[i], cells[j]))
			if rest&(1<<uint(j)) == 0 || d >= bd[i]+bd[j] {
				continue
			}
			sub := rest &^ (1 << uint(j))
			if 2*d+sumLB(sub) >= 2*best {
				continue
			}
			walk(sub)
			best = min(best, d+cost[sub])
		}
	}
	walk(1<<uint(k) - 1)
	return reached
}

// TestMemoSkipsDominatedPairs decodes a d=15 window whose 18 syndromes
// (the first Z plaquettes in columns 2-5, 2-5 steps from the boundary)
// form one cluster holding dominated pairs. The matcher pairs each
// subset's lowest member only with profitable partners that can still
// beat the best candidate under the lower bound, so the memo fills
// exactly the subsets boundedReach walks to: 219, where pruning
// dominated pairs alone reaches 3,885 and the full recurrence
// F(20)-1 = 6,764. The Result still equals the reference matcher's.
func TestMemoSkipsDominatedPairs(t *testing.T) {
	const k = 18
	c := surface.NewCode(15)
	bm := NewSyndromeBitmap(c)
	n := 0
	for _, st := range c.Stabilizers() {
		if n < k && st.Basis == pauli.Z && st.Anc.Col >= 2 && st.Anc.Col <= 5 {
			bm.Set(st.Anc)
			n++
		}
	}
	var sc Scratch
	var res Result
	DecodePatchInto(c, pauli.Z, bm, &sc, &res)
	if got := clusterSizes(&sc); !reflect.DeepEqual(got, []int{k}) {
		t.Fatalf("window clusters = %v, want one %d-member cluster", got, k)
	}
	cells := bm.AppendCells(nil)
	if dominatedPairs(c, cells) == 0 {
		t.Fatal("window holds no dominated pair")
	}

	reached := boundedReach(c, pauli.Z, cells)
	if filled := memoFilled(&sc); filled != len(reached) || len(sc.claimed) != filled {
		t.Fatalf("%d memo entries filled (%d claimed), want the %d subsets the bounded walk reaches", filled, len(sc.claimed), len(reached))
	}
	if len(reached) != 219 {
		t.Fatalf("bounded walk reaches %d subsets, want 219", len(reached))
	}
	if want := ReferenceDecodePatch(c, pauli.Z, synFromBitmap(bm)); !resultsEqual(want, res) {
		t.Fatal("diverged from the reference")
	}
}

// TestLowerBoundAdmissible checks the bound the exact matcher prunes
// with on random d=15 clusters of up to 20 members (the generator of
// TestBitmapEquivalenceFromErrors' heavy windows): for every subset S of
// every cluster, the sum of the Scratch's per-member bounds over S is at
// most twice S's minimum matching cost, solved by brute force.
func TestLowerBoundAdmissible(t *testing.T) {
	r := rand.New(rand.NewSource(1515))
	c := surface.NewCode(15)
	var sc Scratch
	var res Result
	bm := NewSyndromeBitmap(c)
	sizes := map[int]bool{}
	for trial := 0; trial < 150; trial++ {
		basis := []pauli.Pauli{pauli.Z, pauli.X}[r.Intn(2)]
		var errs []surface.Coord
		for i := 0; i < 4+r.Intn(14); i++ {
			errs = append(errs, surface.Coord{Row: r.Intn(15), Col: r.Intn(15)})
		}
		bm.FromMap(SyndromeOf(c, basis, errs))
		sc.cells = bm.AppendCells(sc.cells[:0])
		for g, groups := 0, sc.prepare(c, basis); g < groups; g++ {
			sc.member = sc.member[:0]
			var cells []surface.Coord
			for i := range sc.cells {
				if sc.group[i] == int32(g) {
					sc.member = append(sc.member, int32(i))
					cells = append(cells, sc.cells[i])
				}
			}
			k := len(cells)
			if k > maxExactCluster {
				continue
			}
			decodeClusterInto(c, basis, &sc, &res)
			sizes[k] = true
			cost := subsetCosts(c, basis, cells)
			sum := make([]int32, len(cost))
			for s := 1; s < len(cost); s++ {
				i := bits.TrailingZeros32(uint32(s))
				sum[s] = sum[s&^(1<<uint(i))] + sc.lb[i]
				if sum[s] > 2*cost[s] {
					t.Fatalf("trial %d, %d-member cluster, subset %#x: G = %d > 2·cost = %d", trial, k, s, sum[s], 2*cost[s])
				}
			}
		}
	}
	for k := 1; k <= maxExactCluster; k++ {
		if !sizes[k] {
			t.Fatalf("no %d-member cluster drawn", k)
		}
	}
}
