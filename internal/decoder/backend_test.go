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
// exactly F(k+2)-1 memo entries (every reached subset but the empty one)
// in a table under 3*F(k+2) slots, never the 2^k a full subset table
// takes. The count is exact because heavyWindow's clusters hold no
// dominated pair, so no partner is pruned (TestMemoSkipsDominatedPairs
// covers clusters that do).
func TestMemoFollowsReachableSubsets(t *testing.T) {
	c := surface.NewCode(15)
	var sc Scratch
	var res Result
	fib := []int{1, 2} // fib[k] = F(k+2)
	for k := 1; k <= maxExactCluster; k++ {
		fib = append(fib, fib[k]+fib[k-1])
		bm := heavyWindow(c, k)
		DecodePatchInto(c, pauli.Z, bm, &sc, &res)
		if got := clusterSizes(&sc); !reflect.DeepEqual(got, []int{k}) {
			t.Fatalf("k=%d: window clusters = %v", k, got)
		}
		if n := dominatedPairs(c, sc.cells); n != 0 {
			t.Fatalf("k=%d: window holds %d dominated pairs", k, n)
		}
		filled := 0
		for _, e := range sc.memo {
			if e.set != 0 {
				filled++
			}
		}
		if reach := reachableSubsets[k]; reach != fib[k] || filled != reach-1 {
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

// TestMemoSkipsDominatedPairs decodes a d=15 window whose 18 syndromes
// (the first Z plaquettes in columns 2-5, 2-5 steps from the boundary)
// form one cluster holding dominated pairs. The matcher pairs each
// subset's lowest member only with profitable partners, so the memo
// fills exactly the subsets that walk reaches, counted here by brute
// force, which is fewer than the F(k+2)-1 of the full recurrence; the
// Result still equals the reference matcher's.
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
		for j := i + 1; j < k; j++ {
			a, b := cells[i], cells[j]
			if rest&(1<<uint(j)) != 0 && plaquetteDist(a, b) < boundaryDist(c, pauli.Z, a)+boundaryDist(c, pauli.Z, b) {
				walk(rest &^ (1 << uint(j)))
			}
		}
	}
	walk(1<<k - 1)

	filled := 0
	for _, e := range sc.memo {
		if e.set != 0 {
			filled++
		}
	}
	if filled != len(reached) {
		t.Fatalf("%d memo entries filled, want the %d subsets the pruned walk reaches", filled, len(reached))
	}
	if full := reachableSubsets[k] - 1; len(reached) >= full {
		t.Fatalf("pruned walk reaches %d subsets, not below the full recurrence's %d", len(reached), full)
	}
	if want := ReferenceDecodePatch(c, pauli.Z, synFromBitmap(bm)); !resultsEqual(want, res) {
		t.Fatal("diverged from the reference")
	}
}
