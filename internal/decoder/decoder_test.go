package decoder

import (
	"math/rand"
	"testing"

	"xqsim/internal/pauli"
	"xqsim/internal/surface"
)

// correctionClears checks that the decoder's flips produce exactly the
// input syndrome (so error + correction is syndrome-free).
func correctionClears(c surface.Code, basis pauli.Pauli, syndrome map[surface.Coord]bool, flips []surface.Coord) bool {
	got := SyndromeOf(c, basis, flips)
	if len(got) != countOn(syndrome) {
		return false
	}
	for p := range got {
		if !syndrome[p] {
			return false
		}
	}
	return true
}

func countOn(m map[surface.Coord]bool) int {
	n := 0
	for _, v := range m {
		if v {
			n++
		}
	}
	return n
}

func TestSingleErrorsExhaustive(t *testing.T) {
	// Every single data-qubit error must be decoded without residual
	// syndrome or logical error, for both bases and several distances.
	for _, d := range []int{3, 5, 7} {
		c := surface.NewCode(d)
		for _, basis := range []pauli.Pauli{pauli.Z, pauli.X} {
			for i := 0; i < d; i++ {
				for j := 0; j < d; j++ {
					errs := []surface.Coord{{Row: i, Col: j}}
					syn := SyndromeOf(c, basis, errs)
					res := DecodePatch(c, basis, syn)
					if !correctionClears(c, basis, syn, res.Flips) {
						t.Fatalf("d=%d basis=%v err=%v: residual syndrome (flips %v)", d, basis, errs[0], res.Flips)
					}
					if ResidualLogicalError(c, basis, errs, res.Flips) {
						t.Fatalf("d=%d basis=%v err=%v: logical error (flips %v)", d, basis, errs[0], res.Flips)
					}
				}
			}
		}
	}
}

func TestDoubleErrorsExhaustive(t *testing.T) {
	// With exact min-weight matching, every weight-2 error must decode
	// without residual syndrome or logical error.
	d := 5
	c := surface.NewCode(d)
	logicalFailures, total := 0, 0
	for _, basis := range []pauli.Pauli{pauli.Z, pauli.X} {
		for a := 0; a < d*d; a++ {
			for b := a + 1; b < d*d; b++ {
				errs := []surface.Coord{
					{Row: a / d, Col: a % d},
					{Row: b / d, Col: b % d},
				}
				syn := SyndromeOf(c, basis, errs)
				res := DecodePatch(c, basis, syn)
				if !correctionClears(c, basis, syn, res.Flips) {
					t.Fatalf("basis=%v errs=%v: residual syndrome", basis, errs)
				}
				total++
				if ResidualLogicalError(c, basis, errs, res.Flips) {
					logicalFailures++
				}
			}
		}
	}
	if logicalFailures != 0 {
		t.Fatalf("weight-2 logical failures: %d/%d (min-weight matching must decode all weight-2 errors)", logicalFailures, total)
	}
}

func TestRandomSparseErrors(t *testing.T) {
	// Random errors of weight <= (d-1)/2 must never produce a logical
	// error under nearest-pair decoding at these densities.
	r := rand.New(rand.NewSource(17))
	for trial := 0; trial < 400; trial++ {
		d := []int{5, 7, 9}[r.Intn(3)]
		c := surface.NewCode(d)
		basis := []pauli.Pauli{pauli.Z, pauli.X}[r.Intn(2)]
		w := 1 + r.Intn((d-1)/2)
		seen := map[surface.Coord]bool{}
		var errs []surface.Coord
		for len(errs) < w {
			q := surface.Coord{Row: r.Intn(d), Col: r.Intn(d)}
			if !seen[q] {
				seen[q] = true
				errs = append(errs, q)
			}
		}
		syn := SyndromeOf(c, basis, errs)
		res := DecodePatch(c, basis, syn)
		if !correctionClears(c, basis, syn, res.Flips) {
			t.Fatalf("trial %d d=%d basis=%v errs=%v: residual syndrome", trial, d, basis, errs)
		}
	}
}

func TestEmptySyndrome(t *testing.T) {
	c := surface.NewCode(5)
	res := DecodePatch(c, pauli.Z, map[surface.Coord]bool{})
	if len(res.Flips) != 0 || len(res.Matches) != 0 {
		t.Fatal("decoding nothing produced output")
	}
}

func TestBoundaryMatching(t *testing.T) {
	// An X error on the left edge creates one non-trivial Z-syndrome near
	// the boundary, which must be boundary-matched.
	c := surface.NewCode(5)
	errs := []surface.Coord{{Row: 2, Col: 0}}
	syn := SyndromeOf(c, pauli.Z, errs)
	res := DecodePatch(c, pauli.Z, syn)
	foundBoundary := false
	for _, m := range res.Matches {
		if m.ToBoundary {
			foundBoundary = true
		}
	}
	if countOn(syn) == 1 && !foundBoundary {
		t.Fatalf("edge syndrome not boundary-matched: %v", res.Matches)
	}
}

func TestPairPathZigzag(t *testing.T) {
	// Same-row plaquettes two columns apart: the path must contain exactly
	// 2 data qubits and clear the pair.
	c := surface.NewCode(7)
	a := surface.Coord{Row: 3, Col: 2}
	b := surface.Coord{Row: 3, Col: 4}
	path := pairPath(c, a, b)
	if len(path) != 2 {
		t.Fatalf("zigzag path = %v", path)
	}
	// The path's syndrome must be exactly {a, b} (both same type; pick the
	// basis matching their parity).
	basis := pauli.Z
	if (a.Row+a.Col)%2 == 1 {
		basis = pauli.X
	}
	syn := SyndromeOf(c, basis, path)
	if len(syn) != 2 || !syn[a] || !syn[b] {
		t.Fatalf("zigzag path syndrome = %v, want {%v,%v}", syn, a, b)
	}
}

func TestPlaquetteDist(t *testing.T) {
	cases := []struct {
		a, b surface.Coord
		want int
	}{
		{surface.Coord{Row: 0, Col: 0}, surface.Coord{Row: 0, Col: 0}, 0},
		{surface.Coord{Row: 1, Col: 1}, surface.Coord{Row: 2, Col: 2}, 1},
		{surface.Coord{Row: 1, Col: 1}, surface.Coord{Row: 3, Col: 1}, 2},
		{surface.Coord{Row: 0, Col: 2}, surface.Coord{Row: 4, Col: 0}, 4},
	}
	for _, c := range cases {
		if got := plaquetteDist(c.a, c.b); got != c.want {
			t.Errorf("dist(%v,%v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestDeterminism(t *testing.T) {
	c := surface.NewCode(7)
	errs := []surface.Coord{{Row: 1, Col: 1}, {Row: 3, Col: 4}, {Row: 5, Col: 2}}
	syn := SyndromeOf(c, pauli.Z, errs)
	a := DecodePatch(c, pauli.Z, syn)
	b := DecodePatch(c, pauli.Z, syn)
	if len(a.Matches) != len(b.Matches) {
		t.Fatal("nondeterministic match count")
	}
	for i := range a.Matches {
		if a.Matches[i] != b.Matches[i] {
			t.Fatalf("match %d differs: %v vs %v", i, a.Matches[i], b.Matches[i])
		}
	}
}

func TestSchemeCycleOrdering(t *testing.T) {
	// For a sparse syndrome over a large array, round-robin must cost far
	// more than the priority encoder; patch-sliding is within the window
	// overhead of priority.
	const d = 7
	matches := []Match{{Steps: 2}, {Steps: 3}, {Steps: 1}}
	totalCells := 10000
	rr := WindowCycles(SchemeRoundRobin, d, matches, nil, totalCells, 0)
	pr := WindowCycles(SchemePriority, d, matches, nil, totalCells, 0)
	ps := WindowCycles(SchemePatchSliding, d, matches, nil, totalCells, 12)
	if rr <= pr {
		t.Fatalf("RR (%d) should exceed priority (%d)", rr, pr)
	}
	if rr < d*uint64(totalCells) {
		t.Fatalf("RR (%d) must include the full scan of every round (%d)", rr, d*totalCells)
	}
	if ps < pr || ps > pr+12 {
		t.Fatalf("patch-sliding (%d) should be priority (%d) plus window fill", ps, pr)
	}
	// Empty decode costs only the scan (RR) or nothing (priority).
	if WindowCycles(SchemePriority, d, nil, nil, totalCells, 0) != 0 {
		t.Error("priority empty decode should be free")
	}
	if WindowCycles(SchemeRoundRobin, d, nil, nil, totalCells, 0) != d*uint64(totalCells) {
		t.Error("RR empty decode still scans")
	}
}

// TestWindowPricesMatchPerSchemeFormula: the one-pass prices equal each
// scheme's own formula, summed match by match, over random match lists
// (empty ones included) and slide counts, and an unknown scheme prices
// 0 without indexing out of range.
func TestWindowPricesMatchPerSchemeFormula(t *testing.T) {
	spike := func(d int, m Match) int { return 2*m.Steps + SpikeWaitCycles(d) + SpikeOverheadCycles }
	formula := func(s Scheme, d int, z, x []Match, cells, slides int) uint64 {
		rr, pz, px := d*cells, len(z), len(x)
		for _, m := range z {
			rr += spike(d, m)
			pz += spike(d, m)
		}
		for _, m := range x {
			rr += spike(d, m)
			px += spike(d, m)
		}
		switch s {
		case SchemeRoundRobin:
			return uint64(rr)
		case SchemePriority:
			return uint64(max(pz, px))
		case SchemePatchSliding:
			return uint64(max(pz, px) + slides)
		}
		return 0
	}
	rng := rand.New(rand.NewSource(23))
	matches := func() []Match {
		ms := make([]Match, rng.Intn(6)) // 0..5: empty lists included
		for i := range ms {
			ms[i] = Match{Steps: rng.Intn(30), ToBoundary: rng.Intn(2) == 0}
		}
		return ms
	}
	for i := 0; i < 2000; i++ {
		d := 3 + 2*rng.Intn(10)
		z, x := matches(), matches()
		cells, slides := rng.Intn(5000), rng.Intn(3)*rng.Intn(20)
		prices := WindowPrices(d, z, x, cells, slides)
		for s := Scheme(-1); s <= NumSchemes+4; s++ {
			want := formula(s, d, z, x, cells, slides)
			if got := WindowCycles(s, d, z, x, cells, slides); got != want {
				t.Fatalf("case %d: WindowCycles(%v, d=%d, %d+%d matches, %d cells, %d slides) = %d, want %d",
					i, s, d, len(z), len(x), cells, slides, got, want)
			}
			if s.Known() && prices[s] != want {
				t.Fatalf("case %d: WindowPrices[%v] = %d, want %d", i, s, prices[s], want)
			}
		}
	}
}

func TestSyndromeLinearity(t *testing.T) {
	// Syndromes are linear: syndrome(a ++ b) == syndrome(a) XOR syndrome(b).
	r := rand.New(rand.NewSource(23))
	c := surface.NewCode(7)
	for trial := 0; trial < 100; trial++ {
		var a, b []surface.Coord
		for i := 0; i < 3; i++ {
			a = append(a, surface.Coord{Row: r.Intn(7), Col: r.Intn(7)})
			b = append(b, surface.Coord{Row: r.Intn(7), Col: r.Intn(7)})
		}
		sa := SyndromeOf(c, pauli.Z, a)
		sb := SyndromeOf(c, pauli.Z, b)
		sab := SyndromeOf(c, pauli.Z, append(append([]surface.Coord{}, a...), b...))
		for p := range sab {
			if sa[p] == sb[p] {
				t.Fatalf("linearity broken at %v", p)
			}
		}
		for p := range sa {
			if sa[p] && !sb[p] && !sab[p] {
				t.Fatalf("linearity broken (missing) at %v", p)
			}
		}
	}
}

func BenchmarkDecodePatchSparse(b *testing.B) {
	// Representative d=15 window at the paper's syndrome density.
	c := surface.NewCode(15)
	r := rand.New(rand.NewSource(5))
	var errs []surface.Coord
	for i := 0; i < 6; i++ {
		errs = append(errs, surface.Coord{Row: r.Intn(15), Col: r.Intn(15)})
	}
	syn := SyndromeOf(c, pauli.Z, errs)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		DecodePatch(c, pauli.Z, syn)
	}
}
