package decoder

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"xqsim/internal/pauli"
	"xqsim/internal/surface"
)

// randomSyndrome draws a random subset of the basis' plaquettes, biased
// toward the sparse densities the decode windows see, with occasional
// dense draws to stress clustering and the exact matcher.
func randomSyndrome(r *rand.Rand, c surface.Code, basis pauli.Pauli, dense bool) map[surface.Coord]bool {
	syn := make(map[surface.Coord]bool)
	p := 0.05
	if dense {
		p = 0.35
	}
	for _, st := range c.Stabilizers() {
		if st.Basis != basis {
			continue
		}
		if r.Float64() < p {
			syn[st.Anc] = true
		}
	}
	// Sprinkle explicit-false entries: both paths must ignore them.
	for i := 0; i < 3; i++ {
		q := surface.Coord{Row: r.Intn(c.D + 1), Col: r.Intn(c.D + 1)}
		if !syn[q] {
			syn[q] = false
		}
	}
	return syn
}

// TestBitmapEquivalence asserts the bit-packed decoder returns identical
// Results (matches, corrections, order) to the seed's map-based
// implementation (frozen in reference.go) across random syndromes.
func TestBitmapEquivalence(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	for _, d := range []int{3, 5, 7} {
		c := surface.NewCode(d)
		for _, basis := range []pauli.Pauli{pauli.Z, pauli.X} {
			for trial := 0; trial < 200; trial++ {
				syn := randomSyndrome(r, c, basis, trial%5 == 0)
				want := ReferenceDecodePatch(c, basis, syn)
				got := DecodePatch(c, basis, syn)
				if !resultsEqual(want, got) {
					t.Fatalf("d=%d basis=%v trial=%d:\nref %+v\ngot %+v", d, basis, trial, want, got)
				}
			}
		}
	}
}

// TestBitmapEquivalenceFromErrors repeats the check with physically
// realizable syndromes (generated from random error chains), including a
// d=15 spot check at the paper's operating distance.
func TestBitmapEquivalenceFromErrors(t *testing.T) {
	r := rand.New(rand.NewSource(43))
	for _, d := range []int{3, 5, 7, 15} {
		c := surface.NewCode(d)
		for trial := 0; trial < 100; trial++ {
			basis := []pauli.Pauli{pauli.Z, pauli.X}[r.Intn(2)]
			var errs []surface.Coord
			for i := 0; i < 1+r.Intn(d); i++ {
				errs = append(errs, surface.Coord{Row: r.Intn(d), Col: r.Intn(d)})
			}
			syn := SyndromeOf(c, basis, errs)
			want := ReferenceDecodePatch(c, basis, syn)
			got := DecodePatch(c, basis, syn)
			if !resultsEqual(want, got) {
				t.Fatalf("d=%d basis=%v errs=%v:\nref %+v\ngot %+v", d, basis, errs, want, got)
			}
		}
	}

	// Heavier d=15 windows (4-17 errors) reach every exact-matcher
	// cluster size from 2 to 20 -- the sizes that carry most of the
	// matcher's work at the paper's operating distance -- through one
	// reused Scratch. The per-size census is pinned so this coverage
	// cannot silently vanish.
	r = rand.New(rand.NewSource(1515))
	c := surface.NewCode(15)
	var sc Scratch
	bm := NewSyndromeBitmap(c)
	var res Result
	census := make([]int, maxExactCluster+1)
	for trial := 0; trial < 150; trial++ {
		basis := []pauli.Pauli{pauli.Z, pauli.X}[r.Intn(2)]
		var errs []surface.Coord
		for i := 0; i < 4+r.Intn(14); i++ {
			errs = append(errs, surface.Coord{Row: r.Intn(15), Col: r.Intn(15)})
		}
		syn := SyndromeOf(c, basis, errs)
		bm.FromMap(syn)
		DecodePatchInto(c, basis, bm, &sc, &res)
		if want := ReferenceDecodePatch(c, basis, syn); !resultsEqual(want, res) {
			t.Fatalf("d=15 trial=%d basis=%v errs=%v:\nref %+v\ngot %+v", trial, basis, errs, want, res)
		}
		for _, k := range clusterSizes(&sc) {
			if k <= maxExactCluster {
				census[k]++
			}
		}
	}
	want := []int{0, 12, 13, 5, 3, 1, 6, 8, 12, 9, 9, 9, 24, 13, 20, 10, 7, 3, 3, 6, 2}
	if !reflect.DeepEqual(census, want) {
		t.Fatalf("d=15 cluster-size census (index = members) = %v, want %v", census, want)
	}
}

// clusterSizes returns the member count of each cluster of sc's last
// decode, in cluster (first-seen scan) order.
func clusterSizes(sc *Scratch) []int {
	var sizes []int
	for i := range sc.cells {
		g := int(sc.group[i])
		for len(sizes) <= g {
			sizes = append(sizes, 0)
		}
		sizes[g]++
	}
	return sizes
}

// TestGreedyFallbackEquivalence forces clusters past maxExactCluster so
// the greedy path is exercised on both implementations.
func TestGreedyFallbackEquivalence(t *testing.T) {
	r := rand.New(rand.NewSource(47))
	c := surface.NewCode(15)
	for trial := 0; trial < 20; trial++ {
		syn := make(map[surface.Coord]bool)
		n := 0
		for _, st := range c.Stabilizers() {
			if st.Basis != pauli.Z {
				continue
			}
			if r.Float64() < 0.6 {
				syn[st.Anc] = true
				n++
			}
		}
		if n <= maxExactCluster {
			continue
		}
		want := ReferenceDecodePatch(c, pauli.Z, syn)
		got := DecodePatch(c, pauli.Z, syn)
		if !resultsEqual(want, got) {
			t.Fatalf("trial=%d (n=%d): greedy fallback diverged", trial, n)
		}
	}
}

// TestScratchReuseIsolation asserts a reused Scratch carries no state
// between decodes: interleaving two streams through one scratch equals
// decoding each fresh.
func TestScratchReuseIsolation(t *testing.T) {
	r := rand.New(rand.NewSource(53))
	c := surface.NewCode(7)
	var sc Scratch
	bm := NewSyndromeBitmap(c)
	var res Result
	for trial := 0; trial < 100; trial++ {
		basis := []pauli.Pauli{pauli.Z, pauli.X}[trial%2]
		syn := randomSyndrome(r, c, basis, trial%7 == 0)
		bm.FromMap(syn)
		DecodePatchInto(c, basis, bm, &sc, &res)
		want := ReferenceDecodePatch(c, basis, syn)
		if !resultsEqual(want, res) {
			t.Fatalf("trial=%d: scratch reuse diverged:\nref %+v\ngot %+v", trial, want, res)
		}
	}
}

// TestByteIdenticalResults is the regression for the ordering audit: two
// identically-seeded decode runs must produce byte-identical Results even
// though the input syndromes pass through Go's randomized map iteration.
func TestByteIdenticalResults(t *testing.T) {
	run := func(seed int64) string {
		r := rand.New(rand.NewSource(seed))
		var out []byte
		for _, d := range []int{3, 7, 15} {
			c := surface.NewCode(d)
			for trial := 0; trial < 50; trial++ {
				basis := []pauli.Pauli{pauli.Z, pauli.X}[r.Intn(2)]
				syn := randomSyndrome(r, c, basis, trial%4 == 0)
				res := DecodePatch(c, basis, syn)
				out = fmt.Appendf(out, "%v|%v\n", res.Matches, res.Flips)
			}
		}
		return string(out)
	}
	if a, b := run(61), run(61); a != b {
		t.Fatal("identically-seeded decode runs produced different Results")
	}
}

// TestBitmapOps covers the bitmap container itself.
func TestBitmapOps(t *testing.T) {
	c := surface.NewCode(7)
	bm := NewSyndromeBitmap(c)
	pts := []surface.Coord{{Row: 0, Col: 0}, {Row: 3, Col: 5}, {Row: 7, Col: 7}}
	for _, p := range pts {
		bm.Set(p)
	}
	if bm.Count() != len(pts) {
		t.Fatalf("count = %d", bm.Count())
	}
	for _, p := range pts {
		if !bm.Get(p) {
			t.Fatalf("bit %v lost", p)
		}
	}
	got := bm.AppendCells(nil)
	if !reflect.DeepEqual(got, pts) {
		t.Fatalf("scan order %v, want row-major %v", got, pts)
	}
	bm.Clear(pts[1])
	if bm.Get(pts[1]) || bm.Count() != 2 {
		t.Fatal("clear failed")
	}
	// Resize to a smaller code must drop stale bits.
	bm.Resize(surface.NewCode(3))
	if bm.Count() != 0 {
		t.Fatalf("resize kept %d stale bits", bm.Count())
	}
}

func resultsEqual(a, b Result) bool {
	if len(a.Matches) != len(b.Matches) || len(a.Flips) != len(b.Flips) {
		return false
	}
	for i := range a.Matches {
		if a.Matches[i] != b.Matches[i] {
			return false
		}
	}
	for i := range a.Flips {
		if a.Flips[i] != b.Flips[i] {
			return false
		}
	}
	return true
}

// BenchmarkDecodePatch measures the allocation-free hot path on a
// representative d=15 window at the paper's syndrome density. The
// acceptance bar is zero allocations per decoded round (-benchmem).
func BenchmarkDecodePatch(b *testing.B) {
	c := surface.NewCode(15)
	r := rand.New(rand.NewSource(5))
	var errs []surface.Coord
	for i := 0; i < 6; i++ {
		errs = append(errs, surface.Coord{Row: r.Intn(15), Col: r.Intn(15)})
	}
	bm := NewSyndromeBitmap(c)
	bm.FromMap(SyndromeOf(c, pauli.Z, errs))
	var sc Scratch
	var res Result
	DecodePatchInto(c, pauli.Z, bm, &sc, &res) // warm the scratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		DecodePatchInto(c, pauli.Z, bm, &sc, &res)
	}
}

// BenchmarkDecodePatchDense decodes a window of 20 random errors, still
// allocation-free after warmup.
func BenchmarkDecodePatchDense(b *testing.B) {
	c := surface.NewCode(15)
	r := rand.New(rand.NewSource(9))
	var errs []surface.Coord
	for i := 0; i < 20; i++ {
		errs = append(errs, surface.Coord{Row: r.Intn(15), Col: r.Intn(15)})
	}
	bm := NewSyndromeBitmap(c)
	bm.FromMap(SyndromeOf(c, pauli.Z, errs))
	var sc Scratch
	var res Result
	DecodePatchInto(c, pauli.Z, bm, &sc, &res)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		DecodePatchInto(c, pauli.Z, bm, &sc, &res)
	}
}

// BenchmarkDecodePatchCluster decodes d=15 windows holding one k-member
// cluster (heavyWindow), the heavy tail of the exact matcher's work.
func BenchmarkDecodePatchCluster(b *testing.B) {
	c := surface.NewCode(15)
	for _, k := range []int{14, 18, 20} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			bm := heavyWindow(c, k)
			var sc Scratch
			var res Result
			DecodePatchInto(c, pauli.Z, bm, &sc, &res)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				DecodePatchInto(c, pauli.Z, bm, &sc, &res)
			}
		})
	}
}

// BenchmarkSyndromeBitmap measures the bitmap fill/scan cycle that
// replaced the per-window map churn.
func BenchmarkSyndromeBitmap(b *testing.B) {
	c := surface.NewCode(15)
	bm := NewSyndromeBitmap(c)
	pts := []surface.Coord{{Row: 1, Col: 2}, {Row: 4, Col: 9}, {Row: 8, Col: 3}, {Row: 12, Col: 14}, {Row: 15, Col: 7}}
	cells := make([]surface.Coord, 0, 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bm.Reset()
		for _, p := range pts {
			bm.Set(p)
		}
		cells = bm.AppendCells(cells[:0])
	}
	if len(cells) != len(pts) {
		b.Fatal("scan lost cells")
	}
}
