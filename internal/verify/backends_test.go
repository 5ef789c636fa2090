package verify

import (
	"testing"

	"xqsim/internal/decoder"
	"xqsim/internal/pauli"
	"xqsim/internal/surface"
)

// TestCheckBackendsPasses runs the backend differential check across the
// quick-depth distances at volume.
func TestCheckBackendsPasses(t *testing.T) {
	for _, d := range Quick.DecoderDistances {
		if f := CheckBackends(int64(1000+d), d, 150); f != nil {
			t.Fatalf("%v", f)
		}
	}
}

// TestShrinkSyndromeMinimizes pins the shrinker: with a predicate that
// fails whenever a marker cell is present, the shrunk syndrome is exactly
// that cell.
func TestShrinkSyndromeMinimizes(t *testing.T) {
	marker := surface.Coord{Row: 2, Col: 3}
	syn := map[surface.Coord]bool{
		{Row: 0, Col: 1}: true,
		{Row: 1, Col: 2}: true,
		marker:           true,
		{Row: 4, Col: 4}: true,
		{Row: 5, Col: 0}: false, // explicit-false entries must be dropped
	}
	got := shrinkSyndrome(syn, func(s map[surface.Coord]bool) bool {
		return s[marker]
	})
	if len(got) != 1 || !got[marker] {
		t.Fatalf("shrunk to %v, want just %v", got, marker)
	}
}

// TestBackendsGreedyClusterRegression pins the case that failed
// `xqverify -depth deep` (backends seed 2033485674090003237, d=13),
// shrunk to one 21-syndrome cluster. That is past the exact matcher's
// 20, so the reference falls back to greedy matching (weight 22) and
// union-find finds a valid weight-17 correction: the reference is no
// lower bound there, and the contract check must not claim it is.
func TestBackendsGreedyClusterRegression(t *testing.T) {
	c := surface.NewCode(13)
	syn := make(map[surface.Coord]bool)
	for _, p := range []surface.Coord{
		{Row: 1, Col: 1}, {Row: 3, Col: 3}, {Row: 4, Col: 8}, {Row: 5, Col: 5}, {Row: 5, Col: 7},
		{Row: 6, Col: 6}, {Row: 6, Col: 10}, {Row: 6, Col: 12}, {Row: 7, Col: 3}, {Row: 8, Col: 10},
		{Row: 9, Col: 1}, {Row: 10, Col: 2}, {Row: 10, Col: 6}, {Row: 10, Col: 12}, {Row: 11, Col: 3},
		{Row: 11, Col: 7}, {Row: 12, Col: 6}, {Row: 12, Col: 8}, {Row: 12, Col: 12}, {Row: 13, Col: 7},
		{Row: 13, Col: 9},
	} {
		syn[p] = true
	}
	bm := decoder.NewSyndromeBitmap(c)
	bm.FromMap(syn)
	if decoder.FitsExactMatcher(c, pauli.Z, bm) {
		t.Fatal("the 21-syndrome cluster fits the exact matcher")
	}
	uf, err := decoder.NewBackendByName("union-find")
	if err != nil {
		t.Fatal(err)
	}
	var res decoder.Result
	uf.Decode(c, pauli.Z, bm, &res)
	ref := decoder.ReferenceDecodePatch(c, pauli.Z, syn)
	if len(res.Flips) != 17 || len(ref.Flips) != 22 {
		t.Fatalf("weights: union-find %d, reference %d; want 17 below the greedy 22", len(res.Flips), len(ref.Flips))
	}
	if detail := backendFailureDetail(uf, c, pauli.Z, syn); detail != "" {
		t.Fatalf("contract check: %s", detail)
	}
}
