package decoder

import (
	"testing"

	"xqsim/internal/pauli"
	"xqsim/internal/surface"
)

// FuzzDecodePatch maps fuzzer bytes onto arbitrary subsets of a code's
// stabilizer ancillas and asserts the bit-packed production decoder
// (DecodePatch / DecodePatchInto) returns Results identical to the
// frozen reference matcher, and that the reported correction's own
// syndrome cancels the input syndrome exactly. Each input is decoded
// both through a fresh Scratch and through one that has just solved a
// 20-member d=15 cluster, so the memo slots a larger cluster left behind
// must not leak into the input's solve.
func FuzzDecodePatch(f *testing.F) {
	big := surface.NewCode(15)
	heavy := heavyWindow(big, maxExactCluster)
	f.Add(byte(0), byte(0), []byte{})
	f.Add(byte(0), byte(1), []byte{0x01})
	f.Add(byte(1), byte(0), []byte{0xff, 0x0f})
	f.Add(byte(2), byte(1), []byte{0xaa, 0x55, 0x33})
	f.Add(byte(2), byte(0), []byte{0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, dSel, basisSel byte, bits []byte) {
		d := []int{3, 5, 7}[int(dSel)%3]
		basis := pauli.Z
		if basisSel%2 == 1 {
			basis = pauli.X
		}
		c := surface.NewCode(d)
		// Bit i of the input selects the i-th stabilizer of the chosen
		// basis, so every input is a valid plaquette subset and the whole
		// subset space is reachable.
		syn := make(map[surface.Coord]bool)
		i := 0
		for _, st := range c.Stabilizers() {
			if st.Basis != basis {
				continue
			}
			if i/8 < len(bits) && bits[i/8]&(1<<uint(i%8)) != 0 {
				syn[st.Anc] = true
			}
			i++
		}

		want := ReferenceDecodePatch(c, basis, syn)
		got := DecodePatch(c, basis, syn)
		if !resultsEqual(want, got) {
			t.Fatalf("d=%d basis=%v syn=%v:\nref %+v\ngot %+v", d, basis, syn, want, got)
		}

		bm := NewSyndromeBitmap(c)
		bm.FromMap(syn)
		var sc Scratch
		var res Result
		DecodePatchInto(c, basis, bm, &sc, &res)
		if !resultsEqual(want, res) {
			t.Fatalf("d=%d basis=%v syn=%v: DecodePatchInto diverged:\nref %+v\ngot %+v", d, basis, syn, want, res)
		}
		var used Scratch
		DecodePatchInto(big, pauli.Z, heavy, &used, &res)
		DecodePatchInto(c, basis, bm, &used, &res)
		if !resultsEqual(want, res) {
			t.Fatalf("d=%d basis=%v syn=%v: DecodePatchInto after a larger cluster diverged:\nref %+v\ngot %+v", d, basis, syn, want, res)
		}

		resyn := SyndromeOf(c, basis, got.Flips)
		for p, on := range syn {
			if on != resyn[p] {
				t.Fatalf("d=%d basis=%v: correction does not cancel syndrome at %v (flips %v)", d, basis, p, got.Flips)
			}
		}
		for p, on := range resyn {
			if on && !syn[p] {
				t.Fatalf("d=%d basis=%v: correction excites plaquette %v (flips %v)", d, basis, p, got.Flips)
			}
		}
	})
}
