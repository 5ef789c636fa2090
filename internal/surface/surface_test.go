package surface

import (
	"slices"
	"testing"

	"xqsim/internal/pauli"
)

// overlap counts common coordinates between two supports.
func overlap(a, b []Coord) int {
	set := make(map[Coord]bool, len(a))
	for _, q := range a {
		set[q] = true
	}
	n := 0
	for _, q := range b {
		if set[q] {
			n++
		}
	}
	return n
}

func TestStabilizerCount(t *testing.T) {
	for _, d := range []int{3, 5, 7, 9} {
		c := NewCode(d)
		stabs := c.Stabilizers()
		if len(stabs) != d*d-1 {
			t.Errorf("d=%d: %d stabilizers, want %d", d, len(stabs), d*d-1)
		}
		nz, nx := 0, 0
		for _, s := range stabs {
			switch s.Basis {
			case pauli.Z:
				nz++
			case pauli.X:
				nx++
			default:
				t.Fatalf("d=%d: stabilizer with basis %v", d, s.Basis)
			}
			if len(s.Data) != 2 && len(s.Data) != 4 {
				t.Errorf("d=%d: stabilizer at %v has weight %d", d, s.Anc, len(s.Data))
			}
		}
		if nz != (d*d-1)/2 || nx != (d*d-1)/2 {
			t.Errorf("d=%d: %d Z and %d X stabilizers, want equal halves", d, nz, nx)
		}
	}
}

func TestStabilizersCommute(t *testing.T) {
	for _, d := range []int{3, 5, 7} {
		c := NewCode(d)
		stabs := c.Stabilizers()
		for i := 0; i < len(stabs); i++ {
			for j := i + 1; j < len(stabs); j++ {
				a, b := stabs[i], stabs[j]
				if a.Basis == b.Basis {
					continue // same-type stabilizers always commute
				}
				if overlap(a.Data, b.Data)%2 != 0 {
					t.Errorf("d=%d: stabilizers at %v and %v anticommute", d, a.Anc, b.Anc)
				}
			}
		}
	}
}

func TestLogicalOperators(t *testing.T) {
	for _, d := range []int{3, 5, 7} {
		c := NewCode(d)
		lz, lx := c.LogicalZ(), c.LogicalX()
		if len(lz) != d || len(lx) != d {
			t.Fatalf("d=%d: logical weights %d/%d, want %d", d, len(lz), len(lx), d)
		}
		// Logical Z (a Z string) must overlap every X stabilizer evenly;
		// logical X must overlap every Z stabilizer evenly.
		for _, s := range c.Stabilizers() {
			if s.Basis == pauli.X && overlap(lz, s.Data)%2 != 0 {
				t.Errorf("d=%d: logical Z anticommutes with X stabilizer at %v", d, s.Anc)
			}
			if s.Basis == pauli.Z && overlap(lx, s.Data)%2 != 0 {
				t.Errorf("d=%d: logical X anticommutes with Z stabilizer at %v", d, s.Anc)
			}
		}
		// The two logicals anticommute (odd overlap).
		if overlap(lz, lx)%2 != 1 {
			t.Errorf("d=%d: logical X and Z overlap evenly", d)
		}
	}
}

func TestEveryDataQubitCovered(t *testing.T) {
	// Every data qubit must be in the support of at least one Z and one X
	// stabilizer (otherwise single-qubit errors there go undetected).
	for _, d := range []int{3, 5, 7} {
		c := NewCode(d)
		zc := make(map[Coord]int)
		xc := make(map[Coord]int)
		for _, s := range c.Stabilizers() {
			for _, q := range s.Data {
				if s.Basis == pauli.Z {
					zc[q]++
				} else {
					xc[q]++
				}
			}
		}
		for i := 0; i < d; i++ {
			for j := 0; j < d; j++ {
				q := Coord{i, j}
				if zc[q] == 0 {
					t.Errorf("d=%d: data %v has no Z stabilizer (X errors invisible)", d, q)
				}
				if xc[q] == 0 {
					t.Errorf("d=%d: data %v has no X stabilizer (Z errors invisible)", d, q)
				}
			}
		}
	}
}

func TestBoundaryBasisConvention(t *testing.T) {
	c := NewCode(3)
	if c.BoundaryBasis(Top) != pauli.Z || c.BoundaryBasis(Bottom) != pauli.Z {
		t.Error("top/bottom should be Z-boundaries")
	}
	if c.BoundaryBasis(Left) != pauli.X || c.BoundaryBasis(Right) != pauli.X {
		t.Error("left/right should be X-boundaries")
	}
	if Left.Opposite() != Right || Top.Opposite() != Bottom {
		t.Error("Opposite broken")
	}
}

func TestInvalidDistancePanics(t *testing.T) {
	for _, d := range []int{0, 1, 2, 4} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewCode(%d) did not panic", d)
				}
			}()
			NewCode(d)
		}()
	}
}

func TestLatticeMapping(t *testing.T) {
	l := NewLattice(3, 5, 3)
	if l.NumPatches() != 15 {
		t.Fatalf("patches = %d", l.NumPatches())
	}
	l.MapLogical(7, 4, InitPlus)
	idx, ok := l.PatchOfLQ(7)
	if !ok || idx != 4 {
		t.Fatalf("PatchOfLQ = %d,%v", idx, ok)
	}
	p := l.Patch(4)
	if p.Static.Type != Mapped || p.Static.Init != InitPlus || p.Static.LQ != 7 {
		t.Fatalf("static info wrong: %+v", p.Static)
	}
	l.UnmapLogical(7)
	if _, ok := l.PatchOfLQ(7); ok {
		t.Fatal("unmap failed")
	}
	if l.Patch(4).Static.Type != Intermediate {
		t.Fatal("patch not released")
	}
}

func TestDoubleMapPanics(t *testing.T) {
	l := NewLattice(1, 2, 3)
	l.MapLogical(0, 0, InitZero)
	defer func() {
		if recover() == nil {
			t.Error("expected panic mapping onto occupied patch")
		}
	}()
	l.MapLogical(1, 0, InitZero)
}

func TestMergeRegionStraightLine(t *testing.T) {
	// Two mapped patches separated by one intermediate on a 1x3 strip.
	l := NewLattice(1, 3, 3)
	l.MapLogical(0, 0, InitZero)
	l.MapLogical(1, 2, InitZero)
	region, err := l.MergeRegion([]int{0, 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(region) != 3 || region[0] != 0 || region[1] != 1 || region[2] != 2 {
		t.Fatalf("region = %v", region)
	}
}

func TestMergeRegionBlocked(t *testing.T) {
	// The only path passes through another mapped patch: must fail.
	l := NewLattice(1, 3, 3)
	l.MapLogical(0, 0, InitZero)
	l.MapLogical(1, 1, InitZero)
	l.MapLogical(2, 2, InitZero)
	if _, err := l.MergeRegion([]int{0, 2}); err == nil {
		t.Fatal("expected routing failure through mapped patch")
	}
}

func TestMergeRegionMultiTarget(t *testing.T) {
	lay := NewPPRLayout(3, 3)
	// Merge LQ patches 0 and 2 (patch idx 0 and 4) with the magic patch.
	p0, _ := lay.PatchOfLQ(0)
	p2, _ := lay.PatchOfLQ(2)
	lay.MapLogical(lay.MagicLQ, lay.MagicP, InitMagic)
	region, err := lay.MergeRegion([]int{p0, p2, lay.MagicP})
	if err != nil {
		t.Fatal(err)
	}
	has := func(idx int) bool {
		for _, i := range region {
			if i == idx {
				return true
			}
		}
		return false
	}
	if !has(p0) || !has(p2) || !has(lay.MagicP) {
		t.Fatalf("region %v missing targets", region)
	}
	// Region must be connected: every patch has an in-region neighbor
	// (single-target degenerate case aside).
	for _, idx := range region {
		ok := false
		nbs, n := lay.neighbors4(idx)
		for _, nb := range nbs[:n] {
			if has(nb[0]) {
				ok = true
			}
		}
		if !ok {
			t.Fatalf("region %v not connected at %d", region, idx)
		}
	}
}

func TestApplyMergeAndSplitDynamics(t *testing.T) {
	// Reproduces the Table 2 style transition: merging flips seam sides to
	// Z&X, sets ESM_on and merge_on; splitting restores static boundaries.
	l := NewLattice(1, 3, 3)
	l.MapLogical(0, 0, InitZero)
	l.EnableESM(0)
	l.MapLogical(1, 2, InitPlus)
	l.EnableESM(2)
	// A mapped patch's static dynamics measure every regular check and
	// no seam check (the PSU's mask-generator bits).
	c := NewCode(3)
	for _, st := range c.Stabilizers() {
		if !StabilizerActive(c, st, l.Patch(0).Dynamic) {
			t.Fatalf("static patch masks off regular check at %v", st.Anc)
		}
	}
	for _, cs := range c.ConditionalStabilizers() {
		if ConditionalActive(cs, l.Patch(0).Dynamic) {
			t.Fatalf("seam check at %v on without a merge", cs.Anc)
		}
	}
	region, err := l.MergeRegion([]int{0, 2})
	if err != nil {
		t.Fatal(err)
	}
	l.ApplyMerge(region)
	for _, idx := range region {
		p := l.Patch(idx)
		if !p.Dynamic.MergeOn || !p.Dynamic.ESMOn {
			t.Fatalf("patch %d not merged: %+v", idx, p.Dynamic)
		}
	}
	// Both the ESM_on and merge_on lists hold exactly the three region
	// patches while the merge lasts.
	if got := l.ActiveESMPatches(); !slices.Equal(got, []int{0, 1, 2}) {
		t.Errorf("active patches during merge = %v", got)
	}
	if got := l.MergedPatches(); !slices.Equal(got, []int{0, 1, 2}) {
		t.Errorf("merged patches during merge = %v", got)
	}
	// Merging to the right opens exactly patch 0's right-side seam checks.
	for _, cs := range c.ConditionalStabilizers() {
		if ConditionalActive(cs, l.Patch(0).Dynamic) != (cs.Side == Right) {
			t.Errorf("seam check at %v side %v: active = %v", cs.Anc, cs.Side, cs.Side != Right)
		}
	}
	// Patch 0's right side faces the intermediate patch: must be Z&X.
	if l.Patch(0).Dynamic.ESM[Right] != ESMBoth {
		t.Errorf("patch0 right = %v, want Z&X", l.Patch(0).Dynamic.ESM[Right])
	}
	// Patch 0's top is a non-seam boundary: stays Z (canonical top).
	if l.Patch(0).Dynamic.ESM[Top] != ESMZ {
		t.Errorf("patch0 top = %v, want Z", l.Patch(0).Dynamic.ESM[Top])
	}
	// The intermediate patch has seams on both left and right.
	if l.Patch(1).Dynamic.ESM[Left] != ESMBoth || l.Patch(1).Dynamic.ESM[Right] != ESMBoth {
		t.Errorf("intermediate seams wrong: %+v", l.Patch(1).Dynamic.ESM)
	}
	l.ApplySplit(region)
	if l.Patch(1).Dynamic.ESMOn || l.Patch(1).Dynamic.MergeOn {
		t.Error("intermediate patch still active after split")
	}
	p0 := l.Patch(0)
	if !p0.Dynamic.ESMOn || p0.Dynamic.MergeOn {
		t.Error("mapped patch dynamics wrong after split")
	}
	if p0.Dynamic.ESM[Right] != ESMX {
		t.Errorf("patch0 right after split = %v, want X", p0.Dynamic.ESM[Right])
	}
	if got := l.ActiveESMPatches(); len(got) != 2 {
		t.Errorf("active patches after split = %v", got)
	}
	if got := l.MergedPatches(); len(got) != 0 {
		t.Errorf("merged patches after split = %v", got)
	}
}

// TestPatchEpochStampsWrittenPatches: every mutation of the dynamic
// information moves the lattice epoch on and stamps exactly the patches
// it writes with a new epoch, so a cache keyed on PatchEpoch misses no
// change and pays nothing for a change elsewhere.
func TestPatchEpochStampsWrittenPatches(t *testing.T) {
	l := NewPPRLayout(2, 3)
	epochs := func() []uint64 {
		out := make([]uint64, l.NumPatches())
		for i := range out {
			out[i] = l.PatchEpoch(i)
		}
		return out
	}
	for i, e := range epochs() {
		if home := i == 0 || i == 2; (e > 0) != home {
			t.Fatalf("fresh layout: patch %d epoch %d", i, e)
		}
	}
	region, err := l.MergeRegion([]int{0, 2})
	if err != nil {
		t.Fatal(err)
	}
	all := make([]int, l.NumPatches())
	for i := range all {
		all[i] = i
	}
	steps := []struct {
		name    string
		mutate  func()
		written []int
	}{
		{"merge", func() { l.ApplyMerge(region) }, region},
		{"split", func() { l.ApplySplit(region) }, region},
		{"disable", func() { l.DisableESM(2) }, []int{2}},
		{"enable", func() { l.EnableESM(2) }, []int{2}},
		{"reset", l.Reset, all},
	}
	for _, s := range steps {
		before, prev := epochs(), l.ESMEpoch()
		s.mutate()
		now := l.ESMEpoch()
		if now <= prev {
			t.Fatalf("%s: lattice epoch %d after %d", s.name, now, prev)
		}
		for i, e := range epochs() {
			if slices.Contains(s.written, i) {
				if e <= prev || e > now {
					t.Fatalf("%s: written patch %d epoch %d, want one in (%d, %d]", s.name, i, e, prev, now)
				}
			} else if e != before[i] {
				t.Fatalf("%s: untouched patch %d epoch %d, was %d", s.name, i, e, before[i])
			}
		}
	}
}

func TestPPRLayoutAccounting(t *testing.T) {
	// Paper Table 3 anchors: 3 LQ @ d=3 -> 15 patches, 480 physical qubits;
	// 2 LQ (QFT) @ d=5 -> 15 patches, 1080 physical qubits.
	cases := []struct {
		nLQ, d, patches, phys int
	}{
		{3, 3, 15, 480},
		{2, 5, 15, 1080},
		{1, 3, 15, 480},
		{4, 3, 21, 672},
	}
	for _, c := range cases {
		lay := NewPPRLayout(c.nLQ, c.d)
		if lay.NumPatches() != c.patches {
			t.Errorf("nLQ=%d d=%d: patches = %d, want %d", c.nLQ, c.d, lay.NumPatches(), c.patches)
		}
		if lay.PhysicalQubits() != c.phys {
			t.Errorf("nLQ=%d d=%d: phys = %d, want %d", c.nLQ, c.d, lay.PhysicalQubits(), c.phys)
		}
		// All logical qubits mapped on the top row at even columns.
		for q := 0; q < c.nLQ; q++ {
			idx, ok := lay.PatchOfLQ(q)
			if !ok {
				t.Fatalf("LQ %d unmapped", q)
			}
			p := lay.Patch(idx)
			if p.Row != 0 || p.Col != 2*q {
				t.Errorf("LQ %d at (%d,%d)", q, p.Row, p.Col)
			}
			if !p.Dynamic.ESMOn {
				t.Errorf("LQ %d patch not ESM-active", q)
			}
		}
		// Resource patches sit on the bottom row and start unmapped.
		if lay.Patch(lay.AncillaP).Row != 2 || lay.Patch(lay.MagicP).Row != 2 {
			t.Error("resource patches misplaced")
		}
		if lay.Patch(lay.AncillaP).Static.Type == Mapped {
			t.Error("ancilla patch should start unmapped")
		}
	}
}

func TestPhysPerPatch(t *testing.T) {
	if NewCode(3).PhysPerPatch() != 32 {
		t.Errorf("d=3 PhysPerPatch = %d, want 32", NewCode(3).PhysPerPatch())
	}
	if NewCode(5).PhysPerPatch() != 72 {
		t.Errorf("d=5 PhysPerPatch = %d, want 72", NewCode(5).PhysPerPatch())
	}
	if NewCode(15).PhysPerPatch() != 512 {
		t.Errorf("d=15 PhysPerPatch = %d, want 512", NewCode(15).PhysPerPatch())
	}
}

func TestConditionalStabilizers(t *testing.T) {
	for _, d := range []int{3, 5, 7} {
		c := NewCode(d)
		conds := c.ConditionalStabilizers()
		// The dropped checks: (d-1)/2 per edge... verify count equals the
		// complement: total weight-2 positions minus surviving ones.
		surviving := 0
		for _, st := range c.Stabilizers() {
			if len(st.Data) == 2 {
				surviving++
			}
		}
		if len(conds) != surviving {
			t.Errorf("d=%d: %d conditional vs %d surviving boundary checks (must mirror)", d, len(conds), surviving)
		}
		for _, cs := range conds {
			if len(cs.Data) != 2 {
				t.Errorf("conditional check at %v has weight %d", cs.Anc, len(cs.Data))
			}
			// Complementarity: a conditional check's (side, basis) must be
			// the opposite of the side's static boundary basis.
			if c.BoundaryBasis(cs.Side) == cs.Basis {
				t.Errorf("conditional %v at side %v matches the static basis", cs.Basis, cs.Side)
			}
		}
	}
}

func TestStabilizerActiveRules(t *testing.T) {
	c := NewCode(3)
	var dyn Dynamic
	st := c.Stabilizers()[0]
	if StabilizerActive(c, st, dyn) {
		t.Error("inactive patch must not measure")
	}
	dyn.ESMOn = true
	for s := Left; s <= Bottom; s++ {
		dyn.ESM[s] = esmFromBasis(c.BoundaryBasis(s))
	}
	// All regular stabilizers run in the static configuration.
	for _, st := range c.Stabilizers() {
		if !StabilizerActive(c, st, dyn) {
			t.Errorf("static config disabled regular stabilizer at %v", st.Anc)
		}
	}
	// No conditional checks run without a seam.
	for _, cs := range c.ConditionalStabilizers() {
		if ConditionalActive(cs, dyn) {
			t.Errorf("conditional at %v active without seam", cs.Anc)
		}
	}
	// Opening a seam on the top activates exactly the top conditionals.
	dyn.ESM[Top] = ESMBoth
	for _, cs := range c.ConditionalStabilizers() {
		want := cs.Side == Top
		if ConditionalActive(cs, dyn) != want {
			t.Errorf("seam activation wrong for %v at side %v", cs.Anc, cs.Side)
		}
	}
}
