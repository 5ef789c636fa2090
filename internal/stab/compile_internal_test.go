package stab

import (
	"testing"

	"xqsim/internal/xrand"
)

// TestTranspose64 checks the bit-matrix transpose against the direct
// definition on a pseudorandom matrix, and that it is an involution.
func TestTranspose64(t *testing.T) {
	var a, orig [64]uint64
	st := xrand.NewStream(3)
	st.FillUint64(orig[:])
	a = orig
	transpose64(&a)
	for i := 0; i < 64; i++ {
		for j := 0; j < 64; j++ {
			if got, want := a[i]>>uint(j)&1, orig[j]>>uint(i)&1; got != want {
				t.Fatalf("transposed bit (%d,%d) = %d, want original (%d,%d) = %d", i, j, got, j, i, want)
			}
		}
	}
	transpose64(&a)
	if a != orig {
		t.Fatal("transpose64 is not an involution")
	}
}

// TestCompileLowering pins the compiler's lowering decisions:
// deterministic Paulis and p=0 channels disappear, the FlipX;MeasureZ
// idiom fuses, and measurement/site numbering survives both.
func TestCompileLowering(t *testing.T) {
	c := NewCircuit(3)
	c.H(0).X(1)         // X is dropped
	c.FlipX(0, 0.5)     // site 0, fuses with the next measurement
	c.MeasureZ(0)       // mi 0
	c.FlipX(1, 0.5)     // site 1, measurement on a different qubit: no fusion
	c.MeasureZ(2)       // mi 1
	c.Depolarize1(2, 0) // site 2, p=0: dropped but numbered
	c.FlipZ(2, 0.25)    // site 3
	c.Depolarize1(1, 1) // site 4
	c.MeasureZ(1)       // mi 2
	prog, err := c.CompileFrame()
	if err != nil {
		t.Fatal(err)
	}
	want := []frameOp{
		{kind: fopH, a: 0},
		{kind: fopFlipXMeasure, a: 0, mi: 0, site: 0, m: xrand.QuantizeProb(0.5)},
		{kind: fopFlipX, a: 1, site: 1, m: xrand.QuantizeProb(0.5)},
		{kind: fopMeasure, a: 2, mi: 1},
		{kind: fopFlipZ, a: 2, site: 3, m: xrand.QuantizeProb(0.25)},
		{kind: fopDepolarize, a: 1, site: 4, m: xrand.ProbOne},
		{kind: fopMeasure, a: 1, mi: 2},
	}
	if len(prog.ops) != len(want) {
		t.Fatalf("compiled %d ops, want %d: %+v", len(prog.ops), len(want), prog.ops)
	}
	for i, w := range want {
		if prog.ops[i] != w {
			t.Errorf("op %d = %+v, want %+v", i, prog.ops[i], w)
		}
	}
	if prog.meas != 3 || prog.sites != 5 {
		t.Errorf("meas=%d sites=%d, want 3 and 5", prog.meas, prog.sites)
	}
}

// TestDepolarizeMasksInvariants: flips only happen on hit lanes, and a
// p=1 site hits every lane (keeping p=1 channels deterministic).
func TestDepolarizeMasksInvariants(t *testing.T) {
	for seed := int64(0); seed < 32; seed++ {
		st := xrand.NewStream(seed)
		hitStream := xrand.NewStream(seed)
		hit := hitStream.BernoulliWord(xrand.QuantizeProb(0.3))
		xm, zm := depolarizeMasks(&st, xrand.QuantizeProb(0.3))
		if (xm|zm)&^hit != 0 {
			t.Fatalf("seed %d: flips outside the hit mask (hit %#x xm %#x zm %#x)", seed, hit, xm, zm)
		}
		if hit != 0 && xm|zm != hit {
			t.Fatalf("seed %d: hit lane with identity flip (hit %#x xm %#x zm %#x)", seed, hit, xm, zm)
		}
	}
	st := xrand.NewStream(7)
	xm, zm := depolarizeMasks(&st, xrand.ProbOne)
	if xm|zm != ^uint64(0) {
		t.Fatalf("p=1 depolarize left identity lanes: xm %#x zm %#x", xm, zm)
	}
}

// TestNoiseStreamSeedDistinct: every (site, block) pair must own a
// distinct stream seed, or two noise channels would correlate.
func TestNoiseStreamSeedDistinct(t *testing.T) {
	seen := map[int64]bool{}
	for site := 0; site < 48; site++ {
		for block := 0; block < 48; block++ {
			s := noiseStreamSeed(99, site, block)
			if seen[s] {
				t.Fatalf("noise stream seed collision at site %d block %d", site, block)
			}
			seen[s] = true
		}
	}
}

// Measurements returns the record length of one shot.
func (p *FrameProgram) Measurements() int { return p.meas }

// NoiseSites returns the number of noise channels in the source
// circuit, i.e. the exclusive upper bound of the site axis of the
// determinism contract.
func (p *FrameProgram) NoiseSites() int { return p.sites }

// Shot returns the shot index the next Sample* call starts at.
func (bs *BatchFrameSampler) Shot() int { return bs.next }
