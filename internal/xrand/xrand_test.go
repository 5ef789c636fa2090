package xrand

import (
	"math"
	"math/rand"
	"testing"
)

// TestSplitmix64KnownAnswers pins the seeding mixer to the reference
// implementation's published output sequences (Vigna, prng.di.unimi.it).
// If these change, every seed in every stored repro silently replays a
// different scenario.
func TestSplitmix64KnownAnswers(t *testing.T) {
	cases := []struct {
		seed uint64
		want [4]uint64
	}{
		{0, [4]uint64{0xe220a8397b1dcdaf, 0x6e789e6aa1b965f4, 0x06c45d188009454f, 0xf88bb8a8724c81ec}},
		{1, [4]uint64{0x910a2dec89025cc1, 0xbeeb8da1658eec67, 0xf893a2eefb32555e, 0x71c18690ee42c90b}},
		{0x1234567890abcdef, [4]uint64{0x1c948e1575796814, 0xae9ef1ab67004bdb, 0x7a2988d31f16e86e, 0x7a5daea24eba3ba7}},
	}
	for _, tc := range cases {
		st := tc.seed
		for i, want := range tc.want {
			if got := splitmix64(&st); got != want {
				t.Errorf("splitmix64(seed=%#x) output %d = %#x, want %#x", tc.seed, i, got, want)
			}
		}
	}
}

// TestSourceKnownAnswers pins the full seeding scheme (xoshiro256**
// state filled by splitmix64): these vectors freeze the generator across
// refactors so old failure seeds keep replaying the same scenarios.
func TestSourceKnownAnswers(t *testing.T) {
	cases := []struct {
		seed int64
		want [4]uint64
	}{
		{0, [4]uint64{0x99ec5f36cb75f2b4, 0xbf6e1f784956452a, 0x1a5f849d4933e6e0, 0x6aa594f1262d2d2c}},
		{1, [4]uint64{0xb3f2af6d0fc710c5, 0x853b559647364cea, 0x92f89756082a4514, 0x642e1c7bc266a3a7}},
		{42, [4]uint64{0x15780b2e0c2ec716, 0x6104d9866d113a7e, 0xae17533239e499a1, 0xecb8ad4703b360a1}},
		{-1, [4]uint64{0x8f5520d52a7ead08, 0xc476a018caa1802d, 0x81de31c0d260469e, 0xbf658d7e065f3c2f}},
	}
	for _, tc := range cases {
		s := NewSource(tc.seed)
		for i, want := range tc.want {
			if got := s.Uint64(); got != want {
				t.Errorf("NewSource(%d) output %d = %#x, want %#x", tc.seed, i, got, want)
			}
		}
	}
}

// TestNewMatchesNewSource asserts New is exactly rand.New over NewSource:
// the two constructors must never drift apart, because replays mix them.
func TestNewMatchesNewSource(t *testing.T) {
	for _, seed := range []int64{0, 7, -123456789, math.MaxInt64} {
		r := New(seed)
		s := NewSource(seed)
		for i := 0; i < 64; i++ {
			if got, want := r.Uint64(), s.Uint64(); got != want {
				t.Fatalf("seed %d output %d: New gives %#x, NewSource gives %#x", seed, i, got, want)
			}
		}
	}
}

// TestDeterminism: identical seeds give identical streams; distinct
// seeds (even adjacent ones, which splitmix64 must decorrelate) give
// distinct streams.
func TestDeterminism(t *testing.T) {
	a, b := New(99), New(99)
	for i := 0; i < 256; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same-seed streams diverged at %d", i)
		}
	}
	c, d := New(100), New(101)
	same := 0
	for i := 0; i < 256; i++ {
		if c.Uint64() == d.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Errorf("adjacent seeds collided on %d of 256 outputs", same)
	}
}

// TestUniformity is a coarse sanity check: byte frequencies and the
// bit-set fraction of a long stream must be near uniform. Thresholds are
// generous (~6 sigma) so the test never flakes on a correct generator.
func TestUniformity(t *testing.T) {
	r := New(2026)
	const n = 1 << 16
	var buckets [256]int
	ones := 0
	for i := 0; i < n; i++ {
		v := r.Uint64()
		buckets[v&0xff]++
		for ; v != 0; v &= v - 1 {
			ones++
		}
	}
	exp := float64(n) / 256
	for b, c := range buckets {
		if math.Abs(float64(c)-exp) > 6*math.Sqrt(exp) {
			t.Errorf("byte bucket %#02x count %d far from expectation %.0f", b, c, exp)
		}
	}
	totalBits := float64(n * 64)
	frac := float64(ones) / totalBits
	sigma := 0.5 / math.Sqrt(totalBits)
	if math.Abs(frac-0.5) > 6*sigma {
		t.Errorf("bit-set fraction %.6f deviates from 0.5 by more than 6 sigma (%.6f)", frac, 6*sigma)
	}
}

// TestSeedReplaysIdenticalInt63 pins the derived helpers the harness
// leans on (Int63, Intn, Float64) to the seed, not just raw Uint64s.
func TestSeedReplaysIdenticalInt63(t *testing.T) {
	record := func(seed int64) [12]any {
		r := New(seed)
		var out [12]any
		for i := 0; i < 4; i++ {
			out[3*i] = r.Int63()
			out[3*i+1] = r.Intn(1000)
			out[3*i+2] = r.Float64()
		}
		return out
	}
	if record(555) != record(555) {
		t.Fatal("derived-helper stream is not a pure function of the seed")
	}
}

// NewSource returns the bare Source64 for callers that want to wrap it
// themselves.
func NewSource(seed int64) rand.Source64 {
	var s Stream
	s.Seed(seed)
	return &s
}
