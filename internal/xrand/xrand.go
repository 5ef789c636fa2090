// Package xrand provides the simulator's deterministic random source: a
// xoshiro256** generator seeded through splitmix64 and wrapped in
// math/rand.Rand for its distribution helpers.
//
// math/rand's default source is a 607-word lagged-Fibonacci generator
// whose Seed routine runs ~1800 LCG steps; profiling showed that seeding
// alone was ~25% of a d=3 pipeline shot, because every shot constructs
// fresh per-shot generators (two noise models and a tableau) to keep runs
// reproducible under any shot-execution order. xoshiro256** seeds in four
// splitmix64 steps and draws faster, which removes per-shot RNG setup
// from the hot path while keeping the same seed-in, stream-out
// determinism (a given seed always yields the same stream).
//
// For the bit-sliced batch samplers the package additionally exposes the
// bare generator as the concrete Stream type plus BernoulliWord: hot loops
// draw whole 64-lane words without the interface dispatch of
// rand.Source64, and a mask word consumes a fixed count of the same
// sequential Uint64 draws a scalar caller would see, so scalar and batch
// consumers of one seed stay bit-compatible.
package xrand

import (
	"math"
	"math/bits"
	"math/rand"
)

// Rand aliases math/rand.Rand so simulation packages can hold and pass
// generators without importing math/rand themselves: the xqlint
// determinism analyzer bans that import everywhere but here, making this
// package the single chokepoint for randomness.
type Rand = rand.Rand

// Stream is the bare xoshiro256** generator (Blackman & Vigna, 2018) as
// a concrete value type. Hot loops that draw raw words hold a Stream
// directly — method calls inline and there is no Source64 interface
// dispatch — while New wraps the identical state machine for callers
// that want math/rand's distribution helpers. A given seed
// yields the same word stream through every wrapper.
type Stream struct {
	s0, s1, s2, s3 uint64
}

// New returns a *rand.Rand drawing from a fast deterministic source
// seeded with seed. It is a drop-in replacement for
// rand.New(rand.NewSource(seed)) with O(1) seeding.
func New(seed int64) *Rand {
	var s Stream
	s.Seed(seed)
	return rand.New(&s)
}

// NewStream returns a seeded Stream by value (no heap allocation).
//
//xqlint:noalloc by-value constructor for per-site sub-streams in batch hot loops
func NewStream(seed int64) Stream {
	var s Stream
	s.Seed(seed)
	return s
}

// splitmix64 is the recommended seeding mixer for xoshiro: it
// decorrelates consecutive integer seeds (our callers derive per-shot
// seeds as base + k*stride) into well-distributed state words.
func splitmix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Mix derives a decorrelated sub-stream seed from a base seed and a
// sequence of lane identifiers (noise-site index, shot-block index, …)
// by chaining splitmix64 with each identifier folded into the state.
// Distinct identifier tuples give statistically independent streams;
// the mapping is fixed — replay seeds depend on it — but carries no
// cryptographic claim.
//
//xqlint:noalloc called per noise site inside the batch sampler's inner loop
func Mix(seed int64, ids ...uint64) int64 {
	x := uint64(seed)
	out := splitmix64(&x)
	for _, id := range ids {
		x ^= out ^ id
		out = splitmix64(&x)
	}
	return int64(out)
}

// Seed resets the generator state as a deterministic function of seed.
//
//xqlint:noalloc per-shot stream rewind
func (s *Stream) Seed(seed int64) {
	x := uint64(seed)
	s.s0 = splitmix64(&x)
	s.s1 = splitmix64(&x)
	s.s2 = splitmix64(&x)
	s.s3 = splitmix64(&x)
}

func rotl(x uint64, k uint) uint64 { return x<<k | x>>(64-k) }

// Uint64 advances the generator one step.
//
//xqlint:noalloc the innermost draw of every hot loop
func (s *Stream) Uint64() uint64 {
	r := rotl(s.s1*5, 7) * 9
	t := s.s1 << 17
	s.s2 ^= s.s0
	s.s3 ^= s.s1
	s.s1 ^= s.s2
	s.s0 ^= s.s3
	s.s2 ^= t
	s.s3 = rotl(s.s3, 45)
	return r
}

// Int63 satisfies rand.Source.
func (s *Stream) Int63() int64 {
	return int64(s.Uint64() >> 1)
}

// FillUint64 fills dst with consecutive draws: dst[i] receives exactly
// the value the (i+1)-th sequential Uint64 call would have returned, so
// bulk and scalar consumers of one stream interleave freely.
//
//xqlint:noalloc bulk word fill into a caller-owned buffer
func (s *Stream) FillUint64(dst []uint64) {
	for i := range dst {
		dst[i] = s.Uint64()
	}
}

// Probability quantization for Bernoulli masks: probabilities are
// rounded to a dyadic fraction m/2^ProbBits. 30 bits keep the rounding
// error below 1e-9 (negligible against Monte-Carlo noise at any
// reachable shot count) while bounding the draw cost of one mask word
// at ProbBits Uint64s.
const (
	// ProbBits is the number of binary digits kept when quantizing a
	// Bernoulli probability.
	ProbBits = 30
	// ProbOne is the quantized numerator representing probability 1.
	ProbOne = 1 << ProbBits
)

// QuantizeProb maps p to the numerator m of the dyadic approximation
// m/2^ProbBits, clamped to [0, ProbOne]. Dyadic inputs with at most
// ProbBits digits (0.5, 0.125, 1/1024, …) are represented exactly.
func QuantizeProb(p float64) uint32 {
	if !(p > 0) { // also maps NaN to 0 (uint32(NaN) is platform-defined)
		return 0
	}
	if p >= 1 {
		return ProbOne
	}
	// 0 < p < 1 here, so Round(p*2^30) <= 2^30 = ProbOne always fits.
	return uint32(math.Round(p * ProbOne))
}

// BernoulliWord returns a word whose 64 bits are independent Bernoulli
// samples, each set with probability m/2^ProbBits (see QuantizeProb).
// It implements the bitwise comparison acc = [U < m/2^ProbBits] of
// 64 uniform binary fractions U against the threshold in parallel,
// consuming the threshold's digits least-significant first: a 1-digit
// ORs the next random word into the accumulator ("less-than if this
// digit is smaller, i.e. the strict suffix comparison already won OR
// the random digit is 0" folds to r|acc after simplification), a
// 0-digit ANDs it. Digits below the lowest set bit of m cannot change
// the comparison and are skipped, so the word costs
// ProbBits-TrailingZeros32(m) draws (none for the degenerate masks) —
// e.g. a single draw for p=1/2 and none at all for p in {0,1}, which
// keeps p=1 noise channels fully deterministic.
//
//xqlint:noalloc 64-lane noise mask generation in the batch inner loop
func (s *Stream) BernoulliWord(m uint32) uint64 {
	if m == 0 {
		return 0
	}
	if m >= ProbOne {
		return ^uint64(0)
	}
	acc := uint64(0)
	for bit := uint(bits.TrailingZeros32(m)); bit < ProbBits; bit++ {
		r := s.Uint64()
		if m>>bit&1 == 1 {
			acc |= r
		} else {
			acc &= r
		}
	}
	return acc
}
