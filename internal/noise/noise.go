// Package noise implements the Pauli error model driving the noisy
// simulations: independent X and Z flips on data qubits each ESM round and
// measurement-result flips, all at the configured physical error rate
// (the phenomenological Pauli model of Tomita & Svore used by the paper's
// validation flow).
//
// Sampling is sparse: instead of drawing one random number per qubit per
// round, geometric skipping draws only as many numbers as there are
// errors, which keeps the cost proportional to the (low) error density
// even at 10+K-qubit scale.
package noise

import (
	"math"

	"xqsim/internal/xrand"
)

// Model is a sparse Bernoulli sampler with a fixed per-site probability.
// All entry points (AppendSites, Skip, Hit) consume trials
// from one geometric countdown that carries across calls, so the number
// of random draws is proportional to the number of *hits*, not the
// number of trials — and AppendSites(n) consumes exactly the trials n
// Hit calls would, reporting the same hits.
type Model struct {
	P   float64
	rng *xrand.Rand
	// lnq caches ln(1-p) for geometric skipping.
	lnq float64
	// gap is the number of misses remaining before the next hit; -1 means
	// the countdown has not been drawn yet (fresh model, reseed, or
	// probability change).
	gap int
}

// NewModel returns a sampler with per-site error probability p.
func NewModel(p float64, seed int64) *Model {
	if p < 0 || p >= 1 {
		//xqlint:ignore nopanic constructor precondition: user rates pass core.CheckCode (xqsim flags, xqd simulate jobs) or GridSpec.Normalize (sweep grids); experiments use config constants in [0,1)
		panic("noise: probability out of range")
	}
	m := &Model{P: p, rng: xrand.New(seed), gap: -1}
	if p > 0 {
		m.lnq = math.Log(1 - p)
	}
	return m
}

// AppendSites appends the indices in [0, n) hit by an error this round to
// dst (in increasing order) and returns the extended slice, so callers
// reuse one buffer across rounds; the expected cost is O(n*p + 1).
// Unconsumed countdown carries into the model's next trial, whichever
// entry point draws it.
func (m *Model) AppendSites(dst []int, n int) []int {
	//xqlint:ignore floateq exact sentinel: P is never rounded; 0.0 means noise disabled
	if m.P == 0 || n == 0 {
		return dst
	}
	if m.gap < 0 {
		m.gap = m.skip()
	}
	// Geometric skipping: the gap to the next hit is floor(ln U / ln(1-p)).
	i := m.gap
	for i < n {
		dst = append(dst, i)
		i += 1 + m.skip()
	}
	m.gap = i - n
	return dst
}

// Skip consumes n trials and reports true when none of them is a hit.
// When one is, it consumes nothing and reports false, so the caller can
// still draw the same n trials with AppendSites. Either way it draws
// only what AppendSites(n) would draw first (at most the pending
// countdown), which keeps the stream identical to calling AppendSites
// directly; with p = 0 it draws nothing.
//
//xqlint:noalloc hit-free round fast path
func (m *Model) Skip(n int) bool {
	//xqlint:ignore floateq exact sentinel: P is never rounded; 0.0 means noise disabled
	if m.P == 0 || n == 0 {
		return true
	}
	if m.gap < 0 {
		m.gap = m.skip()
	}
	if m.gap < n {
		return false
	}
	m.gap -= n
	return true
}

// Reseed rewinds the model's stream to the state a fresh NewModel(P, seed)
// would start from, without reallocating. This is the scratch-reuse hook:
// resetting a model between shots reproduces a fresh model's draws
// bit-for-bit.
//
//xqlint:noalloc stream rewind between shots
func (m *Model) Reseed(seed int64) {
	m.rng.Seed(seed)
	m.gap = -1
}

// SetProb changes the per-site error probability in place (sweep grids
// reuse one model across physical-error cells). The stream position is
// unaffected; callers pair it with Reseed for reproducible cells.
func (m *Model) SetProb(p float64) {
	if p < 0 || p >= 1 {
		//xqlint:ignore nopanic same precondition as NewModel: p comes from config constants and sweep grids in [0,1)
		panic("noise: probability out of range")
	}
	m.P = p
	m.lnq = 0
	if p > 0 {
		m.lnq = math.Log(1 - p)
	}
	m.gap = -1 // any pending countdown was drawn at the old probability
}

// Hit samples a single Bernoulli trial.
func (m *Model) Hit() bool {
	//xqlint:ignore floateq exact p==0 sentinel: the disabled model must draw nothing
	if m.P == 0 {
		return false
	}
	if m.gap < 0 {
		m.gap = m.skip()
	}
	if m.gap == 0 {
		m.gap = m.skip()
		return true
	}
	m.gap--
	return false
}

func (m *Model) skip() int {
	u := m.rng.Float64()
	//xqlint:ignore floateq exact sentinel: rejects the one Float64 value where log(u) diverges
	for u == 0 {
		u = m.rng.Float64()
	}
	g := math.Log(u) / m.lnq
	if g > 1<<30 {
		return 1 << 30
	}
	return int(g)
}
