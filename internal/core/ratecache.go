package core

import (
	"sync"
	"sync/atomic"

	"xqsim/internal/decoder"
	"xqsim/internal/microarch"
)

// The reference workload's shape: rates are measured on a random circuit
// of refLQ logical qubits and refPPRs rotations.
const refLQ, refPPRs = 4, 6

// rateKey identifies one steady-state rate measurement. Rates are a pure
// function of these three inputs (the reference workload shape is
// fixed), so repeated measurements can be shared. The EDU's token-setup
// scheme is not part of the key: it changes what a decode window costs,
// never which syndromes arrive, so one reference run serves every
// scheme.
type rateKey struct {
	d         int
	physError float64
	seed      int64
}

// memoScheme is the scheme the memo's reference run is configured with.
// Any would do: refRun.metricsUnder re-prices its metrics for the rest.
const memoScheme = decoder.SchemePriority

// rateEntry is a singleflight cell: the first caller to claim the key
// runs the reference workload inside once; concurrent callers for the
// same key block on it and then read the settled run. The run itself is
// the entry's one stored form: MeasureRates derives its Rates on read,
// and RunScalingWorkload hands out copies of its metrics re-priced for
// the scheme asked.
type rateEntry struct {
	once sync.Once
	run  refRun
	err  error
}

// rateMemoCap bounds the rate memo. Each key holds about 3.1 KB (its
// entry keeps the reference run's metrics and every scheme's window
// prices), so a full memo is about 3.2 MB. Rates are scheme-free, so
// xqsweep -all needs two keys per seed (d=7 and d=15), far below the cap.
const rateMemoCap = 1024

// rateMemo is the process-wide MeasureRates memo. It holds at most
// rateMemoCap keys and evicts the oldest first. An evicted key is
// measured again, bit-identically, on its next use; callers already
// holding its entry still share that entry's one run.
type rateMemo struct {
	mu      sync.Mutex
	entries map[rateKey]*rateEntry
	order   []rateKey // the keys of entries, oldest first
}

// entry returns key's memo entry, inserting an unfilled one on first
// sight.
func (m *rateMemo) entry(key rateKey) *rateEntry {
	m.mu.Lock()
	defer m.mu.Unlock()
	if e, ok := m.entries[key]; ok {
		return e
	}
	if len(m.order) == rateMemoCap {
		delete(m.entries, m.order[0])
		m.order = m.order[1:]
	}
	e := &rateEntry{}
	m.entries[key] = e
	m.order = append(m.order, key)
	return e
}

var (
	rateCache = rateMemo{entries: make(map[rateKey]*rateEntry)}
	// rateMisses counts actual pipeline executions (cache fills), for
	// tests and for judging sweep-level reuse.
	rateMisses atomic.Int64
)

// MeasureRates runs the full pipeline (scaling mode, no tableau) on a
// random-PPR workload at a reference scale and extracts the rates.
// Rates are scheme-free: the scheme only prices decode windows, and no
// rate reads a price, so every scheme gets the same Rates at one key.
//
// Results are memoized per (d, physError, seed): the sweep grids
// re-measure the same operating point many times (every figure starts
// from the same d=15 reference run), and a rate measurement is by far the
// most expensive step of a sweep. The memoization is concurrency-safe,
// single-flight — parallel callers asking for the same key run one
// pipeline, not N — and bounded to rateMemoCap keys. Use
// MeasureRatesUncached to force a fresh run (e.g. when profiling the
// pipeline itself).
func MeasureRates(d int, physError float64, scheme decoder.Scheme, seed int64) Rates {
	e := settledRates(rateKey{d: d, physError: physError, seed: seed})
	if e.err != nil {
		//xqlint:ignore nopanic unreachable guard: the internal reference workload always compiles and runs; MeasureRates' dozen call sites have no error path
		panic(e.err.Error())
	}
	return ratesOf(&e.run.m, e.run.nPhys)
}

// MeasureRatesUncached bypasses the memoization and always runs the
// pipeline, configured for scheme. It does not populate the cache.
func MeasureRatesUncached(d int, physError float64, scheme decoder.Scheme, seed int64) Rates {
	run, err := referenceRun(d, physError, scheme, seed, refLQ, refPPRs)
	if err != nil {
		//xqlint:ignore nopanic unreachable guard: the internal reference workload always compiles and runs; MeasureRates' dozen call sites have no error path
		panic(err.Error())
	}
	return ratesOf(&run.m, run.nPhys)
}

// RunScalingWorkload returns the metrics of MeasureRates' reference run
// for the same (d, physError, seed), priced under scheme — the traffic
// and activity breakdowns behind Fig. 16. They equal a fresh run under
// scheme bit for bit. It reads through the rate memo, so a figure that
// needs both the rates and the breakdown, under any schemes, runs the
// pipeline once. The returned metrics are the caller's own copy.
func RunScalingWorkload(d int, physError float64, scheme decoder.Scheme, seed int64) (*microarch.Metrics, error) {
	e := settledRates(rateKey{d: d, physError: physError, seed: seed})
	if e.err != nil {
		return nil, e.err
	}
	m := e.run.metricsUnder(scheme)
	return &m, nil
}

// settledRates returns key's memo entry once its one reference run has
// filled it.
func settledRates(key rateKey) *rateEntry {
	entry := rateCache.entry(key)
	entry.once.Do(func() {
		rateMisses.Add(1)
		entry.run, entry.err = referenceRun(key.d, key.physError, memoScheme, key.seed, refLQ, refPPRs)
	})
	return entry
}
