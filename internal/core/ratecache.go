package core

import (
	"fmt"
	"sync"
	"sync/atomic"

	"xqsim/internal/decoder"
	"xqsim/internal/microarch"
)

// The reference workload's shape: rates are measured on a random circuit
// of refLQ logical qubits and refPPRs rotations.
const refLQ, refPPRs = 4, 6

// rateKey identifies one steady-state rate measurement. Rates are a pure
// function of these four inputs (the reference workload shape is fixed),
// so repeated measurements can be shared.
type rateKey struct {
	d         int
	physError float64
	scheme    decoder.Scheme
	seed      int64
}

// rateEntry is a singleflight cell: the first caller to claim the key
// runs the pipeline inside once; concurrent callers for the same key
// block on it and then read the settled value.
type rateEntry struct {
	once  sync.Once
	rates Rates
	// ref is the reference run's metrics, which RunScalingWorkload hands
	// out; nil when the durable RateStore served the rates without a run.
	ref *microarch.Metrics
	err error
}

// rateMemoCap bounds the rate memo. Each key holds about 3.3 KB (its
// entry keeps the reference run's metrics), so a full memo is about
// 3.4 MB; xqsweep -all needs four keys per seed and the code-distance
// ablation five, far below the cap.
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
	// ratePersist, when set, backs the in-process memoization with a
	// durable second level (the xqd daemon's result store), making rate
	// measurements a cross-process cache.
	ratePersist atomic.Pointer[RateStore]
)

// RateStore is a durable second-level cache for MeasureRates. Load
// returns the stored rates for a key (false when absent or unreadable);
// Store persists a fresh measurement. Implementations must be safe for
// concurrent use. Errors are the implementation's to handle: a failed
// Store must simply not surface on a later Load.
type RateStore interface {
	LoadRates(key string) (Rates, bool)
	StoreRates(key string, r Rates)
}

// EnableRatePersistence installs (or, with nil, removes) the durable
// second-level rate cache. Already-memoized in-process entries are
// unaffected. The store only ever receives keys produced by RateCacheKey.
func EnableRatePersistence(rs RateStore) {
	if rs == nil {
		ratePersist.Store(nil)
		return
	}
	ratePersist.Store(&rs)
}

// RateCacheKey renders a rate measurement's identifying inputs as the
// stable string key used with a RateStore. %g on physError is exact:
// it round-trips any float64.
func RateCacheKey(d int, physError float64, scheme decoder.Scheme, seed int64) string {
	return fmt.Sprintf("rates/d=%d,p=%g,scheme=%d,seed=%d", d, physError, int(scheme), seed)
}

// MeasureRates runs the full pipeline (scaling mode, no tableau) on a
// random-PPR workload at a reference scale and extracts the rates.
//
// Results are memoized per (d, physError, scheme, seed): the sweep grids
// re-measure the same operating point many times (every figure starts
// from the same d=15 reference run), and a rate measurement is by far the
// most expensive step of a sweep. The memoization is concurrency-safe,
// single-flight — parallel callers asking for the same key run one
// pipeline, not N — and bounded to rateMemoCap keys. Use
// MeasureRatesUncached to force a fresh run (e.g. when profiling the
// pipeline itself).
func MeasureRates(d int, physError float64, scheme decoder.Scheme, seed int64) Rates {
	e := settledRates(rateKey{d: d, physError: physError, scheme: scheme, seed: seed})
	if e.err != nil {
		//xqlint:ignore nopanic unreachable guard: the internal reference workload always compiles and runs; MeasureRates' dozen call sites have no error path
		panic(e.err.Error())
	}
	return e.rates
}

// MeasureRatesUncached bypasses the memoization and always runs the
// pipeline. It does not populate the cache.
func MeasureRatesUncached(d int, physError float64, scheme decoder.Scheme, seed int64) Rates {
	return measureRatesN(d, physError, scheme, seed, refLQ, refPPRs)
}

// RunScalingWorkload returns the metrics of MeasureRates' reference run
// for the same key — the traffic and activity breakdowns behind Fig. 16.
// It reads through the rate memo, so a figure that needs both the rates
// and the breakdown runs the pipeline once. The pipeline runs again only
// when the durable RateStore served the key's rates. The returned
// metrics are the caller's own copy.
func RunScalingWorkload(d int, physError float64, scheme decoder.Scheme, seed int64) (*microarch.Metrics, error) {
	e := settledRates(rateKey{d: d, physError: physError, scheme: scheme, seed: seed})
	if e.err != nil {
		return nil, e.err
	}
	if e.ref == nil {
		m, _, err := referenceRun(d, physError, scheme, seed, refLQ, refPPRs)
		if err != nil {
			return nil, err
		}
		return &m, nil
	}
	m := *e.ref
	return &m, nil
}

// settledRates returns key's memo entry once it is filled: from the
// durable RateStore when that holds the key, otherwise by one reference
// run, whose rates are then persisted.
func settledRates(key rateKey) *rateEntry {
	entry := rateCache.entry(key)
	entry.once.Do(func() {
		storeKey := RateCacheKey(key.d, key.physError, key.scheme, key.seed)
		if p := ratePersist.Load(); p != nil {
			if r, ok := (*p).LoadRates(storeKey); ok {
				entry.rates = r
				return
			}
		}
		rateMisses.Add(1)
		m, nPhys, err := referenceRun(key.d, key.physError, key.scheme, key.seed, refLQ, refPPRs)
		if err != nil {
			entry.err = err
			return
		}
		entry.ref = &m
		entry.rates = ratesOf(&m, nPhys)
		if p := ratePersist.Load(); p != nil {
			(*p).StoreRates(storeKey, entry.rates)
		}
	})
	return entry
}
