package core

import (
	"context"
	"runtime"
	"sync"
	"testing"

	"xqsim/internal/decoder"
	"xqsim/internal/faults"
	"xqsim/internal/microarch"
)

// Keys here use otherwise-unused seeds so the miss accounting is not
// perturbed by other tests sharing the process-wide cache.

// forgetRates drops the in-process cache entries of every key measured
// at seed when the test ends, so a repeated run of the test in the same
// process (go test -count=N) starts from cold keys again.
func forgetRates(t *testing.T, seed int64) {
	t.Cleanup(func() { dropRates(func(k rateKey) bool { return k.seed == seed }) })
}

// dropRates deletes every rate memo entry whose key matches.
func dropRates(match func(rateKey) bool) {
	rateCache.mu.Lock()
	defer rateCache.mu.Unlock()
	kept := rateCache.order[:0]
	for _, k := range rateCache.order {
		if match(k) {
			delete(rateCache.entries, k)
		} else {
			kept = append(kept, k)
		}
	}
	rateCache.order = kept
}

// memoHas reports whether key is in the rate memo.
func memoHas(key rateKey) bool {
	rateCache.mu.Lock()
	defer rateCache.mu.Unlock()
	_, ok := rateCache.entries[key]
	return ok
}

// TestMeasureRatesMemoBounded fills the memo with rateMemoCap+1 distinct
// d=3 keys: it never holds more than the cap, the oldest key is the one
// evicted, and measuring it again runs the pipeline exactly once and
// reproduces its first rates bit for bit.
func TestMeasureRatesMemoBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("measures rateMemoCap+1 reference runs")
	}
	const base = 910000
	for s := int64(base); s <= base+rateMemoCap; s++ {
		forgetRates(t, s)
	}
	first := rateKey{d: 3, physError: 0.001, seed: base}
	want := MeasureRates(3, 0.001, decoder.SchemePriority, base)
	for s := int64(base + 1); s <= base+rateMemoCap; s++ {
		MeasureRates(3, 0.001, decoder.SchemePriority, s)
		rateCache.mu.Lock()
		n, m := len(rateCache.entries), len(rateCache.order)
		rateCache.mu.Unlock()
		if n > rateMemoCap || m != n {
			t.Fatalf("memo holds %d entries (%d ordered), cap %d", n, m, rateMemoCap)
		}
	}
	if memoHas(first) {
		t.Fatal("the oldest key survived rateMemoCap newer inserts")
	}
	before := rateMisses.Load()
	if got := MeasureRates(3, 0.001, decoder.SchemePriority, base); got != want {
		t.Fatalf("re-measured rates %+v, first measurement %+v", got, want)
	}
	MeasureRates(3, 0.001, decoder.SchemePriority, base)
	if got := rateMisses.Load() - before; got != 1 {
		t.Fatalf("the evicted key ran the pipeline %d times, want 1", got)
	}
}

// TestMeasureRatesMemoized: a repeated key hits, a second scheme at the
// same (d, p, seed) hits too (rates are scheme-free, so one reference run
// serves every scheme), and a different seed misses.
func TestMeasureRatesMemoized(t *testing.T) {
	const seed = 900001
	forgetRates(t, seed)
	forgetRates(t, seed+100)
	before := rateMisses.Load()
	a := MeasureRates(3, 0.001, decoder.SchemePriority, seed)
	b := MeasureRates(3, 0.001, decoder.SchemePriority, seed)
	if got := rateMisses.Load() - before; got != 1 {
		t.Fatalf("two same-key calls ran the pipeline %d times, want 1", got)
	}
	if a != b {
		t.Fatalf("memoized result differs: %+v vs %+v", a, b)
	}
	if c := MeasureRates(3, 0.001, decoder.SchemeRoundRobin, seed); c != a {
		t.Fatalf("round-robin rates %+v differ from priority rates %+v at one key", c, a)
	}
	if got := rateMisses.Load() - before; got != 1 {
		t.Fatalf("a second scheme at the same key ran the pipeline again (misses = %d)", got)
	}
	// A different seed is a different key and must miss.
	MeasureRates(3, 0.001, decoder.SchemeRoundRobin, seed+100)
	if got := rateMisses.Load() - before; got != 2 {
		t.Fatalf("distinct-key call did not run the pipeline (misses = %d)", got)
	}
}

func TestMeasureRatesUncachedBypasses(t *testing.T) {
	const seed = 900002
	forgetRates(t, seed)
	u := MeasureRatesUncached(3, 0.001, decoder.SchemePriority, seed)
	key := rateKey{d: 3, physError: 0.001, seed: seed}
	if memoHas(key) {
		t.Fatal("MeasureRatesUncached populated the cache")
	}
	if c := MeasureRates(3, 0.001, decoder.SchemePriority, seed); c != u {
		t.Fatalf("uncached result %+v differs from cached %+v", u, c)
	}
}

// TestMeasureRatesConcurrent hammers one fresh key from many goroutines
// under two schemes, half asking for the rates and half for the
// reference run's metrics: the singleflight cell must run the pipeline
// exactly once for the key, whatever the scheme, every metrics copy must
// equal a fresh reference run under its own scheme, and every caller
// must observe the same rates. Run with -race.
func TestMeasureRatesConcurrent(t *testing.T) {
	const seed = 900003
	forgetRates(t, seed)
	schemes := [2]decoder.Scheme{decoder.SchemePriority, decoder.SchemePatchSliding}
	before := rateMisses.Load()
	const callers = 16
	rates := make([]Rates, callers)
	metrics := make([]*microarch.Metrics, callers)
	errs := make([]error, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			scheme := schemes[i%2]
			if i/2%2 == 0 {
				rates[i] = MeasureRates(3, 0.001, scheme, seed)
			} else {
				metrics[i], errs[i] = RunScalingWorkload(3, 0.001, scheme, seed)
			}
		}(i)
	}
	wg.Wait()
	if got := rateMisses.Load() - before; got != 1 {
		t.Fatalf("%d concurrent callers over 2 schemes at one key ran the pipeline %d times, want 1", callers, got)
	}
	for k, scheme := range schemes {
		fresh, err := referenceRun(3, 0.001, scheme, seed, refLQ, refPPRs)
		if err != nil {
			t.Fatal(err)
		}
		want := ratesOf(&fresh.m, fresh.nPhys)
		for i := k; i < callers; i += 2 {
			switch {
			case errs[i] != nil:
				t.Fatalf("caller %d: %v", i, errs[i])
			case metrics[i] != nil && *metrics[i] != fresh.m:
				t.Fatalf("caller %d: metrics differ from a fresh %v reference run", i, scheme)
			case metrics[i] == nil && rates[i] != want:
				t.Fatalf("caller %d observed %+v, want %+v", i, rates[i], want)
			}
		}
	}
}

// TestOneRunPricesEveryScheme pins the invariant the scheme-free memo
// rests on, over d in {3, ..., 17}, p in {0.1%, 0.5%} and seeds 1-12:
// fresh reference runs configured for the three schemes differ only in
// the three priced fields (the decode-cycle sum and maximum and the
// EDU's active cycles), and RunScalingWorkload, from one cold miss per
// key, returns each scheme's fresh run bit for bit. An unknown scheme
// gets the metrics of a pipeline configured with it: every window
// priced 0, and no panic.
func TestOneRunPricesEveryScheme(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 1,008 reference pipelines up to d=17; CI runs it under race on its own")
	}
	masked := func(m microarch.Metrics) microarch.Metrics {
		m.DecodeCyclesSum, m.DecodeCyclesMax = 0, 0
		m.Unit[microarch.UnitEDU].ActiveCycles = 0
		return m
	}
	schemes := []decoder.Scheme{decoder.SchemeRoundRobin, decoder.SchemePriority, decoder.SchemePatchSliding, decoder.Scheme(7), -1}
	for _, d := range []int{3, 5, 7, 9, 11, 15, 17} {
		for _, p := range []float64{0.001, 0.005} {
			for seed := int64(1); seed <= 12; seed++ {
				key := rateKey{d: d, physError: p, seed: seed}
				dropRates(func(k rateKey) bool { return k == key })
				before := rateMisses.Load()
				var unpriced microarch.Metrics
				for i, s := range schemes {
					fresh, err := referenceRun(d, p, s, seed, refLQ, refPPRs)
					if err != nil {
						t.Fatal(err)
					}
					if i == 0 {
						unpriced = masked(fresh.m)
					} else if masked(fresh.m) != unpriced {
						t.Fatalf("%+v: a %v run differs from a round-robin run outside the priced fields", key, s)
					}
					got, err := RunScalingWorkload(d, p, s, seed)
					if err != nil {
						t.Fatal(err)
					}
					if *got != fresh.m {
						t.Fatalf("%+v: RunScalingWorkload(%v) differs from a fresh run under it", key, s)
					}
					if !s.Known() && got.DecodeCyclesSum+got.DecodeCyclesMax+got.Unit[microarch.UnitEDU].ActiveCycles != 0 {
						t.Fatalf("%+v: unknown scheme %d priced decode cycles", key, s)
					}
				}
				if got := rateMisses.Load() - before; got != 1 {
					t.Fatalf("%+v: %d schemes ran the pipeline %d times, want 1", key, len(schemes), got)
				}
			}
		}
	}
}

// TestScalingWorkloadSharesRateRun: RunScalingWorkload reads through
// the rate memo, so asking for a key's metrics and then its rates runs
// the pipeline once, and the metrics equal a fresh reference run's.
func TestScalingWorkloadSharesRateRun(t *testing.T) {
	const seed = 900007
	forgetRates(t, seed)
	fresh, err := referenceRun(3, 0.001, decoder.SchemePriority, seed, refLQ, refPPRs)
	if err != nil {
		t.Fatal(err)
	}
	before := rateMisses.Load()
	m, err := RunScalingWorkload(3, 0.001, decoder.SchemePriority, seed)
	if err != nil {
		t.Fatal(err)
	}
	if got := rateMisses.Load() - before; got != 1 {
		t.Fatalf("cold RunScalingWorkload ran the pipeline %d times, want 1", got)
	}
	if *m != fresh.m {
		t.Fatal("RunScalingWorkload metrics differ from a fresh reference run")
	}
	m.ESMRounds = -1 // the caller's own copy: the memo must not see this
	if r := MeasureRates(3, 0.001, decoder.SchemePriority, seed); r != MeasureRatesUncached(3, 0.001, decoder.SchemePriority, seed) {
		t.Fatalf("rates after RunScalingWorkload %+v differ from an uncached run", r)
	}
	if got := rateMisses.Load() - before; got != 1 {
		t.Fatalf("MeasureRates after RunScalingWorkload ran the pipeline again (misses = %d)", got)
	}
	again, err := RunScalingWorkload(3, 0.001, decoder.SchemePriority, seed)
	if err != nil {
		t.Fatal(err)
	}
	if *again != fresh.m {
		t.Fatal("a caller's edit leaked into the memoized metrics")
	}
}

// TestLogicalErrorRateSchedulingInvariant: the parallel trial pool
// returns exactly the serial loop's answer: per-trial seeds make each
// trial independent of scheduling, and the rate is a pure count.
func TestLogicalErrorRateSchedulingInvariant(t *testing.T) {
	const trials = 40
	par, _, err := NewMemoryExperiment(3).ErrorRate(context.Background(), 0.01, 3, trials, 900004, faults.Config{})
	if err != nil {
		t.Fatal(err)
	}
	prev := runtime.GOMAXPROCS(1)
	ser, _, err := NewMemoryExperiment(3).ErrorRate(context.Background(), 0.01, 3, trials, 900004, faults.Config{})
	runtime.GOMAXPROCS(prev)
	if err != nil {
		t.Fatal(err)
	}
	if par != ser {
		t.Fatalf("parallel rate %v != serial rate %v", par, ser)
	}
}
