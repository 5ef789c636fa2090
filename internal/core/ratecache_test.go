package core

import (
	"context"
	"runtime"
	"sync"
	"testing"

	"xqsim/internal/decoder"
	"xqsim/internal/microarch"
)

// Keys here use otherwise-unused seeds so the miss accounting is not
// perturbed by other tests sharing the process-wide cache.

// forgetRates drops the in-process cache entries of every key measured
// at seed when the test ends, so a repeated run of the test in the same
// process (go test -count=N) starts from cold keys again.
func forgetRates(t *testing.T, seed int64) {
	t.Cleanup(func() {
		rateCache.mu.Lock()
		defer rateCache.mu.Unlock()
		kept := rateCache.order[:0]
		for _, k := range rateCache.order {
			if k.seed == seed {
				delete(rateCache.entries, k)
			} else {
				kept = append(kept, k)
			}
		}
		rateCache.order = kept
	})
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
	first := rateKey{d: 3, physError: 0.001, scheme: decoder.SchemePriority, seed: base}
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

func TestMeasureRatesMemoized(t *testing.T) {
	const seed = 900001
	forgetRates(t, seed)
	before := rateMisses.Load()
	a := MeasureRates(3, 0.001, decoder.SchemePriority, seed)
	b := MeasureRates(3, 0.001, decoder.SchemePriority, seed)
	if got := rateMisses.Load() - before; got != 1 {
		t.Fatalf("two same-key calls ran the pipeline %d times, want 1", got)
	}
	if a != b {
		t.Fatalf("memoized result differs: %+v vs %+v", a, b)
	}
	// A different key must miss.
	MeasureRates(3, 0.001, decoder.SchemeRoundRobin, seed)
	if got := rateMisses.Load() - before; got != 2 {
		t.Fatalf("distinct-key call did not run the pipeline (misses = %d)", got)
	}
}

func TestMeasureRatesUncachedBypasses(t *testing.T) {
	const seed = 900002
	forgetRates(t, seed)
	u := MeasureRatesUncached(3, 0.001, decoder.SchemePriority, seed)
	key := rateKey{d: 3, physError: 0.001, scheme: decoder.SchemePriority, seed: seed}
	if memoHas(key) {
		t.Fatal("MeasureRatesUncached populated the cache")
	}
	if c := MeasureRates(3, 0.001, decoder.SchemePriority, seed); c != u {
		t.Fatalf("uncached result %+v differs from cached %+v", u, c)
	}
}

// TestMeasureRatesConcurrent hammers two fresh keys from many
// goroutines, half asking for the rates and half for the reference
// run's metrics: the singleflight cell must run the pipeline exactly
// once per key, every metrics copy must equal a fresh reference run and
// every caller must observe the same rates. Run with -race.
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
	if got := rateMisses.Load() - before; got != 2 {
		t.Fatalf("%d concurrent callers over 2 keys ran the pipeline %d times, want 2", callers, got)
	}
	for k, scheme := range schemes {
		fresh, nPhys, err := referenceRun(3, 0.001, scheme, seed, refLQ, refPPRs)
		if err != nil {
			t.Fatal(err)
		}
		want := ratesOf(&fresh, nPhys)
		for i := k; i < callers; i += 2 {
			switch {
			case errs[i] != nil:
				t.Fatalf("caller %d: %v", i, errs[i])
			case metrics[i] != nil && *metrics[i] != fresh:
				t.Fatalf("caller %d: metrics differ from a fresh reference run", i)
			case metrics[i] == nil && rates[i] != want:
				t.Fatalf("caller %d observed %+v, want %+v", i, rates[i], want)
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
	fresh, _, err := referenceRun(3, 0.001, decoder.SchemePriority, seed, refLQ, refPPRs)
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
	if *m != fresh {
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
	if *again != fresh {
		t.Fatal("a caller's edit leaked into the memoized metrics")
	}
}

// TestLogicalErrorRateSchedulingInvariant: the parallel trial pool
// returns exactly the serial loop's answer: per-trial seeds make each
// trial independent of scheduling, and the rate is a pure count.
func TestLogicalErrorRateSchedulingInvariant(t *testing.T) {
	const trials = 40
	par, err := LogicalErrorRate(context.Background(), 3, 0.01, 3, trials, 900004)
	if err != nil {
		t.Fatal(err)
	}
	prev := runtime.GOMAXPROCS(1)
	ser, err := LogicalErrorRate(context.Background(), 3, 0.01, 3, trials, 900004)
	runtime.GOMAXPROCS(prev)
	if err != nil {
		t.Fatal(err)
	}
	if par != ser {
		t.Fatalf("parallel rate %v != serial rate %v", par, ser)
	}
}
