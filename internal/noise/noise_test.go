package noise

import (
	"math"
	"slices"
	"testing"

	"xqsim/internal/xrand"
)

func TestZeroProbability(t *testing.T) {
	m := NewModel(0, 1)
	if got := m.SampleSites(1000); got != nil {
		t.Fatalf("p=0 sampled %v", got)
	}
	if m.Hit() {
		t.Fatal("p=0 hit")
	}
	if m.CountHits(1000) != 0 {
		t.Fatal("p=0 counted hits")
	}
	if !m.Skip(1000) {
		t.Fatal("p=0 Skip reported a hit")
	}
	// None of them touched the stream.
	if got, want := m.Rand().Uint64(), xrand.New(1).Uint64(); got != want {
		t.Fatalf("p=0 drew from the stream: next word %x, fresh %x", got, want)
	}
}

func TestSampleSitesStatistics(t *testing.T) {
	p := 0.01
	n := 1000
	trials := 500
	m := NewModel(p, 42)
	total := 0
	for i := 0; i < trials; i++ {
		sites := m.SampleSites(n)
		total += len(sites)
		// Sites must be sorted, unique, in range.
		for j, s := range sites {
			if s < 0 || s >= n {
				t.Fatalf("site %d out of range", s)
			}
			if j > 0 && sites[j] <= sites[j-1] {
				t.Fatalf("sites not strictly increasing: %v", sites)
			}
		}
	}
	mean := float64(total) / float64(trials)
	want := float64(n) * p
	if math.Abs(mean-want) > 0.15*want {
		t.Fatalf("mean hits %.2f, want ~%.2f", mean, want)
	}
}

func TestHitStatistics(t *testing.T) {
	p := 0.3
	m := NewModel(p, 7)
	hits := 0
	n := 20000
	for i := 0; i < n; i++ {
		if m.Hit() {
			hits++
		}
	}
	frac := float64(hits) / float64(n)
	if math.Abs(frac-p) > 0.02 {
		t.Fatalf("hit fraction %.3f, want ~%.3f", frac, p)
	}
}

func TestCountHitsMatchesSample(t *testing.T) {
	// CountHits and SampleSites must have the same distribution; compare
	// means over many trials.
	p := 0.005
	n := 2000
	a := NewModel(p, 11)
	b := NewModel(p, 12)
	ta, tb := 0, 0
	for i := 0; i < 300; i++ {
		ta += a.CountHits(n)
		tb += len(b.SampleSites(n))
	}
	if math.Abs(float64(ta)-float64(tb)) > 0.25*float64(ta)+20 {
		t.Fatalf("CountHits total %d vs SampleSites total %d", ta, tb)
	}
}

func TestInvalidProbabilityPanics(t *testing.T) {
	for _, p := range []float64{-0.1, 1.0, 2.0} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewModel(%v) did not panic", p)
				}
			}()
			NewModel(p, 1)
		}()
	}
}

// TestAppendSitesMatchesHit pins the premise incremental syndrome
// extraction rests on: AppendSites(n) reports exactly the trial indices
// at which n Hit calls on a twin model return true, and leaves both
// streams in step, so a syndrome round may draw its per-check
// measurement flips in one bulk call.
func TestAppendSitesMatchesHit(t *testing.T) {
	for _, p := range []float64{0, 0.001, 0.05, 0.3} {
		bulk, twin := NewModel(p, 99), NewModel(p, 99)
		lengths := xrand.New(7)
		var got, want []int
		for call := 0; call < 3000; call++ {
			n := lengths.Intn(260)
			if call%7 == 0 {
				n = 0
			}
			got = bulk.AppendSites(got[:0], n)
			want = want[:0]
			for i := 0; i < n; i++ {
				if twin.Hit() {
					want = append(want, i)
				}
			}
			if !slices.Equal(got, want) {
				t.Fatalf("p=%v call %d: AppendSites(%d) = %v, %d Hit calls hit at %v", p, call, n, got, n, want)
			}
			if call%5 == 0 { // a single trial between bulk calls
				if b, w := bulk.Hit(), twin.Hit(); b != w {
					t.Fatalf("p=%v call %d: interleaved Hit %v vs %v", p, call, b, w)
				}
			}
		}
		for i := 0; i < 2000; i++ {
			if b, w := bulk.Hit(), twin.Hit(); b != w {
				t.Fatalf("p=%v: draw %d after the bulk calls diverged: %v vs %v", p, i, b, w)
			}
		}
	}
}

// TestSkipMatchesAppendSites pins the premise the backend's quiet-round
// fast path rests on: a model that tries Skip(n) first and falls back to
// AppendSites(n) when it fails reports the same sites, and leaves the
// same next draw, as a twin that calls AppendSites(n) directly — across
// random interleavings with Hit, CountHits, SetProb and Reseed, and over
// batched skips whose length is the sum of several calls'.
func TestSkipMatchesAppendSites(t *testing.T) {
	for _, p := range []float64{0, 0.0005, 0.001, 0.05, 0.3} {
		skipper, twin := NewModel(p, 5), NewModel(p, 5)
		ops := xrand.New(int64(p*1e6) + 3)
		var got, want []int
		for call := 0; call < 4000; call++ {
			switch op := ops.Intn(100); {
			case op < 60:
				n := ops.Intn(400)
				if call%9 == 0 {
					n = 0
				}
				got = got[:0]
				if !skipper.Skip(n) {
					got = skipper.AppendSites(got, n)
				}
				want = twin.AppendSites(want[:0], n)
				if !slices.Equal(got, want) {
					t.Fatalf("p=%v call %d: Skip-then-AppendSites(%d) = %v, AppendSites = %v", p, call, n, got, want)
				}
			case op < 70:
				// A batch of k calls skipped at once is k hit-free calls.
				k := 1 + ops.Intn(4)
				lens := make([]int, k)
				total := 0
				for i := range lens {
					lens[i] = ops.Intn(200)
					total += lens[i]
				}
				if skipper.Skip(total) {
					for i, n := range lens {
						if want = twin.AppendSites(want[:0], n); len(want) != 0 {
							t.Fatalf("p=%v call %d: Skip(%d) held but part %d (AppendSites(%d)) hit %v", p, call, total, i, n, want)
						}
					}
					break
				}
				for _, n := range lens {
					got = skipper.AppendSites(got[:0], n)
					want = twin.AppendSites(want[:0], n)
					if !slices.Equal(got, want) {
						t.Fatalf("p=%v call %d: after a failed Skip(%d), AppendSites(%d) = %v, twin %v", p, call, total, n, got, want)
					}
				}
			case op < 80:
				if s, w := skipper.Hit(), twin.Hit(); s != w {
					t.Fatalf("p=%v call %d: Hit %v vs %v", p, call, s, w)
				}
			case op < 90:
				n := ops.Intn(300)
				if s, w := skipper.CountHits(n), twin.CountHits(n); s != w {
					t.Fatalf("p=%v call %d: CountHits(%d) %d vs %d", p, call, n, s, w)
				}
			case op < 95:
				q := []float64{0, 0.0005, 0.01, 0.2}[ops.Intn(4)]
				skipper.SetProb(q)
				twin.SetProb(q)
			default:
				s := int64(ops.Intn(1 << 16))
				skipper.Reseed(s)
				twin.Reseed(s)
			}
		}
		for i := 0; i < 2000; i++ {
			if s, w := skipper.Hit(), twin.Hit(); s != w {
				t.Fatalf("p=%v: draw %d after the sequence diverged: %v vs %v", p, i, s, w)
			}
		}
	}
}
