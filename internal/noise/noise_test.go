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
