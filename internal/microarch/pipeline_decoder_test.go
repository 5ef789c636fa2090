package microarch

import (
	"testing"

	"xqsim/internal/compiler"
	"xqsim/internal/decoder"
	"xqsim/internal/statevec"
	"xqsim/internal/surface"
)

// runWithBackend runs one compiled program with the given decode backend
// (nil = historical direct path) and returns the metrics.
func runWithBackend(t *testing.T, circ compiler.Circuit, dec decoder.Backend, p float64, seed int64) Metrics {
	t.Helper()
	res, err := compiler.Compile(circ)
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(3, p, seed)
	cfg.DecoderBackend = dec
	pl := NewPipeline(surface.NewPPRLayout(circ.NLQ, 3), cfg)
	if err := pl.Run(res.Program); err != nil {
		t.Fatal(err)
	}
	return pl.M
}

// TestPipelineMatchingBackendFunctionallyIdentical pins that installing
// the matching backend changes only latency accounting, never outcomes:
// its corrections are bit-identical to the direct DecodePatchInto path,
// so every measurement register bit must match the nil-backend run.
func TestPipelineMatchingBackendFunctionallyIdentical(t *testing.T) {
	circ := compiler.SinglePPR("XZ", 0).SubstituteStabilizer()
	for _, seed := range []int64{42, 43, 44} {
		base := runWithBackend(t, circ, nil, 0.002, seed)
		withB := runWithBackend(t, circ, decoder.NewMatchingBackend(), 0.002, seed)
		base.MregFile.Range(func(k uint16, v bool) {
			if withB.MregFile.Get(k) != v {
				t.Fatalf("seed %d: mreg %d differs under matching backend", seed, k)
			}
		})
		if base.ESMRounds != withB.ESMRounds {
			t.Fatalf("seed %d: ESM rounds %d vs %d", seed, base.ESMRounds, withB.ESMRounds)
		}
		// The pluggable path charges max(structural model, backend cycles),
		// so latency can only grow.
		if withB.DecodeCyclesSum < base.DecodeCyclesSum {
			t.Fatalf("seed %d: matching backend lowered decode cycles %d -> %d", seed, base.DecodeCyclesSum, withB.DecodeCyclesSum)
		}
	}

	// Why the nil path stays the default: a backend reports the sum of
	// both bases' decode costs, while the priority EDU (Opt #1) decodes X
	// and Z in parallel. Round-robin serializes the bases, so there the
	// two paths charge the same; on the d=15 MeasureRates workload under
	// priority the backend charges strictly more.
	scaling := compiler.RandomPPR(4, 6, 1).SubstituteStabilizer()
	res, err := compiler.Compile(scaling)
	if err != nil {
		t.Fatal(err)
	}
	cycles := func(scheme decoder.Scheme, dec decoder.Backend) uint64 {
		cfg := testConfig(15, 0.001, 1)
		cfg.Functional = false
		cfg.Scheme = scheme
		cfg.DecoderBackend = dec
		pl := NewPipeline(surface.NewPPRLayout(scaling.NLQ, 15), cfg)
		if err := pl.Run(res.Program); err != nil {
			t.Fatal(err)
		}
		return pl.M.DecodeCyclesSum
	}
	rr := decoder.SchemeRoundRobin
	if base, withB := cycles(rr, nil), cycles(rr, decoder.NewMatchingBackend()); withB != base {
		t.Errorf("round-robin: matching backend charges %d decode cycles, nil path %d", withB, base)
	}
	pr := decoder.SchemePriority
	if base, withB := cycles(pr, nil), cycles(pr, decoder.NewMatchingBackend()); withB <= base {
		t.Errorf("priority: matching backend charges %d decode cycles, want more than the nil path's %d", withB, base)
	}
}

// TestPipelineUnionFindDeterministic pins seed-determinism of the
// union-find backend through the full pipeline, including clone isolation
// when one configured backend fans out to several pipelines.
func TestPipelineUnionFindDeterministic(t *testing.T) {
	circ := compiler.SinglePPR("XZ", 0).SubstituteStabilizer()
	shared, err := decoder.NewBackendByName("union-find")
	if err != nil {
		t.Fatal(err)
	}
	run := func() Metrics { return runWithBackend(t, circ, shared, 0.002, 42) }
	s1 := run()
	s2 := run()
	s1.MregFile.Range(func(k uint16, v bool) {
		if s2.MregFile.Get(k) != v {
			t.Fatalf("mreg %d differs between identically-seeded union-find runs", k)
		}
	})
	if s1.ESMRounds != s2.ESMRounds || s1.DecodeCyclesSum != s2.DecodeCyclesSum {
		t.Fatal("union-find pipeline metrics not deterministic")
	}
}

// TestPipelineUnionFindCorrectsNoise runs a noisy circuit end-to-end
// under the union-find backend: the decoded distribution must stay close
// to ideal, i.e. the approximate decoder still corrects the Table-3
// noise regime.
func TestPipelineUnionFindCorrectsNoise(t *testing.T) {
	circ := compiler.SinglePPR("ZZ", 0).SubstituteStabilizer()
	want := compiler.ReferenceDistribution(circ)
	res, err := compiler.Compile(circ)
	if err != nil {
		t.Fatal(err)
	}
	uf := decoder.NewUnionFindBackend()
	shots := 300
	counts := make([]float64, 1<<uint(circ.NLQ))
	for s := 0; s < shots; s++ {
		cfg := testConfig(3, 0.001, 1+int64(s)*101)
		cfg.DecoderBackend = uf
		pl := NewPipeline(surface.NewPPRLayout(circ.NLQ, 3), cfg)
		if err := pl.Run(res.Program); err != nil {
			t.Fatal(err)
		}
		key := 0
		for q, mreg := range res.FinalMreg {
			if pl.M.MregFile.Get(uint16(mreg)) {
				key |= 1 << uint(q)
			}
		}
		counts[key]++
	}
	for i := range counts {
		counts[i] /= float64(shots)
	}
	if d := statevec.TotalVariation(want, counts); d > 0.1 {
		t.Fatalf("union-find dTV = %v\nwant %v\ngot  %v", d, want, counts)
	}
}
