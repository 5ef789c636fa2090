package microarch

import (
	"testing"

	"xqsim/internal/compiler"
	"xqsim/internal/decoder"
	"xqsim/internal/statevec"
	"xqsim/internal/surface"
)

func testConfig(d int, p float64, seed int64) Config {
	return Config{
		D:          d,
		PhysError:  p,
		Seed:       seed,
		Functional: true,
		Scheme:     decoder.SchemePriority,
	}
}

// runShots samples the full pipeline (compile -> microarchitecture ->
// noisy backend) and returns the empirical final-readout distribution.
func runShots(t *testing.T, circ compiler.Circuit, d int, p float64, shots int, seed int64) []float64 {
	t.Helper()
	res, err := compiler.Compile(circ)
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]float64, 1<<uint(circ.NLQ))
	for s := 0; s < shots; s++ {
		cfg := testConfig(d, p, seed+int64(s)*101)
		pl := NewPipeline(surface.NewPPRLayout(circ.NLQ, d), cfg)
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
	return counts
}

func TestPipelineSinglePPRNoiseless(t *testing.T) {
	// PPR(Z Z) at pi/4 on |00>: exp(-i pi/4 ZZ)|00> has a deterministic
	// Z-distribution (|00>), easy exact check.
	circ := compiler.SinglePPR("ZZ", 0).SubstituteStabilizer()
	want := compiler.ReferenceDistribution(circ)
	got := runShots(t, circ, 3, 0, 300, 1)
	if d := statevec.TotalVariation(want, got); d > 0.08 {
		t.Fatalf("dTV = %v\nwant %v\ngot  %v", d, want, got)
	}
}

func TestPipelineQFT2Noiseless(t *testing.T) {
	circ := compiler.QFT2(2).SubstituteStabilizer()
	want := compiler.ReferenceDistribution(circ)
	got := runShots(t, circ, 3, 0, 400, 7)
	if d := statevec.TotalVariation(want, got); d > 0.08 {
		t.Fatalf("QFT2 dTV = %v\nwant %v\ngot  %v", d, want, got)
	}
}

func TestPipelineQAOANoisy(t *testing.T) {
	// With p = 0.1% at d = 3 the distribution must stay close to ideal
	// (this is the Table-3 regime).
	circ := compiler.QAOA(3).SubstituteStabilizer()
	want := compiler.ReferenceDistribution(circ)
	got := runShots(t, circ, 3, 0.001, 400, 11)
	if d := statevec.TotalVariation(want, got); d > 0.12 {
		t.Fatalf("QAOA noisy dTV = %v\nwant %v\ngot  %v", d, want, got)
	}
}

func TestPipelineDeterministicWithSeed(t *testing.T) {
	circ := compiler.SinglePPR("XZ", 0).SubstituteStabilizer()
	res, err := compiler.Compile(circ)
	if err != nil {
		t.Fatal(err)
	}
	run := func() Metrics {
		pl := NewPipeline(surface.NewPPRLayout(circ.NLQ, 3), testConfig(3, 0.001, 42))
		if err := pl.Run(res.Program); err != nil {
			t.Fatal(err)
		}
		return pl.M
	}
	s1 := run()
	s2 := run()
	s1.MregFile.Range(func(k uint16, v bool) {
		if s2.MregFile.Get(k) != v {
			t.Fatalf("mreg %d differs", k)
		}
	})
	if s1.ESMRounds != s2.ESMRounds || s1.DecodeCyclesSum != s2.DecodeCyclesSum {
		t.Fatal("metrics not deterministic")
	}
}

func TestPipelineMetricsSanity(t *testing.T) {
	circ := compiler.SinglePPR("ZZ", 0).SubstituteStabilizer()
	res, err := compiler.Compile(circ)
	if err != nil {
		t.Fatal(err)
	}
	d := 3
	pl := NewPipeline(surface.NewPPRLayout(circ.NLQ, d), testConfig(d, 0.001, 5))
	if err := pl.Run(res.Program); err != nil {
		t.Fatal(err)
	}
	m := &pl.M

	// ESM rounds: init window (d) + merge window (d) + split window (d).
	if m.ESMRounds != 3*d {
		t.Errorf("ESM rounds = %d, want %d", m.ESMRounds, 3*d)
	}
	if m.DecodeWindows != 3 {
		t.Errorf("decode windows = %d", m.DecodeWindows)
	}
	// Virtual time must cover the rounds plus measurements.
	if m.VirtualNs < m.ESMTimeNs || m.ESMTimeNs < float64(m.ESMRounds)*700 {
		t.Errorf("times: virtual %.0f, esm %.0f", m.VirtualNs, m.ESMTimeNs)
	}
	// The codeword stream must dominate inter-unit traffic (Fig. 16a).
	psuTcu := m.TransferBits[UnitPSU][UnitTCU] + m.TransferBits[UnitTCU][UnitQCI]
	var total uint64
	for s := Unit(0); s < NumUnits; s++ {
		total += m.UnitTrafficBits(s)
	}
	if float64(psuTcu)/float64(total) < 0.9 {
		t.Errorf("PSU/TCU traffic share = %.3f, want > 0.9", float64(psuTcu)/float64(total))
	}
	// All units saw work.
	for u := UnitQID; u <= UnitLMU; u++ {
		if m.Unit[u].Ops == 0 {
			t.Errorf("unit %v idle", u)
		}
	}
	if m.Instructions != len(res.Program) {
		t.Errorf("instructions = %d, want %d", m.Instructions, len(res.Program))
	}
}

func TestPipelineSchemeLatencyOrdering(t *testing.T) {
	// Round-robin decode must cost more cycles than priority on the same
	// seed/noise; patch-sliding stays close to priority.
	circ := compiler.RandomPPR(3, 3, 9).SubstituteStabilizer()
	res, err := compiler.Compile(circ)
	if err != nil {
		t.Fatal(err)
	}
	run := func(s decoder.Scheme) uint64 {
		cfg := testConfig(5, 0.002, 77)
		cfg.Scheme = s
		pl := NewPipeline(surface.NewPPRLayout(circ.NLQ, 5), cfg)
		if err := pl.Run(res.Program); err != nil {
			t.Fatal(err)
		}
		return pl.M.DecodeCyclesSum
	}
	rr := run(decoder.SchemeRoundRobin)
	pr := run(decoder.SchemePriority)
	ps := run(decoder.SchemePatchSliding)
	if rr <= pr {
		t.Errorf("RR cycles (%d) should exceed priority (%d)", rr, pr)
	}
	if ps < pr {
		t.Errorf("patch-sliding (%d) below priority (%d)", ps, pr)
	}
	if float64(ps) > 2*float64(pr)+1000 {
		t.Errorf("patch-sliding (%d) too far above priority (%d)", ps, pr)
	}
}

func TestPipelineFaultInjectionCorrected(t *testing.T) {
	// Deterministically inject a sub-threshold error chain mid-program by
	// running with moderate noise many times: the decoded distribution
	// must stay closer to ideal than an undecoded (pfFrame disabled)
	// run would be. Here we simply verify the noisy dTV stays bounded at
	// d=5 where decoding is effective.
	circ := compiler.SinglePPR("Z", 0).SubstituteStabilizer()
	want := compiler.ReferenceDistribution(circ)
	got := runShots(t, circ, 5, 0.001, 200, 23)
	if d := statevec.TotalVariation(want, got); d > 0.1 {
		t.Fatalf("d=5 noisy dTV = %v", d)
	}
}
