package verify

import (
	"context"
	"math"
	"reflect"
	"strings"
	"testing"

	"xqsim/internal/stab"
)

// TestSuiteQuick is the harness' own tier-1 gate: the full differential
// suite at quick depth against the production simulators.
func TestSuiteQuick(t *testing.T) {
	rep := RunCtx(context.Background(), Quick, 20260805, nil)
	if !rep.OK() {
		for _, f := range rep.Failures {
			t.Errorf("%v", f)
		}
	}
	for _, name := range CheckNames() {
		if rep.TrialsRun[name] == 0 {
			t.Errorf("check %q ran zero trials", name)
		}
	}
}

func TestOracleKnownDistributions(t *testing.T) {
	bell := stab.NewCircuit(2)
	bell.H(0).CX(0, 1).MeasureZ(0).MeasureZ(1)

	plus := stab.NewCircuit(1)
	plus.H(0).MeasureZ(0)

	det := stab.NewCircuit(2)
	det.X(0).CX(0, 1).MeasureZ(0).MeasureZ(1)

	flip := stab.NewCircuit(1)
	flip.FlipX(0, 0.25).MeasureZ(0)

	cases := []struct {
		name string
		c    *stab.Circuit
		want map[uint64]float64
	}{
		{"bell", bell, map[uint64]float64{0b00: 0.5, 0b11: 0.5}},
		{"plus", plus, map[uint64]float64{0: 0.5, 1: 0.5}},
		{"deterministic", det, map[uint64]float64{0b11: 1}},
		{"flipx", flip, map[uint64]float64{0: 0.75, 1: 0.25}},
	}
	for _, tc := range cases {
		dist, _, err := RecordDistribution(tc.c)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if len(dist) != len(tc.want) {
			t.Fatalf("%s: got %v want %v", tc.name, dist, tc.want)
		}
		for rec, p := range tc.want {
			if math.Abs(dist[rec]-p) > 1e-9 {
				t.Errorf("%s: P(%b) = %g, want %g", tc.name, rec, dist[rec], p)
			}
		}
	}
}

func TestOracleRejectsOversizedCircuits(t *testing.T) {
	big := stab.NewCircuit(oracleMaxQubits + 1)
	big.MeasureZ(0)
	if _, _, err := RecordDistribution(big); err == nil {
		t.Error("oracle accepted an oversized qubit count")
	}
	many := stab.NewCircuit(2)
	for i := 0; i <= oracleMaxMeasure; i++ {
		many.H(0).MeasureZ(0)
	}
	if _, _, err := RecordDistribution(many); err == nil {
		t.Error("oracle accepted too many measurements")
	}
}

func TestChiSquareSeparation(t *testing.T) {
	dist := map[uint64]float64{0: 0.5, 1: 0.5}
	shots := 4096

	good := map[uint64]int{0: 2080, 1: 2016}
	if r := ChiSquare(dist, good, shots); !r.OK() {
		t.Errorf("near-exact counts rejected: %v", r)
	}

	skewed := map[uint64]int{0: 3000, 1: 1096}
	if r := ChiSquare(dist, skewed, shots); r.OK() {
		t.Errorf("heavily skewed counts accepted: %v", r)
	}

	impossible := map[uint64]int{0: 2048, 1: 2047, 2: 1}
	r := ChiSquare(dist, impossible, shots)
	if r.OK() || len(r.Impossible) != 1 || r.Impossible[0] != 2 {
		t.Errorf("impossible record not flagged: %v", r)
	}
}

func TestDumpParseRoundTrip(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		c := RandomCircuit(seed, CircuitShape{MaxQubits: 6, MaxGates: 20, MaxMeasure: 5, MaxNoise: 3})
		back, err := ParseCircuit(DumpCircuit(c))
		if err != nil {
			t.Fatalf("seed %d: %v\n%s", seed, err, DumpCircuit(c))
		}
		if !reflect.DeepEqual(c, back) {
			t.Fatalf("seed %d: round trip diverged:\n%s\nvs\n%s", seed, DumpCircuit(c), DumpCircuit(back))
		}
	}
	if _, err := ParseCircuit("H 0\n"); err == nil {
		t.Error("missing header accepted")
	}
	if _, err := ParseCircuit("qubits 2\nBOGUS 0\n"); err == nil {
		t.Error("unknown op accepted")
	}
	if _, err := ParseCircuit("qubits 2\nCX 0 5\n"); err == nil {
		t.Error("out-of-range qubit accepted")
	}
}

func TestRandomCircuitDeterministic(t *testing.T) {
	shape := CircuitShape{MaxQubits: 5, MaxGates: 30, MaxMeasure: 5, MaxNoise: 2}
	for seed := int64(1); seed < 20; seed++ {
		a, b := RandomCircuit(seed, shape), RandomCircuit(seed, shape)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d: generator is not a pure function of seed", seed)
		}
		if a.Measurements() == 0 {
			t.Fatalf("seed %d: circuit has no measurements", seed)
		}
	}
}

// TestShrinkPreservesFailure plants a failing predicate (circuit touches
// qubit 0 with an H before a measurement) and checks the shrinker returns
// a minimal circuit that still fails and still measures.
func TestShrinkPreservesFailure(t *testing.T) {
	c := stab.NewCircuit(3)
	c.S(1).H(0).CX(1, 2).X(2).MeasureZ(1).MeasureZ(0)
	fails := func(c *stab.Circuit) bool {
		hasH := false
		for _, op := range c.Ops {
			if op.Kind == stab.OpH && op.A == 0 {
				hasH = true
			}
		}
		return hasH && c.Measurements() > 0
	}
	small := ShrinkCircuit(c, fails)
	if !fails(small) {
		t.Fatal("shrunk circuit no longer fails")
	}
	if len(small.Ops) != 2 {
		t.Errorf("expected 2-op minimal circuit (H 0 + one MZ), got:\n%s", DumpCircuit(small))
	}
}

// TestReplayReproduces runs a known-failing scenario through Replay: the
// lockstep check against a deliberately wrong expectation should both
// fail and reproduce the identical failure from its seed.
func TestReplayDeterministic(t *testing.T) {
	for _, name := range CheckNames() {
		f1, err := Replay(name, 12345, Quick)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		f2, _ := Replay(name, 12345, Quick)
		if (f1 == nil) != (f2 == nil) {
			t.Fatalf("%s: replay nondeterministic", name)
		}
		if f1 != nil && f1.Detail != f2.Detail {
			t.Fatalf("%s: replay detail diverged:\n%s\nvs\n%s", name, f1.Detail, f2.Detail)
		}
	}
	if _, err := Replay("no-such-check", 1, Quick); err == nil {
		t.Error("unknown check name accepted")
	}
}

// TestLockstepExplicitCircuits pins the co-simulation on hand-built
// circuits covering every op kind, including noise (which must consume
// the same rng stream as SimulateTableau).
func TestLockstepExplicitCircuits(t *testing.T) {
	c := stab.NewCircuit(4)
	c.H(0).CX(0, 1).S(1).CZ(1, 2).X(2)
	c.Ops = append(c.Ops,
		stab.Op{Kind: stab.OpY, A: 3},
		stab.Op{Kind: stab.OpZ, A: 0},
	)
	c.Depolarize1(1, 0.5).FlipX(2, 0.25).FlipZ(0, 0.125)
	c.MeasureZ(0).Reset(1).MeasureZ(1).MeasureZ(2).MeasureZ(3)
	for seed := int64(0); seed < 32; seed++ {
		if err := Lockstep(c, seed); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

func TestFailureErrorFormat(t *testing.T) {
	f := &Failure{Check: "lockstep", Seed: 42, Detail: "boom", Circuit: "qubits 1\nMZ 0\n"}
	msg := f.Error()
	for _, want := range []string{"lockstep", "42", "boom", "replay: xqverify -replay lockstep:42", "qubits 1"} {
		if !strings.Contains(msg, want) {
			t.Errorf("failure message missing %q:\n%s", want, msg)
		}
	}
	// A suite failure names its depth: the trial's size comes from it.
	f.Depth = "deep"
	if msg := f.Error(); !strings.Contains(msg, "replay: xqverify -depth deep -replay lockstep:42") {
		t.Errorf("replay hint does not name the depth:\n%s", msg)
	}
}

func TestDepthByName(t *testing.T) {
	for _, name := range []string{"quick", "standard", "deep"} {
		d, err := DepthByName(name)
		if err != nil || d.Name != name {
			t.Errorf("DepthByName(%q) = %v, %v", name, d.Name, err)
		}
	}
	if _, err := DepthByName("bogus"); err == nil {
		t.Error("bogus depth accepted")
	}
}
