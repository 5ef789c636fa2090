package stab_test

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"xqsim/internal/stab"
	"xqsim/internal/surface"
	"xqsim/internal/verify"
)

// recordString renders a measurement record as a 0/1 string for
// failure messages and pinning.
func recordString(rec []bool) string {
	buf := make([]byte, len(rec))
	for i, b := range rec {
		buf[i] = '0'
		if b {
			buf[i] = '1'
		}
	}
	return string(buf)
}

// sampleShots collects per-shot records [start, start+n) from a fresh
// batch sampler via the row-wise API.
func sampleShots(t *testing.T, c *stab.Circuit, seed int64, start, n int) [][]bool {
	t.Helper()
	bs, err := stab.NewBatchFrameSampler(c, seed)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	bs.Seek(start)
	out := make([][]bool, 0, n)
	bs.SampleInto(n, func(shot int, rec []bool) {
		if want := start + len(out); shot != want {
			t.Fatalf("SampleInto shot index %d, want %d", shot, want)
		}
		out = append(out, append([]bool(nil), rec...))
	})
	return out
}

// TestBatchMatchesScalarOnVerifyShapes is the headline equivalence
// property: across the verify harness's random-circuit shapes, the
// bit-sliced sampler and the scalar oracle produce bit-identical
// records per (seed, shot-index). 130 shots cross two block boundaries.
func TestBatchMatchesScalarOnVerifyShapes(t *testing.T) {
	shapes := []verify.CircuitShape{
		{MaxQubits: 4, MaxGates: 10, MaxMeasure: 4, MaxNoise: 3},
		{MaxQubits: 6, MaxGates: 48, MaxMeasure: 6, MaxNoise: 3},
		{MaxQubits: 7, MaxGates: 64, MaxMeasure: 8, MaxNoise: 4},
		{MaxQubits: 5, MaxGates: 24, MaxMeasure: 6, MaxNoise: 0},
	}
	const shots = 130
	for si, shape := range shapes {
		for seed := int64(1); seed <= 25; seed++ {
			c := verify.RandomCircuit(seed*37, shape)
			fs := stab.NewFrameSampler(c, seed)
			got := sampleShots(t, c, seed, 0, shots)
			for s := 0; s < shots; s++ {
				want := fs.SampleShot(s)
				if recordString(got[s]) != recordString(want) {
					t.Fatalf("shape %d seed %d shot %d: batch %s, scalar %s\ncircuit:\n%s",
						si, seed, s, recordString(got[s]), recordString(want), verify.DumpCircuit(c))
				}
			}
		}
	}
}

// TestBatchMatchesScalarESMCircuit pins equivalence on the production
// circuit family (depolarizing two-qubit noise plus the fused
// FlipX;MeasureZ measurement-noise idiom of every ESM round).
func TestBatchMatchesScalarESMCircuit(t *testing.T) {
	c := surface.NewCode(3).ESMCircuit(3, 0.02, 0.05)
	const seed, shots = 9, 192
	fs := stab.NewFrameSampler(c, seed)
	got := sampleShots(t, c, seed, 0, shots)
	for s := 0; s < shots; s++ {
		if want := fs.SampleShot(s); recordString(got[s]) != recordString(want) {
			t.Fatalf("shot %d: batch %s, scalar %s", s, recordString(got[s]), recordString(want))
		}
	}
}

// TestBatchPartialBlockSizes covers every partial-block shape around
// the 64-shot word: records must not depend on how shots are grouped
// into calls.
func TestBatchPartialBlockSizes(t *testing.T) {
	c := verify.RandomCircuit(21, verify.CircuitShape{MaxQubits: 4, MaxGates: 16, MaxMeasure: 4, MaxNoise: 3})
	fs := stab.NewFrameSampler(c, 3)
	for _, n := range []int{1, 2, 63, 64, 65, 127, 128, 130} {
		got := sampleShots(t, c, 3, 0, n)
		for s := 0; s < n; s++ {
			if want := fs.SampleShot(s); recordString(got[s]) != recordString(want) {
				t.Fatalf("n=%d shot %d: batch %s, scalar %s", n, s, recordString(got[s]), recordString(want))
			}
		}
	}
}

// TestBatchColumnsMatchRows: the column-wise and row-wise APIs expose
// the same bits, including mid-block Seek offsets (where columns are
// delivered shifted) and zeroed lanes past the end.
func TestBatchColumnsMatchRows(t *testing.T) {
	c := verify.RandomCircuit(31, verify.CircuitShape{MaxQubits: 5, MaxGates: 24, MaxMeasure: 6, MaxNoise: 3})
	const seed = 8
	for _, start := range []int{0, 1, 37, 64, 100} {
		const n = 90
		rows := sampleShots(t, c, seed, start, n)
		bs, err := stab.NewBatchFrameSampler(c, seed)
		if err != nil {
			t.Fatal(err)
		}
		bs.Seek(start)
		seen := 0
		bs.SampleColumns(n, func(base, lanes int, cols []uint64) {
			if base != start+seen {
				t.Fatalf("start %d: column chunk base %d, want %d", start, base, start+seen)
			}
			for mi, w := range cols {
				for j := 0; j < lanes; j++ {
					if got, want := w>>uint(j)&1 == 1, rows[base-start+j][mi]; got != want {
						t.Fatalf("start %d shot %d meas %d: column bit %v, row bit %v", start, base+j, mi, got, want)
					}
				}
				if lanes < 64 && w>>uint(lanes) != 0 {
					t.Fatalf("start %d: column %d has bits set above lane %d: %#x", start, mi, lanes, w)
				}
			}
			seen += lanes
		})
		if seen != n {
			t.Fatalf("start %d: callbacks covered %d lanes, want %d", start, seen, n)
		}
	}
}

// TestBatchParallelClones drives Clone()d samplers concurrently over
// disjoint shot ranges (the core Monte-Carlo idiom) and checks the
// merged records against a serial pass — under -race this also proves
// the shared compiled program and reference are data-race free.
func TestBatchParallelClones(t *testing.T) {
	c := surface.NewCode(3).ESMCircuit(2, 0.03, 0.03)
	const seed, shots = 12, 512
	serial := sampleShots(t, c, seed, 0, shots)

	base, err := stab.NewBatchFrameSampler(c, seed)
	if err != nil {
		t.Fatal(err)
	}
	workers := runtime.GOMAXPROCS(0)
	if workers > 8 {
		workers = 8
	}
	got := make([][]bool, shots)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			bs := base.Clone()
			for blockStart := w * 64; blockStart < shots; blockStart += workers * 64 {
				n := shots - blockStart
				if n > 64 {
					n = 64
				}
				bs.Seek(blockStart)
				bs.SampleInto(n, func(shot int, rec []bool) {
					got[shot] = append([]bool(nil), rec...)
				})
			}
		}(w)
	}
	wg.Wait()
	for s := 0; s < shots; s++ {
		if recordString(got[s]) != recordString(serial[s]) {
			t.Fatalf("shot %d: parallel %s, serial %s", s, recordString(got[s]), recordString(serial[s]))
		}
	}
}

// TestFrameSamplerContractPinned freezes the (seed, shot) -> record
// mapping with known-answer vectors: replay seeds stored by the fault
// machinery (and any committed failing-shot repro) silently replay a
// different scenario if these ever change.
func TestFrameSamplerContractPinned(t *testing.T) {
	c := stab.NewCircuit(2)
	c.H(0).CX(0, 1).FlipX(0, 0.5).Depolarize1(1, 0.25).S(1).FlipZ(1, 0.125)
	c.MeasureZ(0).MeasureZ(1)
	const seed = 42
	want := pinnedContractRecords
	fs := stab.NewFrameSampler(c, seed)
	for s := 0; s < len(want); s++ {
		if got := recordString(fs.SampleShot(s)); got != want[s] {
			t.Errorf("scalar shot %d: record %s, want pinned %s", s, got, want[s])
		}
	}
	for s, rec := range sampleShots(t, c, seed, 0, len(want)) {
		if got := recordString(rec); got != want[s] {
			t.Errorf("batch shot %d: record %s, want pinned %s", s, got, want[s])
		}
	}
}

// pinnedContractRecords are the frozen shot records of the circuit in
// TestFrameSamplerContractPinned for seed 42, shots 0..9.
var pinnedContractRecords = []string{
	"11", "01", "00", "01", "01",
	"10", "01", "11", "11", "10",
}

// TestBatchReferenceAccessors: Reference returns a defensive copy and
// RefBit matches it without allocating.
func TestBatchReferenceAccessors(t *testing.T) {
	c := stab.NewCircuit(2)
	c.H(0).CX(0, 1).MeasureZ(0).MeasureZ(1)
	bs, err := stab.NewBatchFrameSampler(c, 4)
	if err != nil {
		t.Fatal(err)
	}
	ref := bs.Reference()
	ref[0] = !ref[0]
	for i, b := range bs.Reference() {
		if bs.RefBit(i) != b {
			t.Fatalf("RefBit(%d) = %v, want %v", i, bs.RefBit(i), b)
		}
	}
	fs := stab.NewFrameSampler(c, 4)
	fref := fs.Reference()
	fref[0] = !fref[0]
	if fs.Reference()[0] == fref[0] {
		t.Error("FrameSampler.Reference does not return a defensive copy")
	}
	for i, b := range fs.Reference() {
		if fs.RefBit(i) != b {
			t.Fatalf("FrameSampler.RefBit(%d) = %v, want %v", i, fs.RefBit(i), b)
		}
	}
	bad := &stab.Circuit{N: 2, Ops: []stab.Op{{Kind: stab.OpCX, A: 1, B: 1}}}
	if _, err := stab.NewBatchFrameSampler(bad, 4); err == nil {
		t.Error("NewBatchFrameSampler accepted a self-target CX")
	}
}

// TestCompileFrameRejects: malformed circuits (impossible through the
// builder API, reachable through literal construction) are rejected at
// compile time rather than compiled into diverging programs.
func TestCompileFrameRejects(t *testing.T) {
	cases := []struct {
		name string
		c    *stab.Circuit
	}{
		{"qubit out of range", &stab.Circuit{N: 2, Ops: []stab.Op{{Kind: stab.OpH, A: 5}}}},
		{"negative qubit", &stab.Circuit{N: 2, Ops: []stab.Op{{Kind: stab.OpMeasureZ, A: -1}}}},
		{"cx self-target", &stab.Circuit{N: 2, Ops: []stab.Op{{Kind: stab.OpCX, A: 1, B: 1}}}},
		{"cz bad target", &stab.Circuit{N: 2, Ops: []stab.Op{{Kind: stab.OpCZ, A: 0, B: 2}}}},
		{"unknown kind", &stab.Circuit{N: 1, Ops: []stab.Op{{Kind: stab.OpKind(99), A: 0}}}},
	}
	for _, tc := range cases {
		if _, err := tc.c.CompileFrame(); err == nil {
			t.Errorf("%s: CompileFrame accepted a malformed circuit", tc.name)
		}
	}
}

// TestBatchSamplerSeekIsPure: sampling shot s after an arbitrary Seek
// history equals sampling it fresh — the property replay tooling
// depends on.
func TestBatchSamplerSeekIsPure(t *testing.T) {
	c := verify.RandomCircuit(17, verify.CircuitShape{MaxQubits: 4, MaxGates: 20, MaxMeasure: 5, MaxNoise: 3})
	bs, err := stab.NewBatchFrameSampler(c, 6)
	if err != nil {
		t.Fatal(err)
	}
	grab := func(shot int) string {
		var out string
		bs.Seek(shot)
		bs.SampleInto(1, func(_ int, rec []bool) { out = recordString(rec) })
		return out
	}
	for _, shot := range []int{200, 3, 64, 3, 199, 0, 200} {
		fresh := sampleShots(t, c, 6, shot, 1)
		if got := grab(shot); got != recordString(fresh[0]) {
			t.Fatalf("shot %d after seek history: %s, fresh %s", shot, got, recordString(fresh[0]))
		}
	}
}

// TestBatchSamplerAccounting covers the small accessors.
func TestBatchSamplerAccounting(t *testing.T) {
	c := surface.NewCode(3).ESMCircuit(2, 0.01, 0.01)
	bs, err := stab.NewBatchFrameSampler(c, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := bs.Measurements(), c.Measurements(); got != want {
		t.Errorf("Measurements() = %d, want %d", got, want)
	}
	if bs.Shot() != 0 {
		t.Errorf("fresh sampler cursor = %d, want 0", bs.Shot())
	}
	bs.SampleColumns(70, func(int, int, []uint64) {})
	if bs.Shot() != 70 {
		t.Errorf("cursor after 70 shots = %d, want 70", bs.Shot())
	}
	bs.Seek(-5)
	if bs.Shot() != 0 {
		t.Errorf("Seek(-5) left cursor at %d, want 0", bs.Shot())
	}
	prog, err := c.CompileFrame()
	if err != nil {
		t.Fatal(err)
	}
	if prog.Measurements() != c.Measurements() {
		t.Errorf("program Measurements() = %d, want %d", prog.Measurements(), c.Measurements())
	}
	wantSites := 0
	for _, op := range c.Ops {
		switch op.Kind {
		case stab.OpDepolarize1, stab.OpFlipX, stab.OpFlipZ:
			wantSites++
		default:
		}
	}
	if prog.NoiseSites() != wantSites {
		t.Errorf("program NoiseSites() = %d, want %d", prog.NoiseSites(), wantSites)
	}
}

// regenPinnedRecords prints fresh pin vectors (kept for maintenance:
// run with -run TestFrameSamplerContractPinned -v after an intentional
// contract change and paste the output).
func regenPinnedRecords(c *stab.Circuit, seed int64, n int) string {
	fs := stab.NewFrameSampler(c, seed)
	s := ""
	for i := 0; i < n; i++ {
		s += fmt.Sprintf("%q, ", recordString(fs.SampleShot(i)))
	}
	return s
}
