package sweep

import (
	"bytes"
	"context"
	"io"
	"path/filepath"
	"strings"
	"testing"
)

// testGrid is the shared small grid: 2 distances × 3 rates = 6 cells,
// cheap enough to execute for real in the determinism tests.
func testGrid(t *testing.T) GridSpec {
	t.Helper()
	g, err := GridSpec{
		Kind:   GridThreshold,
		Ds:     []int{3, 5},
		Ps:     []float64{0.003, 0.01, 0.03},
		Trials: 16,
		Seed:   7,
	}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// runGrid executes every cell of the grid in index order.
func runGrid(t *testing.T, g GridSpec) []CellResult {
	t.Helper()
	out := make([]CellResult, 0, g.NumCells())
	for i := 0; i < g.NumCells(); i++ {
		r, _, err := RunGridCell(context.Background(), g, g.Cell(i), nil)
		if err != nil {
			t.Fatalf("cell %d: %v", i, err)
		}
		out = append(out, r)
	}
	return out
}

func TestGridNormalizeRejectsBadSpecs(t *testing.T) {
	cases := []GridSpec{
		{Kind: "nope", Ds: []int{3}, Ps: []float64{0.01}},
		{Kind: GridThreshold, Ps: []float64{0.01}},               // no distances
		{Kind: GridThreshold, Ds: []int{4}, Ps: []float64{0.01}}, // even d
		{Kind: GridThreshold, Ds: []int{1}, Ps: []float64{0.01}}, // d < 3
		{Kind: GridThreshold, Ds: []int{3}},                      // no rates
		{Kind: GridThreshold, Ds: []int{3}, Ps: []float64{0}},    // p = 0
		{Kind: GridThreshold, Ds: []int{3}, Ps: []float64{1}},    // p = 1
		{Kind: GridThreshold, Ds: []int{3}, Ps: []float64{0.01}, Rounds: -1},
		{Kind: GridCircuit, Ds: []int{3}, Ps: []float64{0.01}, Rounds: maxGridRounds + 1},
		{Kind: GridCircuit, Ds: []int{3}, Ps: []float64{0.01}, Rounds: 100000000},
		{Kind: GridThreshold, Ds: []int{3}, Ps: []float64{0.01}, Trials: -1},
		{Kind: GridCircuit, Ds: []int{3}, Ps: []float64{0.01}, Trials: maxGridTrials + 1},
		{Kind: GridCircuit, Ds: []int{3}, Ps: []float64{0.01}, Trials: 100000000},
	}
	for i, g := range cases {
		if _, err := g.Normalize(); err == nil {
			t.Errorf("case %d: Normalize(%+v) accepted an invalid spec", i, g)
		}
	}
	if _, err := (GridSpec{Kind: GridCircuit, Ds: []int{3}, Ps: []float64{0.01}, Rounds: maxGridRounds}).Normalize(); err != nil {
		t.Errorf("Normalize rejected %d rounds: %v", maxGridRounds, err)
	}
	if _, err := (GridSpec{Kind: GridCircuit, Ds: []int{3}, Ps: []float64{0.01}, Trials: maxGridTrials}).Normalize(); err != nil {
		t.Errorf("Normalize rejected %d trials: %v", maxGridTrials, err)
	}
}

func TestGridCellEnumeration(t *testing.T) {
	g := testGrid(t)
	if got := g.NumCells(); got != 6 {
		t.Fatalf("NumCells = %d, want 6", got)
	}
	// Row-major: d outer, p inner.
	wantD := []int{3, 3, 3, 5, 5, 5}
	wantP := []float64{0.003, 0.01, 0.03, 0.003, 0.01, 0.03}
	seeds := map[int64]bool{}
	for i := 0; i < g.NumCells(); i++ {
		c := g.Cell(i)
		if c.Index != i || c.D != wantD[i] {
			t.Errorf("cell %d: index %d d %d, want %d %d", i, c.Index, c.D, i, wantD[i])
		}
		//xqlint:ignore floateq exact identity: P is copied verbatim from the spec slice
		if c.P != wantP[i] {
			t.Errorf("cell %d: p %g, want %g", i, c.P, wantP[i])
		}
		if c.Trials != g.Trials {
			t.Errorf("cell %d: trials %d, want %d", i, c.Trials, g.Trials)
		}
		if seeds[c.Seed] {
			t.Errorf("cell %d: seed %d collides with another cell", i, c.Seed)
		}
		seeds[c.Seed] = true
	}
	// Defaulted rounds: 3 for threshold, d for circuit.
	if c := g.Cell(0); c.Rounds != 3 {
		t.Errorf("threshold cell rounds = %d, want 3", c.Rounds)
	}
	cg := g
	cg.Kind = GridCircuit
	if c := cg.Cell(3); c.Rounds != 5 {
		t.Errorf("circuit d=5 cell rounds = %d, want 5", c.Rounds)
	}
}

func TestGridHashIsContentAddress(t *testing.T) {
	g := testGrid(t)
	h := g.Hash()
	if len(h) != 16 {
		t.Fatalf("Hash() = %q, want 16 hex chars", h)
	}
	g2 := testGrid(t)
	if g2.Hash() != h {
		t.Errorf("identical specs hash differently: %s vs %s", g2.Hash(), h)
	}
	g2.Seed++
	if g2.Hash() == h {
		t.Errorf("different seeds share hash %s", h)
	}
}

func TestParseShard(t *testing.T) {
	for _, tc := range []struct {
		in        string
		shard, of int
		wantErr   bool
	}{
		{"", 0, 1, false},
		{"0/1", 0, 1, false},
		{"2/5", 2, 5, false},
		{"5/5", 0, 0, true},
		{"-1/3", 0, 0, true},
		{"1", 0, 0, true},
		{"a/b", 0, 0, true},
		{"1/0", 0, 0, true},
	} {
		shard, of, err := ParseShard(tc.in)
		if tc.wantErr != (err != nil) {
			t.Errorf("ParseShard(%q) err = %v, wantErr %v", tc.in, err, tc.wantErr)
			continue
		}
		if err == nil && (shard != tc.shard || of != tc.of) {
			t.Errorf("ParseShard(%q) = %d/%d, want %d/%d", tc.in, shard, of, tc.shard, tc.of)
		}
	}
}

func TestShardCellsCoverDisjointly(t *testing.T) {
	g := testGrid(t)
	// Including N=1 (whole grid), a ragged split, and N > NumCells (some
	// shards empty).
	for _, of := range []int{1, 2, 3, 4, 5, 7} {
		seen := map[int]int{}
		for s := 0; s < of; s++ {
			cells, err := g.ShardCells(s, of)
			if err != nil {
				t.Fatalf("ShardCells(%d, %d): %v", s, of, err)
			}
			for _, c := range cells {
				seen[c.Index]++
				if c.Index%of != s {
					t.Errorf("shard %d/%d got cell %d", s, of, c.Index)
				}
			}
		}
		for i := 0; i < g.NumCells(); i++ {
			if seen[i] != 1 {
				t.Errorf("of=%d: cell %d covered %d times, want exactly once", of, i, seen[i])
			}
		}
	}
	if _, err := g.ShardCells(3, 3); err == nil {
		t.Error("ShardCells(3, 3) accepted an out-of-range shard")
	}
}

// TestShardMergeBitIdentical is the core contract: run the grid once,
// partition the results every which way, and check that merging any
// partition reproduces the single-process JSONL byte for byte.
func TestShardMergeBitIdentical(t *testing.T) {
	g := testGrid(t)
	full := runGrid(t, g)

	var want bytes.Buffer
	if err := WriteGridJSONL(&want, g, full); err != nil {
		t.Fatal(err)
	}

	for _, of := range []int{1, 2, 3, 5, 7} {
		// Build each shard's JSONL the way `xqsweep -shard i/N` does,
		// picking the already-computed cells (RunGridCell is
		// deterministic, so this is the same data a fresh process makes).
		var readers []*bytes.Buffer
		for s := 0; s < of; s++ {
			cells, err := g.ShardCells(s, of)
			if err != nil {
				t.Fatal(err)
			}
			results := make([]CellResult, 0, len(cells))
			for _, c := range cells {
				results = append(results, full[c.Index])
			}
			var buf bytes.Buffer
			if err := WriteGridJSONL(&buf, g, results); err != nil {
				t.Fatal(err)
			}
			readers = append(readers, &buf)
		}
		ins := make([]io.Reader, len(readers))
		for i := range readers {
			ins[i] = readers[i]
		}
		var got bytes.Buffer
		if err := MergeGridFiles(&got, ins); err != nil {
			t.Fatalf("of=%d: merge: %v", of, err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Errorf("of=%d: merged bytes differ from single-process run", of)
		}
	}
}

func TestRunGridCellDeterministic(t *testing.T) {
	g := testGrid(t)
	c := g.Cell(4)
	a, _, err := RunGridCell(context.Background(), g, c, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := RunGridCell(context.Background(), g, c, nil)
	if err != nil {
		t.Fatal(err)
	}
	ab, err := MarshalCell(a)
	if err != nil {
		t.Fatal(err)
	}
	bb, err := MarshalCell(b)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ab, bb) {
		t.Fatalf("re-running cell %d changed its bytes: %s vs %s", c.Index, ab, bb)
	}
}

// TestMergeIdempotentDuplicates mirrors a re-leased cell completed by
// two workers: both shards carry it, merge accepts the duplicate.
func TestMergeIdempotentDuplicates(t *testing.T) {
	g := testGrid(t)
	full := runGrid(t, g)
	dup := append(append([]CellResult{}, full[:4]...), full[1], full[2])
	merged, err := MergeGridCells(g, [][]CellResult{dup, full[3:]})
	if err != nil {
		t.Fatalf("idempotent duplicate rejected: %v", err)
	}
	if len(merged) != g.NumCells() {
		t.Fatalf("merged %d cells, want %d", len(merged), g.NumCells())
	}
	var got, want bytes.Buffer
	if err := WriteGridJSONL(&got, g, merged); err != nil {
		t.Fatal(err)
	}
	if err := WriteGridJSONL(&want, g, full); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Error("merge with duplicates changed the output bytes")
	}
}

func TestMergeRejectsConflictsAndGaps(t *testing.T) {
	g := testGrid(t)
	full := runGrid(t, g)

	bad := full[2]
	bad.Rate += 0.5
	if _, err := MergeGridCells(g, [][]CellResult{full, {bad}}); err == nil {
		t.Error("conflicting duplicate accepted")
	} else if !strings.Contains(err.Error(), "determinism violation") {
		t.Errorf("conflict error %q does not name the determinism violation", err)
	}

	if _, err := MergeGridCells(g, [][]CellResult{full[:3], full[4:]}); err == nil {
		t.Error("merge with a missing cell accepted")
	}

	alien := full[0]
	alien.Seed++
	if _, err := MergeGridCells(g, [][]CellResult{{alien}}); err == nil {
		t.Error("cell with wrong seed accepted")
	}
}

func TestGridJSONLRoundTrip(t *testing.T) {
	g := testGrid(t)
	full := runGrid(t, g)
	var buf bytes.Buffer
	if err := WriteGridJSONL(&buf, g, full); err != nil {
		t.Fatal(err)
	}
	g2, cells, err := ReadGridJSONL(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if g2.Hash() != g.Hash() {
		t.Errorf("round-trip changed the grid: %s vs %s", g2.Hash(), g.Hash())
	}
	var buf2 bytes.Buffer
	if err := WriteGridJSONL(&buf2, g2, cells); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Error("read+rewrite changed the bytes")
	}
}

// TestGridJSONLPinnedSchema pins the wire format: a change to the JSON
// shape breaks stored shard files, xqd grids, and the merge contract,
// so it must be deliberate (bump gridSchema, fix this test).
func TestGridJSONLPinnedSchema(t *testing.T) {
	g, err := GridSpec{Kind: GridThreshold, Ds: []int{3}, Ps: []float64{0.5}, Trials: 1, Seed: 1}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	c := g.Cell(0)
	var buf bytes.Buffer
	if err := WriteGridJSONL(&buf, g, []CellResult{{
		Index: 0, D: c.D, P: c.P, Rounds: c.Rounds, Trials: c.Trials, Seed: c.Seed, Rate: 1,
	}}); err != nil {
		t.Fatal(err)
	}
	want := `{"schema":"xqsweep-grid/v1","grid":{"kind":"threshold","d":[3],"p":[0.5],"rounds":0,"trials":1,"seed":1},"cells":1}
{"index":0,"d":3,"p":0.5,"rounds":3,"trials":1,"seed":2916884902086635610,"rate":1}
`
	if got := buf.String(); got != want {
		t.Errorf("pinned grid JSONL changed:\ngot  %q\nwant %q", got, want)
	}
}

// TestUnmarshalCellTakesOneValue: a cell payload is exactly one JSON
// value. Surrounding whitespace is fine; a second value or stray bytes
// after the first is an error, never a cell.
func TestUnmarshalCellTakesOneValue(t *testing.T) {
	want := CellResult{Index: 1, D: 3, P: 0.01, Rounds: 3, Trials: 16, Seed: 9, Rate: 0.25}
	cell, err := MarshalCell(want)
	if err != nil {
		t.Fatal(err)
	}
	c := string(cell)
	cases := []struct {
		name, payload string
		ok            bool
	}{
		{"canonical", c, true},
		{"surrounding whitespace", " \t" + c + "\r\n", true},
		{"trailing object", c + `{"trailing":1}`, false},
		{"two cells", c + "\n" + c, false},
		{"trailing bytes", c + " x", false},
		{"trailing brace", c + "}", false},
		{"unknown field", `{"index":1,"bogus":2}`, false},
		{"truncated", c[:len(c)-1], false},
		{"empty", "", false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := UnmarshalCell([]byte(tc.payload))
			switch {
			case tc.ok && err != nil:
				t.Fatalf("rejected %q: %v", tc.payload, err)
			case tc.ok && got != want:
				t.Fatalf("decoded %+v, want %+v", got, want)
			case !tc.ok && err == nil:
				t.Fatalf("accepted %q as %+v", tc.payload, got)
			}
		})
	}
}

func TestGridCheckpointRoundTrip(t *testing.T) {
	g := testGrid(t)
	ck := NewGridCheckpoint(g)
	if !ck.sameRun(NewGridCheckpoint(g)) {
		t.Fatal("fresh grid checkpoint incompatible with its own grid")
	}
	r := CellResult{Index: 2, D: 3, P: 0.03, Rounds: 3, Trials: 16, Seed: g.Cell(2).Seed, Rate: 0.25}
	ck.PutCell(r)
	path := filepath.Join(t.TempDir(), "ck.json")
	if err := ck.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if !loaded.sameRun(NewGridCheckpoint(g)) {
		t.Fatal("loaded checkpoint lost its grid hash")
	}
	got, ok := loaded.CellAt(2)
	if !ok {
		t.Fatal("loaded checkpoint lost cell 2")
	}
	same, err := sameCell(got, r)
	if err != nil {
		t.Fatal(err)
	}
	if !same {
		t.Errorf("cell changed through checkpoint: %+v vs %+v", got, r)
	}
	if _, ok := loaded.CellAt(3); ok {
		t.Error("checkpoint reports a cell it never saw")
	}
	if loaded.sameRun(&Checkpoint{Grid: g.Hash() + "x"}) || loaded.sameRun(NewCheckpoint(g.Seed, g.Trials)) {
		t.Error("checkpoint compatible with a different grid")
	}
}

func TestWriteGridCSVCarriesFlagReference(t *testing.T) {
	g := testGrid(t)
	cells := []CellResult{{Index: 0, D: 3, P: 0.003, Rounds: 3, Trials: 16, Seed: g.Cell(0).Seed, Rate: 0.125}}
	timings := []CellTiming{{BuildNs: 5, RunNs: 10}}
	var buf bytes.Buffer
	if err := WriteGridCSV(&buf, g, "1/3", cells, timings); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	lines := strings.Split(out, "\n")
	if !strings.HasPrefix(lines[0], "# xqsweep -grid threshold -d 3,5 -p 0.003,0.01,0.03") {
		t.Errorf("CSV comment lacks the flag-grid reference: %q", lines[0])
	}
	if !strings.Contains(lines[0], "-shard 1/3") {
		t.Errorf("CSV comment lacks the shard selector: %q", lines[0])
	}
	if lines[1] != "index,d,p,rounds,trials,seed,rate,build_ns,run_ns,total_ns" {
		t.Errorf("CSV header changed: %q", lines[1])
	}
	if !strings.HasSuffix(lines[2], ",5,10,15") {
		t.Errorf("CSV row lacks per-phase timings: %q", lines[2])
	}
	// Merged outputs have no local timings.
	var noTimes bytes.Buffer
	if err := WriteGridCSV(&noTimes, g, "", cells, nil); err != nil {
		t.Fatal(err)
	}
	if err := WriteGridCSV(&noTimes, g, "", cells, []CellTiming{{}, {}}); err == nil {
		t.Error("misaligned timings accepted")
	}
}
