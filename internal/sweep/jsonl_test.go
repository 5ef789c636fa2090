package sweep

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"testing"
)

// TestJSONLPinnedSchema is the wire-format contract: if this golden
// string changes, downstream consumers of `xqsweep -jsonl` and the xqd
// result store break. Change it deliberately or not at all.
func TestJSONLPinnedSchema(t *testing.T) {
	r := Result{
		ID:    "fig0",
		Title: "schema pin",
		Series: []Series{
			{Name: "curve", X: []float64{1, 2.5}, Y: []float64{0.125, 3}},
			{Name: "empty"},
		},
		Anchors: map[string][2]float64{
			"zeta":  {1.5, 1.25},
			"alpha": {0, 2},
		},
		Notes: []string{"a note"},
	}
	b, err := JSONValue(r)
	if err != nil {
		t.Fatal(err)
	}
	const want = `{"id":"fig0","title":"schema pin",` +
		`"series":[{"name":"curve","x":[1,2.5],"y":[0.125,3]},{"name":"empty","x":[],"y":[]}],` +
		`"anchors":{"alpha":{"paper":0,"measured":2},"zeta":{"paper":1.5,"measured":1.25}},` +
		`"notes":["a note"]}`
	if string(b) != want {
		t.Fatalf("pinned schema drifted:\n got %s\nwant %s", b, want)
	}

	// Empty Result: all fields still present.
	b, err = JSONValue(Result{ID: "x"})
	if err != nil {
		t.Fatal(err)
	}
	const wantEmpty = `{"id":"x","title":"","series":[],"anchors":{},"notes":[]}`
	if string(b) != wantEmpty {
		t.Fatalf("empty-result schema drifted:\n got %s\nwant %s", b, wantEmpty)
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	r := Result{
		ID:     "table9",
		Title:  "round trip",
		Series: []Series{{Name: "s", X: []float64{0.1, 0.2}, Y: []float64{1e-9, 2e-9}}},
		Anchors: map[string][2]float64{
			"k": {3.25, 3.5},
		},
		Notes: []string{"n1", "n2"},
	}
	b, err := JSONValue(r)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ResultFromJSON(b)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := JSONValue(got)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b, b2) {
		t.Fatalf("round trip not lossless:\n first %s\nsecond %s", b, b2)
	}
}

func TestWriteJSONLOneLinePerResult(t *testing.T) {
	var buf bytes.Buffer
	rs := []Result{{ID: "a"}, {ID: "b", Notes: []string{"x"}}}
	if err := WriteJSONL(&buf, rs); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2: %q", len(lines), buf.String())
	}
	for i, line := range lines {
		r, err := ResultFromJSON([]byte(line))
		if err != nil {
			t.Fatalf("line %d: %v", i, err)
		}
		if r.ID != rs[i].ID {
			t.Fatalf("line %d id = %q, want %q", i, r.ID, rs[i].ID)
		}
	}
}

func TestJSONValueDeterministic(t *testing.T) {
	ctx := context.Background()
	r, err := RunExperiment(ctx, "10", ExperimentOptions{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	b1, err := JSONValue(r)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := RunExperiment(ctx, "fig10", ExperimentOptions{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	b2, err := JSONValue(r2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatalf("same experiment produced different bytes:\n%s\n%s", b1, b2)
	}
}

// ResultFromJSON decodes a pinned-schema JSONL value back into a
// Result, the inverse the round-trip tests check JSONValue against:
// JSONValue∘ResultFromJSON is lossless up to nil-vs-empty slices.
func ResultFromJSON(b []byte) (Result, error) {
	var in jsonlResult
	if err := json.Unmarshal(b, &in); err != nil {
		return Result{}, fmt.Errorf("sweep: decode result: %w", err)
	}
	r := Result{
		ID:      in.ID,
		Title:   in.Title,
		Series:  make([]Series, 0, len(in.Series)),
		Anchors: make(map[string][2]float64, len(in.Anchors)),
		Notes:   in.Notes,
	}
	for _, s := range in.Series {
		r.Series = append(r.Series, Series{Name: s.Name, X: s.X, Y: s.Y})
	}
	for k, v := range in.Anchors {
		r.Anchors[k] = [2]float64{v.Paper, v.Measured}
	}
	return r, nil
}
