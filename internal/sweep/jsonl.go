package sweep

import (
	"encoding/json"
	"fmt"
	"io"
)

// jsonlSeries mirrors Series with a pinned lowercase JSON schema. The
// mirror types exist so the wire format is decoupled from the Go struct
// names: Result itself stays tag-free (the checkpoint file serializes
// it with Go field names and must not change shape under a wire-format
// edit).
type jsonlSeries struct {
	Name string    `json:"name"`
	X    []float64 `json:"x"`
	Y    []float64 `json:"y"`
}

// jsonlResult is the pinned JSONL record schema, one per line:
//
//	{"id":..., "title":..., "series":[{"name","x","y"}...],
//	 "anchors":{"<name>":{"paper":..., "measured":...}}, "notes":[...]}
//
// Fields are always present (empty slices/maps encode as [] / {}), so
// downstream parsers never need missing-key handling. encoding/json
// sorts map keys and renders float64 via the shortest round-trippable
// representation, so the bytes are a deterministic function of the
// Result value — the property the xqd daemon's bit-for-bit resume
// check relies on.
type jsonlResult struct {
	ID      string                 `json:"id"`
	Title   string                 `json:"title"`
	Series  []jsonlSeries          `json:"series"`
	Anchors map[string]jsonlAnchor `json:"anchors"`
	Notes   []string               `json:"notes"`
}

// jsonlAnchor names the two halves of an anchor pair.
type jsonlAnchor struct {
	Paper    float64 `json:"paper"`
	Measured float64 `json:"measured"`
}

// JSONValue encodes one Result as its pinned JSONL value (no trailing
// newline). The encoding is deterministic: equal Results produce equal
// bytes.
func JSONValue(r Result) ([]byte, error) {
	out := jsonlResult{
		ID:      r.ID,
		Title:   r.Title,
		Series:  make([]jsonlSeries, 0, len(r.Series)),
		Anchors: make(map[string]jsonlAnchor, len(r.Anchors)),
		Notes:   r.Notes,
	}
	if out.Notes == nil {
		out.Notes = []string{}
	}
	for _, s := range r.Series {
		js := jsonlSeries{Name: s.Name, X: s.X, Y: s.Y}
		if js.X == nil {
			js.X = []float64{}
		}
		if js.Y == nil {
			js.Y = []float64{}
		}
		out.Series = append(out.Series, js)
	}
	//xqlint:ignore maprange per-key copy into another map; json.Marshal sorts keys, so order cannot matter
	for k, v := range r.Anchors {
		out.Anchors[k] = jsonlAnchor{Paper: v[0], Measured: v[1]}
	}
	b, err := json.Marshal(out)
	if err != nil {
		return nil, fmt.Errorf("sweep: encode %s: %w", r.ID, err)
	}
	return b, nil
}

// WriteJSONL writes one pinned-schema JSON value per Result, newline
// terminated.
func WriteJSONL(w io.Writer, results []Result) error {
	for _, r := range results {
		b, err := JSONValue(r)
		if err != nil {
			return err
		}
		b = append(b, '\n')
		if _, err := w.Write(b); err != nil {
			return fmt.Errorf("sweep: write jsonl: %w", err)
		}
	}
	return nil
}
