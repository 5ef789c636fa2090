package sweep

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// gridSchema tags the header line of a grid JSONL file; bump it when
// the file format changes shape.
const gridSchema = "xqsweep-grid/v1"

// gridHeader is the first line of every grid JSONL file: the full
// normalized spec (the flag-grid reference) plus the total cell count,
// so any shard file is self-describing and a merge can verify that all
// its inputs come from the same grid.
type gridHeader struct {
	Schema string   `json:"schema"`
	Grid   GridSpec `json:"grid"`
	Cells  int      `json:"cells"`
}

// MarshalCell encodes one cell result as its pinned JSONL value (no
// trailing newline). The encoding is deterministic: equal results
// produce equal bytes, which is what makes double-completed cells
// idempotent and shard merges bit-identical.
func MarshalCell(c CellResult) ([]byte, error) {
	b, err := json.Marshal(c)
	if err != nil {
		return nil, fmt.Errorf("sweep: encode cell %d: %w", c.Index, err)
	}
	return b, nil
}

// UnmarshalCell decodes one pinned-schema cell line: exactly one JSON
// value, with nothing but whitespace after it, so a payload carrying two
// cells or stray bytes is rejected rather than read as its first cell.
func UnmarshalCell(b []byte) (CellResult, error) {
	var c CellResult
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&c); err != nil {
		return CellResult{}, fmt.Errorf("sweep: decode cell: %w", err)
	}
	if _, err := dec.Token(); !errors.Is(err, io.EOF) {
		return CellResult{}, errors.New("sweep: decode cell: unexpected data after the cell value")
	}
	return c, nil
}

// WriteGridJSONL writes a grid JSONL stream: the header line followed
// by one pinned cell record per line, in the order given. A full run
// writes all cells ascending by index; a shard writes its own cells
// (ascending within the shard). Because every line is a deterministic
// function of the normalized spec, merging shard files reproduces the
// single-process output byte for byte.
func WriteGridJSONL(w io.Writer, g GridSpec, cells []CellResult) error {
	hdr, err := json.Marshal(gridHeader{Schema: gridSchema, Grid: g, Cells: g.NumCells()})
	if err != nil {
		return fmt.Errorf("sweep: encode grid header: %w", err)
	}
	hdr = append(hdr, '\n')
	if _, err := w.Write(hdr); err != nil {
		return fmt.Errorf("sweep: write grid header: %w", err)
	}
	for _, c := range cells {
		b, err := MarshalCell(c)
		if err != nil {
			return err
		}
		b = append(b, '\n')
		if _, err := w.Write(b); err != nil {
			return fmt.Errorf("sweep: write cell %d: %w", c.Index, err)
		}
	}
	return nil
}

// ReadGridJSONL parses one grid JSONL stream (a shard file or a full
// run) back into its spec and cell results. The spec is re-normalized
// and every cell validated against it, so a tampered or truncated-
// mid-line file fails loudly instead of merging quietly.
func ReadGridJSONL(r io.Reader) (GridSpec, []CellResult, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return GridSpec{}, nil, fmt.Errorf("sweep: read grid header: %w", err)
		}
		return GridSpec{}, nil, fmt.Errorf("sweep: empty grid file")
	}
	var hdr gridHeader
	if err := json.Unmarshal(sc.Bytes(), &hdr); err != nil {
		return GridSpec{}, nil, fmt.Errorf("sweep: parse grid header: %w", err)
	}
	if hdr.Schema != gridSchema {
		return GridSpec{}, nil, fmt.Errorf("sweep: grid file schema %q, want %q", hdr.Schema, gridSchema)
	}
	g, err := hdr.Grid.Normalize()
	if err != nil {
		return GridSpec{}, nil, err
	}
	if hdr.Cells != g.NumCells() {
		return GridSpec{}, nil, fmt.Errorf("sweep: grid header says %d cells, spec has %d", hdr.Cells, g.NumCells())
	}
	var cells []CellResult
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		c, err := UnmarshalCell(line)
		if err != nil {
			return GridSpec{}, nil, err
		}
		if err := g.ValidateCell(c); err != nil {
			return GridSpec{}, nil, err
		}
		cells = append(cells, c)
	}
	if err := sc.Err(); err != nil {
		return GridSpec{}, nil, fmt.Errorf("sweep: read grid file: %w", err)
	}
	return g, cells, nil
}

// MergeGridCells combines the cell sets of any partition of the grid
// (shard outputs, worker pushes) into the complete ascending cell
// list — exactly what a single-process run produces. Duplicated cells
// are accepted when bit-identical (a re-leased cell completed twice is
// idempotent) and rejected when they disagree, and any missing cell
// fails the merge: a partial grid never masquerades as a finished one.
func MergeGridCells(g GridSpec, shards [][]CellResult) ([]CellResult, error) {
	n := g.NumCells()
	got := make([]*CellResult, n)
	for _, cells := range shards {
		for i := range cells {
			c := cells[i]
			if err := g.ValidateCell(c); err != nil {
				return nil, err
			}
			prev := got[c.Index]
			if prev == nil {
				got[c.Index] = &c
				continue
			}
			same, err := sameCell(*prev, c)
			if err != nil {
				return nil, err
			}
			if !same {
				return nil, fmt.Errorf("sweep: cell %d completed twice with different results (rate %g vs %g): determinism violation",
					c.Index, prev.Rate, c.Rate)
			}
		}
	}
	out := make([]CellResult, 0, n)
	var missing []int
	for i := 0; i < n; i++ {
		if got[i] == nil {
			missing = append(missing, i)
			continue
		}
		out = append(out, *got[i])
	}
	if len(missing) > 0 {
		head := missing
		if len(head) > 8 {
			head = head[:8]
		}
		return nil, fmt.Errorf("sweep: merge is missing %d of %d cells (first: %v)", len(missing), n, head)
	}
	return out, nil
}

// sameCell compares two results through their pinned encodings, the
// same bytes the idempotence contract is stated over.
func sameCell(a, b CellResult) (bool, error) {
	ab, err := MarshalCell(a)
	if err != nil {
		return false, err
	}
	bb, err := MarshalCell(b)
	if err != nil {
		return false, err
	}
	return bytes.Equal(ab, bb), nil
}

// MergeGridFiles reads shard JSONL streams, checks they all describe
// the same grid, and writes the merged single-process-identical JSONL
// to w.
func MergeGridFiles(w io.Writer, inputs []io.Reader) error {
	if len(inputs) == 0 {
		return fmt.Errorf("sweep: no shard files to merge")
	}
	var (
		g      GridSpec
		shards [][]CellResult
	)
	for i, r := range inputs {
		gi, cells, err := ReadGridJSONL(r)
		if err != nil {
			return fmt.Errorf("sweep: shard %d: %w", i, err)
		}
		if i == 0 {
			g = gi
		} else if gi.Hash() != g.Hash() {
			return fmt.Errorf("sweep: shard %d describes grid %s, shard 0 describes %s: cannot merge different grids",
				i, gi.Hash(), g.Hash())
		}
		shards = append(shards, cells)
	}
	merged, err := MergeGridCells(g, shards)
	if err != nil {
		return err
	}
	return WriteGridJSONL(w, g, merged)
}

// WriteGridCSV writes the cell results as CSV with per-phase wall-
// clock timings. The first line is a comment carrying the full
// flag-grid reference (the exact xqsweep invocation that reproduces
// the grid) plus the shard selector, so a results directory stays
// self-describing. timings must be aligned with cells; pass nil for
// no timing data (merged outputs, where the per-cell wall clocks
// lived on other machines).
func WriteGridCSV(w io.Writer, g GridSpec, shard string, cells []CellResult, timings []CellTiming) error {
	if timings != nil && len(timings) != len(cells) {
		return fmt.Errorf("sweep: %d timings for %d cells", len(timings), len(cells))
	}
	var sb strings.Builder
	sb.WriteString("# xqsweep ")
	sb.WriteString(g.FlagString())
	if shard != "" {
		sb.WriteString(" -shard ")
		sb.WriteString(shard)
	}
	sb.WriteByte('\n')
	sb.WriteString("index,d,p,rounds,trials,seed,rate,build_ns,run_ns,total_ns\n")
	for i, c := range cells {
		var t CellTiming
		if timings != nil {
			t = timings[i]
		}
		fmt.Fprintf(&sb, "%d,%d,%s,%d,%d,%d,%s,%d,%d,%d\n",
			c.Index, c.D, strconv.FormatFloat(c.P, 'g', -1, 64), c.Rounds, c.Trials, c.Seed,
			strconv.FormatFloat(c.Rate, 'g', -1, 64), t.BuildNs, t.RunNs, t.TotalNs())
	}
	if _, err := io.WriteString(w, sb.String()); err != nil {
		return fmt.Errorf("sweep: write grid csv: %w", err)
	}
	return nil
}
