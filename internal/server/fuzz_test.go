package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"testing"
	"time"

	"xqsim/internal/core"
	"xqsim/internal/sweep"
)

// FuzzJobSpec pushes arbitrary bytes through the submit handler's
// decoding (decodeOne) and JobSpec.Normalize. Whatever
// Normalize accepts must be a fixed point of Normalize, pass core's
// workload and run checks when it is a simulate job, and hash like every
// equal spec: the
// same spec normalized twice, and the spec decoded back from its own
// JSON.
func FuzzJobSpec(f *testing.F) {
	for _, seed := range []string{
		`{}`,
		`{"kind":"simulate"}`,
		`{"kind":"simulate","workload":"ppr","product":"ZZZ","d":3,"shots":1024}`,
		`{"kind":"simulate","workload":"qft2","lq":9,"pprs":3,"d":5,"phys_error":0.002}`,
		`{"kind":"simulate","workload":"qaoa","lq":20,"d":101,"seed":-4}`,
		`{"kind":"simulate","lq":40}`,
		`{"kind":"simulate","d":4}`,
		`{"kind":"simulate","d":100001}`,
		`{"kind":"simulate","phys_error":7}`,
		`{"kind":"sweep","experiments":["14","fig14","t3"],"d":7}`,
		`{"kind":"estimate","tech":"ersfq","nphys":-1,"experiments":["fig5"]}`,
		`{"kind":"simulate","bogus":1}`,
		`{"kind":"simulate","pprs":1000000000}`,
		`{"kind":"simulate","workload":"ppr","product":"Q"}`,
		`{"kind":"simulate","workload":"qaoa","lq":0}`,
		`{"kind":"simulate","workload":"random","lq":-2,"pprs":10000}`,
		`{"kind":"estimate","tech":"rsfq","nphys":9223372036854775807}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var spec JobSpec
		if err := decodeOne(bytes.NewReader(data), &spec); err != nil {
			t.Skip()
		}
		norm, err := spec.Normalize()
		if err != nil {
			t.Skip()
		}
		again, err := norm.Normalize()
		if err != nil {
			t.Fatalf("normalized spec %+v rejected on a second Normalize: %v", norm, err)
		}
		raw, err := json.Marshal(norm)
		if err != nil {
			t.Fatal(err)
		}
		if twice, _ := json.Marshal(again); !bytes.Equal(raw, twice) {
			t.Fatalf("Normalize is not idempotent:\n%s\n%s", raw, twice)
		}
		if norm.Kind == "simulate" {
			w := norm.workload()
			if err := core.CheckWorkload(w.NLQ(), norm.PPRs, norm.Product); err != nil {
				t.Fatalf("accepted simulate spec %s fails the workload check: %v", raw, err)
			}
			if err := core.CheckRun(w.NLQ(), norm.D, norm.PhysErr); err != nil {
				t.Fatalf("accepted simulate spec %s fails the run check: %v", raw, err)
			}
		}
		var back JobSpec
		if err := json.Unmarshal(raw, &back); err != nil {
			t.Fatal(err)
		}
		if h := norm.Hash(); again.Hash() != h || back.Hash() != h {
			t.Fatalf("equal specs hash differently: %s, %s, %s", h, again.Hash(), back.Hash())
		}
	})
}

// FuzzGridComplete pushes arbitrary payload bytes at an arbitrary cell
// index of a grid whose cell starts empty, then a second payload at the
// same index. An accepted payload is stored in canonical form and passes
// the grid's ValidateCell. Once a cell is stored, a valid payload with
// different canonical bytes returns ErrCellConflict, an invalid one is
// rejected, neither changes the stored bytes, and a byte-equal duplicate
// succeeds: a conflict is never silently accepted.
//
// One store and grid serve every input of a fuzz process: a fresh store
// per input (a new log, fsynced) ran one to two orders of magnitude
// fewer inputs in CI's 10 s smoke. Each input first deletes its own
// cell, and no input takes a lease.
func FuzzGridComplete(f *testing.F) {
	g := gridSpecT(f)
	gc, _ := gridT(f, f.TempDir(), time.Minute)
	id, _, err := gc.Create(g)
	if err != nil {
		f.Fatal(err)
	}
	cell := func(i int, rate float64) []byte {
		c := g.Cell(i)
		raw, err := sweep.MarshalCell(sweep.CellResult{Index: i, D: c.D, P: c.P, Rounds: c.Rounds, Trials: c.Trials, Seed: c.Seed, Rate: rate})
		if err != nil {
			f.Fatal(err)
		}
		return raw
	}
	f.Add(cell(0, 0.25), cell(0, 0.25), 0)
	f.Add(cell(0, 0.25), cell(0, 0.5), 0)
	f.Add(append([]byte(" "), cell(1, 0)...), append(cell(1, 0), '\n'), 1)
	f.Add(cell(2, 1), cell(1, 1), 2)
	f.Add(cell(2, 0.125), []byte(`{"index":2}`), 2)
	f.Add(cell(1, 0.5), cell(1, 0.5), 2)
	f.Add([]byte(`{not json`), cell(0, 0), 0)
	f.Add(append(cell(0, 0), `{"trailing":1}`...), cell(0, 0), 0)
	f.Fuzz(func(t *testing.T, payload, second []byte, index int) {
		if err := gc.st.Delete(cellKey(id, index)); err != nil {
			t.Fatal(err)
		}
		stored := func() []byte {
			raw, ok, err := gc.st.Get(cellKey(id, index))
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				return nil
			}
			return raw
		}
		if _, err := gc.Complete(id, index, payload); err != nil {
			if stored() != nil {
				t.Fatalf("rejected payload %q was stored: %v", payload, err)
			}
			return
		}
		want := stored()
		c, err := sweep.UnmarshalCell(want)
		if err != nil {
			t.Fatalf("stored bytes %q do not decode: %v", want, err)
		}
		if canon, err := sweep.MarshalCell(c); err != nil || !bytes.Equal(canon, want) {
			t.Fatalf("stored bytes %q are not canonical (%q, %v)", want, canon, err)
		}
		if err := g.ValidateCell(c); err != nil {
			t.Fatalf("accepted payload %q fails ValidateCell: %v", payload, err)
		}

		_, err = gc.Complete(id, index, second)
		sc, decErr := sweep.UnmarshalCell(second)
		canon, encErr := sweep.MarshalCell(sc)
		switch {
		case decErr == nil && encErr == nil && bytes.Equal(canon, want):
			if err != nil {
				t.Fatalf("byte-equal duplicate %q rejected: %v", second, err)
			}
		case decErr == nil && sc.Index == index && g.ValidateCell(sc) == nil:
			if !errors.Is(err, ErrCellConflict) {
				t.Fatalf("conflicting payload %q over %q: err %v, want ErrCellConflict", second, want, err)
			}
		case err == nil:
			t.Fatalf("invalid payload %q accepted over %q", second, want)
		}
		if got := stored(); !bytes.Equal(got, want) {
			t.Fatalf("stored bytes changed from %q to %q", want, got)
		}

		// The first payload again is a duplicate; the same cell at
		// another rate is always a conflict.
		if _, err := gc.Complete(id, index, payload); err != nil {
			t.Fatalf("re-pushed payload %q rejected: %v", payload, err)
		}
		if c.Rate == 0.5 {
			c.Rate = 0.25
		} else {
			c.Rate = 0.5
		}
		other, err := sweep.MarshalCell(c)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := gc.Complete(id, index, other); !errors.Is(err, ErrCellConflict) {
			t.Fatalf("rate-changed payload %q over %q: err %v, want ErrCellConflict", other, want, err)
		}
		if got := stored(); !bytes.Equal(got, want) {
			t.Fatalf("stored bytes changed from %q to %q", want, got)
		}
	})
}
