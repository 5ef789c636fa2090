package server

import (
	"bytes"
	"context"
	"errors"
	"path/filepath"
	"testing"
	"time"

	"xqsim/internal/store"
	"xqsim/internal/sweep"
)

// gridT opens a coordinator over a fresh store with a controllable
// clock. Advance the returned *time.Time to expire leases.
func gridT(t testing.TB, dir string, ttl time.Duration) (*GridCoordinator, *time.Time) {
	t.Helper()
	st, err := store.Open(filepath.Join(dir, "grids.log"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = st.Close() })
	gc := NewGridCoordinator(st, ttl)
	now := time.Unix(1000, 0)
	gc.now = func() time.Time { return now }
	return gc, &now
}

func gridSpecT(t testing.TB) sweep.GridSpec {
	t.Helper()
	g, err := sweep.GridSpec{
		Kind:   sweep.GridThreshold,
		Ds:     []int{3},
		Ps:     []float64{0.003, 0.01, 0.03},
		Trials: 8,
		Seed:   5,
	}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// completeCell runs the cell for real and pushes its pinned bytes.
func completeCell(t *testing.T, gc *GridCoordinator, id string, g sweep.GridSpec, index int) sweep.CellResult {
	t.Helper()
	r, _, err := sweep.RunGridCell(context.Background(), g, g.Cell(index), nil)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := sweep.MarshalCell(r)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := gc.Complete(id, index, raw); err != nil {
		t.Fatalf("complete cell %d: %v", index, err)
	}
	return r
}

func TestGridCreateIsIdempotent(t *testing.T) {
	gc, _ := gridT(t, t.TempDir(), 0)
	g := gridSpecT(t)
	id, created, err := gc.Create(g)
	if err != nil || !created {
		t.Fatalf("first create: id=%s created=%v err=%v", id, created, err)
	}
	id2, created2, err := gc.Create(g)
	if err != nil || created2 || id2 != id {
		t.Fatalf("second create: id=%s created=%v err=%v, want %s false nil", id2, created2, err, id)
	}
	if id != g.Hash() {
		t.Errorf("grid id %s is not the spec hash %s", id, g.Hash())
	}
	if _, err := gc.Status("ffffffffffffffff"); !errors.Is(err, ErrUnknownGrid) {
		t.Errorf("unknown grid status err = %v, want ErrUnknownGrid", err)
	}
}

func TestGridLeaseLifecycle(t *testing.T) {
	gc, now := gridT(t, t.TempDir(), 10*time.Second)
	g := gridSpecT(t)
	id, _, err := gc.Create(g)
	if err != nil {
		t.Fatal(err)
	}

	// w1 leases 2 of the 3 cells.
	cells, st, err := gc.Lease(id, "w1", 2)
	if err != nil || len(cells) != 2 {
		t.Fatalf("lease: %d cells, err %v", len(cells), err)
	}
	if st.Leased != 2 || st.Complete != 0 {
		t.Fatalf("status after lease: %+v", st)
	}
	if cells[0].Cell.Index != 0 || cells[1].Cell.Index != 1 || cells[0].Attempt != 1 {
		t.Fatalf("leased cells %+v, want indices 0,1 attempt 1", cells)
	}

	// w2 can only get the remaining cell while w1's leases live.
	cells2, _, err := gc.Lease(id, "w2", 5)
	if err != nil || len(cells2) != 1 || cells2[0].Cell.Index != 2 {
		t.Fatalf("w2 lease: %+v err %v, want just cell 2", cells2, err)
	}
	none, _, err := gc.Lease(id, "w3", 1)
	if err != nil || len(none) != 0 {
		t.Fatalf("w3 lease while all leased: %+v err %v", none, err)
	}

	// Renew only works for the holder.
	if err := gc.Renew(id, "w1", 0); err != nil {
		t.Fatalf("holder renew: %v", err)
	}
	if err := gc.Renew(id, "w2", 0); !errors.Is(err, ErrLeaseHeld) {
		t.Errorf("foreign renew err = %v, want ErrLeaseHeld", err)
	}
	if err := gc.Renew(id, "w1", 2); !errors.Is(err, ErrLeaseHeld) && err == nil {
		t.Errorf("renew of w2's lease by w1: %v", err)
	}

	// Expire w1's leases: a new worker steals the cells, attempt bumps.
	*now = now.Add(11 * time.Second)
	stolen, _, err := gc.Lease(id, "w4", 5)
	if err != nil || len(stolen) != 3 {
		t.Fatalf("post-expiry lease: %d cells err %v, want all 3", len(stolen), err)
	}
	if stolen[0].Attempt != 2 {
		t.Errorf("stolen cell attempt = %d, want 2", stolen[0].Attempt)
	}
	// Renewing an expired, re-leased cell fails for the old holder.
	if err := gc.Renew(id, "w1", 0); !errors.Is(err, ErrLeaseHeld) {
		t.Errorf("stale holder renew err = %v, want ErrLeaseHeld", err)
	}
}

func TestGridCompleteIdempotentAndConflict(t *testing.T) {
	gc, _ := gridT(t, t.TempDir(), 0)
	g := gridSpecT(t)
	id, _, err := gc.Create(g)
	if err != nil {
		t.Fatal(err)
	}
	r := completeCell(t, gc, id, g, 0)
	raw, err := sweep.MarshalCell(r)
	if err != nil {
		t.Fatal(err)
	}

	// Identical re-push (the double-completed re-leased cell): accepted.
	st, err := gc.Complete(id, 0, raw)
	if err != nil {
		t.Fatalf("idempotent re-complete: %v", err)
	}
	if st.Complete != 1 {
		t.Fatalf("status after duplicate: %+v", st)
	}

	// Conflicting bytes: rejected, stored result untouched.
	bad := r
	bad.Rate += 0.5
	badRaw, err := sweep.MarshalCell(bad)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := gc.Complete(id, 0, badRaw); !errors.Is(err, ErrCellConflict) {
		t.Fatalf("conflicting complete err = %v, want ErrCellConflict", err)
	}

	// Mis-addressed and spec-mismatched payloads: rejected.
	if _, err := gc.Complete(id, 1, raw); err == nil {
		t.Error("payload for cell 0 accepted at cell 1's URL")
	}
	alien := r
	alien.Seed++
	alienRaw, err := sweep.MarshalCell(alien)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := gc.Complete(id, 0, alienRaw); err == nil {
		t.Error("payload with wrong seed accepted")
	}
}

func TestGridResultMatchesSingleProcessBytes(t *testing.T) {
	gc, _ := gridT(t, t.TempDir(), 0)
	g := gridSpecT(t)
	id, _, err := gc.Create(g)
	if err != nil {
		t.Fatal(err)
	}

	if _, err := gc.Result(id); !errors.Is(err, ErrGridIncomplete) {
		t.Fatalf("result of incomplete grid err = %v, want ErrGridIncomplete", err)
	}

	// Complete out of order, as racing workers would.
	results := make([]sweep.CellResult, g.NumCells())
	for _, i := range []int{2, 0, 1} {
		results[i] = completeCell(t, gc, id, g, i)
	}
	got, err := gc.Result(id)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := sweep.WriteGridJSONL(&want, g, results); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Errorf("daemon result differs from single-process bytes:\ngot  %q\nwant %q", got, want.Bytes())
	}

	st, err := gc.Status(id)
	if err != nil || !st.Done || st.Complete != 3 {
		t.Errorf("status after completion: %+v err %v", st, err)
	}
}

// TestGridSurvivesRestart kills the coordinator (drops it, reopens the
// store) with one cell done and one lease outstanding: the new
// coordinator sees the completed cell, honors the live lease, and
// re-leases it after expiry.
func TestGridSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(filepath.Join(dir, "grids.log"))
	if err != nil {
		t.Fatal(err)
	}
	gc := NewGridCoordinator(st, 10*time.Second)
	now := time.Unix(1000, 0)
	gc.now = func() time.Time { return now }

	g := gridSpecT(t)
	id, _, err := gc.Create(g)
	if err != nil {
		t.Fatal(err)
	}
	completeCell(t, gc, id, g, 0)
	if _, _, err := gc.Lease(id, "w1", 1); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// "Restart": fresh store + coordinator over the same log.
	st2, err := store.Open(filepath.Join(dir, "grids.log"))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = st2.Close() }()
	gc2 := NewGridCoordinator(st2, 10*time.Second)
	gc2.now = func() time.Time { return now }

	status, err := gc2.Status(id)
	if err != nil {
		t.Fatal(err)
	}
	if status.Complete != 1 || status.Leased != 1 {
		t.Fatalf("restarted status %+v, want 1 complete 1 leased", status)
	}
	// w1's lease survived the restart: w2 must not get cell 1 yet.
	cells, _, err := gc2.Lease(id, "w2", 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cells {
		if c.Cell.Index == 1 {
			t.Fatal("restart leaked w1's live lease to w2")
		}
	}
	// After expiry the dead worker's cell is stolen.
	now = now.Add(11 * time.Second)
	stolen, _, err := gc2.Lease(id, "w2", 5)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, c := range stolen {
		if c.Cell.Index == 1 {
			found = true
			if c.Attempt != 2 {
				t.Errorf("reclaimed cell attempt = %d, want 2", c.Attempt)
			}
		}
	}
	if !found {
		t.Fatal("expired lease was not reclaimed after restart")
	}
	grids, err := gc2.Grids()
	if err != nil || len(grids) != 1 || grids[0].ID != id {
		t.Errorf("Grids() after restart = %+v err %v", grids, err)
	}
}
