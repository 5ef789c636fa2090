package sweep

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func TestCheckpointRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.json")

	ck := NewCheckpoint(7, 512)
	r := Result{
		ID:      "fig18",
		Title:   "test cell",
		Series:  []Series{{Name: "s", X: []float64{1, 2}, Y: []float64{3, 4}}},
		Anchors: map[string][2]float64{"a": {5, 6}},
		Notes:   []string{"note"},
	}
	ck.Put(r)
	if err := ck.Save(path); err != nil {
		t.Fatal(err)
	}

	loaded, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if !loaded.sameRun(NewCheckpoint(7, 512)) {
		t.Fatal("reloaded checkpoint incompatible with its own parameters")
	}
	if loaded.sameRun(NewCheckpoint(7, 1024)) || loaded.sameRun(NewCheckpoint(8, 512)) {
		t.Fatal("checkpoint compatible with different grid parameters")
	}
	if !loaded.Has("fig18") || loaded.Has("fig5") {
		t.Fatalf("membership wrong: %v", loaded.Results)
	}
	if !reflect.DeepEqual(loaded.Results["fig18"], r) {
		t.Fatalf("result did not round-trip:\n%+v\nvs\n%+v", loaded.Results["fig18"], r)
	}
}

func TestCheckpointMissingFile(t *testing.T) {
	ck, err := LoadCheckpoint(filepath.Join(t.TempDir(), "absent.json"))
	if err != nil {
		t.Fatalf("missing checkpoint must not error: %v", err)
	}
	if ck != nil {
		t.Fatal("missing checkpoint must load as nil")
	}
	// The nil checkpoint is safe to query: nothing is done.
	if _, ok := ck.CellAt(0); ok || ck.Has("fig5") {
		t.Fatal("nil checkpoint claims state")
	}
}

func TestCheckpointVersionMismatch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "old.json")
	if err := os.WriteFile(path, []byte(`{"version": 99, "seed": 1, "shots": 1}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadCheckpoint(path); err == nil {
		t.Fatal("version mismatch accepted")
	}
}

func TestCheckpointCorruptFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(path, []byte("{truncated"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadCheckpoint(path); err == nil {
		t.Fatal("corrupt checkpoint accepted")
	}
}

func TestCheckpointSaveAtomic(t *testing.T) {
	// Save must leave no temp droppings and must overwrite in place.
	dir := t.TempDir()
	path := filepath.Join(dir, "sweep.json")
	ck := NewCheckpoint(1, 64)
	for i := 0; i < 3; i++ {
		ck.Put(Result{ID: "fig18"})
		if err := ck.Save(path); err != nil {
			t.Fatal(err)
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "sweep.json" {
		t.Fatalf("directory not clean after saves: %v", entries)
	}
}

func TestDegradationStudySmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("degradation study samples many memory runs")
	}
	r, err := DegradationStudy(context.Background(), 40, 9)
	if err != nil {
		t.Fatal(err)
	}
	if r.ID != "degradation" {
		t.Fatalf("ID = %q", r.ID)
	}
	// Two distances, two series each (rate + dropped rounds).
	if len(r.Series) != 4 {
		t.Fatalf("series = %d", len(r.Series))
	}
	for _, s := range r.Series {
		if len(s.X) != len(degradationStallProbs) {
			t.Fatalf("series %s has %d points", s.Name, len(s.X))
		}
	}
	// Dropped rounds must rise with the stall probability (0 at stall 0,
	// positive at the top of the grid) for both distances.
	for _, i := range []int{1, 3} {
		drops := r.Series[i]
		if drops.Y[0] != 0 {
			t.Fatalf("%s: drops at stall 0 = %v", drops.Name, drops.Y[0])
		}
		if drops.Y[len(drops.Y)-1] <= 0 {
			t.Fatalf("%s: no drops at the top of the grid", drops.Name)
		}
	}
	// Cancellation propagates.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := DegradationStudy(ctx, 40, 9); err == nil {
		t.Fatal("canceled study returned nil error")
	}
}

// TestResumeKeysOnTheSnapshotsIdentity drives the protocol's resume
// check: no file and another run's snapshot start fresh, the same run's
// snapshot resumes, and an unreadable file is an error that still hands
// back the fresh snapshot.
func TestResumeKeysOnTheSnapshotsIdentity(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ck.json")
	fresh := NewCheckpoint(1, 64)
	if ck, note, err := Resume(path, fresh); err != nil || ck != fresh || note != "" {
		t.Fatalf("no file: ck %p (fresh %p), note %q, err %v", ck, fresh, note, err)
	}
	saved := NewCheckpoint(1, 64)
	saved.Put(Result{ID: "table4"})
	if err := saved.Save(path); err != nil {
		t.Fatal(err)
	}
	if ck, note, err := Resume(path, NewCheckpoint(1, 64)); err != nil || !ck.Has("table4") ||
		note != "resuming from "+path+" (1 experiments done)" {
		t.Fatalf("same run: has %v, note %q, err %v", ck.Has("table4"), note, err)
	}
	for _, other := range []*Checkpoint{NewCheckpoint(2, 64), NewCheckpoint(1, 128), NewGridCheckpoint(testGrid(t))} {
		ck, note, err := Resume(path, other)
		if err != nil || ck != other || !strings.HasSuffix(note, "; starting over") {
			t.Fatalf("other run (grid %q): ck %p (fresh %p), note %q, err %v", other.Grid, ck, other, note, err)
		}
	}
	if err := os.WriteFile(path, []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	if ck, _, err := Resume(path, fresh); err == nil || ck != fresh {
		t.Fatalf("unreadable file: ck %p (fresh %p), err %v", ck, fresh, err)
	}
}

// TestCheckpointRunSteps pins the run step: a nil snapshot only runs,
// a run is Put and Saved, a checkpointed entry comes back without
// running, and a run whose save fails still returns its result.
func TestCheckpointRunSteps(t *testing.T) {
	ctx := context.Background()
	opts := ExperimentOptions{Seed: 1, Shots: 64}
	dir := t.TempDir()
	path := filepath.Join(dir, "ck.json")
	unsavable := filepath.Join(dir, "absent", "ck.json")

	r, cached, err := (*Checkpoint)(nil).Experiment(ctx, unsavable, "t4", opts)
	if err != nil || cached || r.ID != "table4" {
		t.Fatalf("nil snapshot: %q cached %v err %v", r.ID, cached, err)
	}
	ck := NewCheckpoint(1, 64)
	if _, cached, err := ck.Experiment(ctx, path, "t4", opts); err != nil || cached {
		t.Fatalf("first run: cached %v err %v", cached, err)
	}
	if loaded, err := LoadCheckpoint(path); err != nil || !loaded.Has("table4") {
		t.Fatalf("run not saved: %v", err)
	}
	if again, cached, err := ck.Experiment(ctx, path, "table4", opts); err != nil || !cached || !reflect.DeepEqual(again, r) {
		t.Fatalf("second run: cached %v err %v", cached, err)
	}
	if r, cached, err := NewCheckpoint(1, 64).Experiment(ctx, unsavable, "t4", opts); err == nil || cached || r.ID != "table4" {
		t.Fatalf("failed save: %q cached %v err %v", r.ID, cached, err)
	}

	g := testGrid(t)
	gck := NewGridCheckpoint(g)
	first, _, cached, err := gck.Cell(ctx, path, g, g.Cell(1), nil)
	if err != nil || cached {
		t.Fatalf("first cell: cached %v err %v", cached, err)
	}
	again, timing, cached, err := gck.Cell(ctx, path, g, g.Cell(1), nil)
	if err != nil || !cached || again != first || timing != (CellTiming{}) {
		t.Fatalf("second cell: %+v vs %+v, cached %v, timing %+v, err %v", again, first, cached, timing, err)
	}
}
