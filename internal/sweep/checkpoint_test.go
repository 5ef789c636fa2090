package sweep

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
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
	if !loaded.Compatible(7, 512) {
		t.Fatal("reloaded checkpoint incompatible with its own parameters")
	}
	if loaded.Compatible(7, 1024) || loaded.Compatible(8, 512) {
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
	// The nil checkpoint is safe to query: nothing is done, nothing is
	// compatible.
	if ck.Has("fig5") || ck.Compatible(1, 1) {
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
