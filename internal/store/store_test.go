package store

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

func openT(t *testing.T, path string) *Store {
	t.Helper()
	s, err := Open(path)
	if err != nil {
		t.Fatalf("Open(%s): %v", path, err)
	}
	return s
}

func putT(t *testing.T, s *Store, key, val string) {
	t.Helper()
	if err := s.Put(key, []byte(val)); err != nil {
		t.Fatalf("Put(%s): %v", key, err)
	}
}

func getT(t *testing.T, s *Store, key string) (string, bool) {
	t.Helper()
	v, ok, err := s.Get(key)
	if err != nil {
		t.Fatalf("Get(%s): %v", key, err)
	}
	return string(v), ok
}

func TestPutGetRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s.log")
	s := openT(t, path)
	putT(t, s, "a", "alpha")
	putT(t, s, "b", "beta")
	putT(t, s, "a", "alpha-2") // overwrite: last write wins
	if v, ok := getT(t, s, "a"); !ok || v != "alpha-2" {
		t.Fatalf("a = %q, %v; want alpha-2", v, ok)
	}
	if v, ok := getT(t, s, "b"); !ok || v != "beta" {
		t.Fatalf("b = %q, %v; want beta", v, ok)
	}
	if _, ok := getT(t, s, "c"); ok {
		t.Fatal("c should be absent")
	}
	if got := s.Keys(); len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("Keys = %v, want [a b]", got)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: same contents, via the snapshot fast path (Close saved it).
	s2 := openT(t, path)
	defer func() { _ = s2.Close() }()
	if s2.FullScan() {
		t.Error("reopen after clean Close should use the snapshot fast path")
	}
	if v, ok := getT(t, s2, "a"); !ok || v != "alpha-2" {
		t.Fatalf("reopened a = %q, %v", v, ok)
	}
	if s2.Len() != 2 {
		t.Fatalf("Len = %d, want 2", s2.Len())
	}
}

func TestDeleteTombstone(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s.log")
	s := openT(t, path)
	putT(t, s, "a", "alpha")
	putT(t, s, "b", "beta")
	if err := s.Delete("a"); err != nil {
		t.Fatal(err)
	}
	if _, ok := getT(t, s, "a"); ok {
		t.Fatal("a should be deleted")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// The tombstone must survive a reopen (both snapshot and scan paths).
	s2 := openT(t, path)
	if _, ok := getT(t, s2, "a"); ok {
		t.Fatal("a should stay deleted after reopen")
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(path + ".idx"); err != nil {
		t.Fatal(err)
	}
	s3 := openT(t, path)
	defer func() { _ = s3.Close() }()
	if !s3.FullScan() {
		t.Fatal("expected a full scan without the snapshot")
	}
	if _, ok := getT(t, s3, "a"); ok {
		t.Fatal("a should stay deleted after full-scan reopen")
	}
	if v, ok := getT(t, s3, "b"); !ok || v != "beta" {
		t.Fatalf("b = %q, %v", v, ok)
	}
}

func TestReopenWithoutCloseScansLog(t *testing.T) {
	// Simulated crash: the process dies without Close, so the snapshot
	// (if any) is stale and the log must be replayed.
	path := filepath.Join(t.TempDir(), "s.log")
	s := openT(t, path)
	putT(t, s, "a", "alpha")
	putT(t, s, "b", "beta")
	// No Close: abandon the handle as a kill -9 would.
	s2 := openT(t, path)
	defer func() { _ = s2.Close() }()
	if v, ok := getT(t, s2, "b"); !ok || v != "beta" {
		t.Fatalf("b = %q, %v after crash-reopen", v, ok)
	}
	if s2.RecoveredBytes() != 0 {
		t.Fatalf("clean log reported %d recovered bytes", s2.RecoveredBytes())
	}
}

func TestForeignFileRefused(t *testing.T) {
	path := filepath.Join(t.TempDir(), "notastore")
	if err := os.WriteFile(path, []byte("definitely not a store log"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path); err == nil {
		t.Fatal("Open should refuse a non-store file")
	}
}

func TestEmptyValueAndLargeValue(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s.log")
	s := openT(t, path)
	defer func() { _ = s.Close() }()
	putT(t, s, "empty", "")
	big := bytes.Repeat([]byte{0xA5}, 1<<16)
	if err := s.Put("big", big); err != nil {
		t.Fatal(err)
	}
	if v, ok := getT(t, s, "empty"); !ok || v != "" {
		t.Fatalf("empty = %q, %v", v, ok)
	}
	v, ok, err := s.Get("big")
	if err != nil || !ok || !bytes.Equal(v, big) {
		t.Fatalf("big round trip failed: ok=%v err=%v len=%d", ok, err, len(v))
	}
}

func TestSnapshotRefreshDuringAppends(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s.log")
	s := openT(t, path)
	for i := 0; i < snapshotEvery+3; i++ {
		putT(t, s, fmt.Sprintf("k%03d", i), fmt.Sprintf("v%d", i))
	}
	// No Close; the mid-run snapshot exists but is a few appends stale,
	// so reopen must fall back to the scan and still see everything.
	s2 := openT(t, path)
	defer func() { _ = s2.Close() }()
	if s2.Len() != snapshotEvery+3 {
		t.Fatalf("Len = %d, want %d", s2.Len(), snapshotEvery+3)
	}
	if v, ok := getT(t, s2, "k066"); !ok || v != "v66" {
		t.Fatalf("k066 = %q, %v", v, ok)
	}
}

func TestClosedStoreRejectsOps(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s.log")
	s := openT(t, path)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("a", nil); err == nil {
		t.Fatal("Put after Close should fail")
	}
	if _, _, err := s.Get("a"); err == nil {
		t.Fatal("Get after Close should fail")
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second Close should be a no-op, got %v", err)
	}
}

func TestEmptyKeyRejected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s.log")
	s := openT(t, path)
	defer func() { _ = s.Close() }()
	if err := s.Put("", []byte("x")); err == nil {
		t.Fatal("empty key should be rejected")
	}
}

// TestWriteFileAtomic: each write replaces the file whole, and a write
// that cannot commit (a missing directory, a directory in the way)
// reports an error and leaves no temp file behind.
func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "f.json")
	for _, content := range []string{"first, longer", "second"} {
		if err := WriteFileAtomic(path, []byte(content)); err != nil {
			t.Fatal(err)
		}
		if got, err := os.ReadFile(path); err != nil || string(got) != content {
			t.Fatalf("read back %q, %v; want %q", got, err, content)
		}
	}
	blocker := filepath.Join(dir, "blocker")
	if err := os.MkdirAll(filepath.Join(blocker, "child"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := WriteFileAtomic(blocker, []byte("x")); err == nil {
		t.Fatal("renaming over a non-empty directory succeeded")
	}
	if err := WriteFileAtomic(filepath.Join(dir, "absent", "f.json"), []byte("x")); err == nil {
		t.Fatal("writing into a missing directory succeeded")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		t.Fatalf("directory holds %v, want only f.json and blocker", entries)
	}
}
