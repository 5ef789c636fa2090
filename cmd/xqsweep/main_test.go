package main

import (
	"bytes"
	"context"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"xqsim/internal/server"
)

// runCmd runs the command in process and returns its exit status and
// output streams.
func runCmd(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb bytes.Buffer
	code = run(context.Background(), args, &out, &errb)
	return code, out.String(), errb.String()
}

func TestRunExperiments(t *testing.T) {
	dir := t.TempDir()
	cases := []struct {
		name string
		args []string
		want []string // substrings of stdout
	}{
		{"table3", []string{"-table", "3", "-shots", "64"}, []string{"== table3:", "QFT dTV"}},
		{"fig14", []string{"-fig", "14"}, []string{"== fig14:", "decode limit with Opt#1"}},
		{"fig5-outputs", []string{"-fig", "5",
			"-csv", filepath.Join(dir, "fig5.csv"),
			"-jsonl", filepath.Join(dir, "fig5.jsonl"),
			"-md", filepath.Join(dir, "fig5.md")}, []string{"== fig5:"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, out, errOut := runCmd(t, tc.args...)
			if code != 0 {
				t.Fatalf("exit %d, stderr:\n%s", code, errOut)
			}
			for _, w := range tc.want {
				if !strings.Contains(out, w) {
					t.Errorf("stdout lacks %q:\n%s", w, out)
				}
			}
		})
	}
	for _, name := range []string{"fig5.csv", "fig5.jsonl", "fig5.md"} {
		if fi, err := os.Stat(filepath.Join(dir, name)); err != nil || fi.Size() == 0 {
			t.Errorf("%s not written: %v", name, err)
		}
	}
}

// TestRunCheckpointResume runs an experiment with a checkpoint, then
// resumes from it: the resumed run skips the experiment and prints the
// same result bytes.
func TestRunCheckpointResume(t *testing.T) {
	ck := filepath.Join(t.TempDir(), "sweep.json")
	code, first, errOut := runCmd(t, "-fig", "19", "-checkpoint", ck)
	if code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, errOut)
	}
	code, again, errOut := runCmd(t, "-fig", "19", "-checkpoint", ck, "-resume")
	if code != 0 {
		t.Fatalf("resume: exit %d, stderr:\n%s", code, errOut)
	}
	if !strings.Contains(errOut, "skipping fig19 (checkpointed)") {
		t.Errorf("resume did not skip the checkpointed experiment; stderr:\n%s", errOut)
	}
	if again != first {
		t.Errorf("resumed output differs:\n%s\nvs\n%s", again, first)
	}
	code, _, errOut = runCmd(t, "-fig", "19", "-checkpoint", ck, "-resume", "-seed", "2")
	if code != 0 || !strings.Contains(errOut, "starting over") {
		t.Errorf("incompatible checkpoint: exit %d, stderr:\n%s", code, errOut)
	}
}

// TestRunFailedCheckpointSaveKeepsResults: a checkpoint that cannot be
// saved fails the run (exit 1) only after the finished result is
// printed and written, as a failed experiment does.
func TestRunFailedCheckpointSaveKeepsResults(t *testing.T) {
	dir := t.TempDir()
	part := filepath.Join(dir, "part.jsonl")
	code, out, errOut := runCmd(t, "-table", "4", "-checkpoint", filepath.Join(dir, "absent", "ck.json"), "-jsonl", part)
	if code != 1 || !strings.Contains(errOut, "save checkpoint") {
		t.Fatalf("exit %d, want 1 with a save error; stderr:\n%s", code, errOut)
	}
	if !strings.Contains(out, "== table4:") {
		t.Errorf("finished result not printed:\n%s", out)
	}
	if b, err := os.ReadFile(part); err != nil || !bytes.Contains(b, []byte(`"id":"table4"`)) {
		t.Errorf("finished result not written to -jsonl: %v\n%s", err, b)
	}
}

// TestRunGridShardMerge runs a 2-cell grid in one process and as two
// shards, and checks that merging the shards reproduces the
// single-process bytes.
func TestRunGridShardMerge(t *testing.T) {
	dir := t.TempDir()
	path := func(name string) string { return filepath.Join(dir, name) }
	grid := []string{"-grid", "threshold", "-d", "3", "-p", "0.01,0.03", "-trials", "32", "-seed", "5"}
	steps := [][]string{
		append(grid[:len(grid):len(grid)], "-jsonl", path("whole.jsonl")),
		append(grid[:len(grid):len(grid)], "-shard", "0/2", "-jsonl", path("s0.jsonl"), "-checkpoint", path("ck0.json")),
		append(grid[:len(grid):len(grid)], "-shard", "1/2", "-jsonl", path("s1.jsonl"), "-csv", path("s1.csv")),
		{"-merge", "-jsonl", path("merged.jsonl"), "-csv", path("merged.csv"), path("s0.jsonl"), path("s1.jsonl")},
	}
	for _, args := range steps {
		if code, _, errOut := runCmd(t, args...); code != 0 {
			t.Fatalf("%v: exit %d, stderr:\n%s", args, code, errOut)
		}
	}
	whole, err := os.ReadFile(path("whole.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	merged, err := os.ReadFile(path("merged.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(whole, merged) {
		t.Fatalf("merged shards differ from the single-process grid:\n%s\nvs\n%s", merged, whole)
	}

	// Without -jsonl, both the grid and the merge stream to stdout.
	code, streamed, errOut := runCmd(t, grid...)
	if code != 0 || streamed != string(whole) {
		t.Fatalf("stdout grid: exit %d, stderr %s, bytes equal %v", code, errOut, streamed == string(whole))
	}
	code, streamed, errOut = runCmd(t, "-merge", path("s0.jsonl"), path("s1.jsonl"))
	if code != 0 || streamed != string(whole) {
		t.Fatalf("stdout merge: exit %d, stderr %s, bytes equal %v", code, errOut, streamed == string(whole))
	}

	// A resumed shard skips its checkpointed cell and writes the same bytes.
	s0, err := os.ReadFile(path("s0.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	args := append(grid[:len(grid):len(grid)], "-shard", "0/2", "-checkpoint", path("ck0.json"), "-resume")
	code, streamed, errOut = runCmd(t, args...)
	if code != 0 || streamed != string(s0) || !strings.Contains(errOut, "skipping cell 0 (checkpointed)") {
		t.Fatalf("resumed shard: exit %d, stderr %s, bytes equal %v", code, errOut, streamed == string(s0))
	}
}

// TestRunWorkerAgainstDaemon drives -submit, -worker and -fetch against
// an in-process xqd. A worker whose checkpoint belongs to another grid
// says so and starts over, the fetched grid equals a single-process run
// byte for byte, and a restarted worker resumes its own checkpoint.
func TestRunWorkerAgainstDaemon(t *testing.T) {
	dir := t.TempDir()
	sched, err := server.New(server.Config{DataDir: filepath.Join(dir, "xqd")})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(server.NewServer(sched))
	defer func() {
		ts.Close()
		if err := sched.Drain(context.Background()); err != nil {
			t.Error(err)
		}
	}()
	ck := filepath.Join(dir, "ck.json")
	grid := []string{"-grid", "threshold", "-d", "3", "-p", "0.01,0.03", "-trials", "32", "-seed", "5"}
	worker := []string{"-worker", ts.URL, "-worker-name", "w", "-checkpoint", ck}

	if code, _, errOut := runCmd(t, "-grid", "threshold", "-d", "3", "-p", "0.02", "-trials", "8", "-checkpoint", ck); code != 0 {
		t.Fatalf("other grid: exit %d, stderr:\n%s", code, errOut)
	}
	code, id, errOut := runCmd(t, append(grid[:len(grid):len(grid)], "-submit", ts.URL)...)
	if id = strings.TrimSpace(id); code != 0 || id == "" {
		t.Fatalf("submit: exit %d, id %q, stderr:\n%s", code, id, errOut)
	}
	worker = append(worker, "-grid-id", id)
	code, _, errOut = runCmd(t, worker...)
	if code != 0 || !strings.Contains(errOut, "worker w: checkpoint "+ck+" belongs to a different grid; starting over") {
		t.Fatalf("worker: exit %d, stderr:\n%s", code, errOut)
	}
	code, fetched, errOut := runCmd(t, "-fetch", ts.URL, "-grid-id", id)
	if code != 0 {
		t.Fatalf("fetch: exit %d, stderr:\n%s", code, errOut)
	}
	if _, whole, _ := runCmd(t, grid...); fetched != whole {
		t.Fatalf("fetched grid differs from the single-process run:\n%s\nvs\n%s", fetched, whole)
	}
	code, _, errOut = runCmd(t, worker...)
	if code != 0 || !strings.Contains(errOut, "worker w: resuming from "+ck+" (2 cells done)") {
		t.Fatalf("restarted worker: exit %d, stderr:\n%s", code, errOut)
	}
}

func TestRunExitCodes(t *testing.T) {
	dir := t.TempDir()
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	cases := []struct {
		name string
		ctx  context.Context
		args []string
		code int
	}{
		{"help", nil, []string{"-h"}, 0},
		{"unknown flag", nil, []string{"-bogus"}, 2},
		{"no mode", nil, nil, 2},
		{"bad flag value", nil, []string{"-shots", "many"}, 2},
		{"unknown figure", nil, []string{"-fig", "99"}, 1},
		{"unwritable profile", nil, []string{"-fig", "14", "-cpuprofile", filepath.Join(dir, "absent", "cpu.prof")}, 1},
		{"unreadable checkpoint", nil, []string{"-fig", "14", "-checkpoint", dir, "-resume"}, 1},
		{"bad distance list", nil, []string{"-grid", "threshold", "-d", "x", "-p", "0.01"}, 1},
		{"bad rate list", nil, []string{"-grid", "threshold", "-d", "3", "-p", ""}, 1},
		{"bad shard", nil, []string{"-grid", "threshold", "-d", "3", "-p", "0.01", "-shard", "3/2"}, 1},
		{"merge without files", nil, []string{"-merge"}, 1},
		{"merge missing file", nil, []string{"-merge", filepath.Join(dir, "absent.jsonl")}, 1},
		{"worker without id", nil, []string{"-worker", "http://127.0.0.1:1"}, 1},
		{"fetch without id", nil, []string{"-fetch", "http://127.0.0.1:1"}, 1},
		{"interrupted experiment", canceled, []string{"-fig", "16"}, 130},
		{"interrupted grid", canceled, []string{"-grid", "threshold", "-d", "3", "-p", "0.01", "-trials", "16"}, 130},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ctx := tc.ctx
			if ctx == nil {
				ctx = context.Background()
			}
			var out, errb bytes.Buffer
			if code := run(ctx, tc.args, &out, &errb); code != tc.code {
				t.Fatalf("exit %d, want %d; stderr:\n%s", code, tc.code, errb.String())
			}
		})
	}
}
