package sweep

import (
	"bufio"
	"bytes"
	"context"
	"os"
	"testing"
)

// experimentsGoldenPath holds the pinned JSONValue of every
// ExperimentIDs() entry at seed 1 and 64 shots, one line each in
// ExperimentIDs order. The test never rewrites it: a diff there is a
// change to a simulated figure and needs its own review.
const experimentsGoldenPath = "testdata/experiments.golden"

// TestExperimentsGolden reruns every experiment at the golden's fixed
// seed and shot count and requires byte-identical results.
func TestExperimentsGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment, the decoder tournament included")
	}
	f, err := os.Open(experimentsGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = f.Close() }()
	var want [][]byte
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		want = append(want, bytes.Clone(sc.Bytes()))
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	ids := ExperimentIDs()
	if len(want) != len(ids) {
		t.Fatalf("golden has %d lines, ExperimentIDs has %d entries", len(want), len(ids))
	}
	for i, id := range ids {
		r, err := RunExperiment(context.Background(), id, ExperimentOptions{Seed: 1, Shots: 64})
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		got, err := JSONValue(r)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if !bytes.Equal(got, want[i]) {
			t.Errorf("%s differs from the golden\n got: %s\nwant: %s", id, got, want[i])
		}
	}
}
