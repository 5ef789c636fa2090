package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// runCmd runs the command in process and returns its exit status and
// output streams.
func runCmd(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb bytes.Buffer
	code = run(context.Background(), args, &out, &errb)
	return code, out.String(), errb.String()
}

func TestRunModes(t *testing.T) {
	dir := t.TempDir()
	cases := []struct {
		name string
		args []string
		want []string // substrings of stdout
	}{
		{"scalability", []string{"-d", "5"}, []string{"system current", "sustainable scale"}},
		{"fault smoke", []string{"-workload", "ppr", "-product", "ZZ", "-d", "3", "-shots", "32", "-functional",
			"-faults", "-fault-stall", "0.8", "-fault-link", "0.3"},
			[]string{"outcome   measured   reference", "fault injection: stall windows"}},
		{"qft2 functional", []string{"-workload", "qft2", "-d", "3", "-shots", "16", "-functional", "-system", "future-final"},
			[]string{"workload qft2", "ESM rounds:"}},
		{"qaoa trace", []string{"-workload", "qaoa", "-lq", "2", "-d", "3", "-system", "nf-cmos", "-n", "1000",
			"-trace", filepath.Join(dir, "trace.json")}, []string{"at 1000 physical qubits"}},
		{"random backpressure", []string{"-workload", "random", "-lq", "2", "-pprs", "2", "-d", "3", "-shots", "8",
			"-functional", "-faults", "-fault-policy", "backpressure", "-fault-buffer", "2", "-system", "future"},
			[]string{"backpressure rounds"}},
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
	if fi, err := os.Stat(filepath.Join(dir, "trace.json")); err != nil || fi.Size() == 0 {
		t.Errorf("trace not written: %v", err)
	}
}

// TestRunDeterministic pins that two in-process runs with one seed print
// the same bytes.
func TestRunDeterministic(t *testing.T) {
	args := []string{"-workload", "ppr", "-product", "ZZZ", "-d", "3", "-shots", "32", "-functional", "-seed", "7"}
	_, first, _ := runCmd(t, args...)
	_, again, _ := runCmd(t, args...)
	if first != again {
		t.Fatalf("same seed, different output:\n%s\nvs\n%s", first, again)
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
		msg  string // expected in stderr
	}{
		{"help", nil, []string{"-h"}, 0, ""},
		{"unknown flag", nil, []string{"-bogus"}, 2, ""},
		{"bad flag value", nil, []string{"-d", "five"}, 2, ""},
		{"unknown workload", nil, []string{"-workload", "shor"}, 1, ""},
		{"unknown system", nil, []string{"-system", "quantum-toaster"}, 1, ""},
		{"bad fault policy", nil, []string{"-faults", "-fault-policy", "drop-newest"}, 1, ""},
		{"invalid fault config", nil, []string{"-faults", "-fault-stall", "2"}, 1, ""},
		{"unwritable profile", nil, []string{"-cpuprofile", filepath.Join(dir, "absent", "cpu.prof")}, 1, ""},
		{"unwritable trace", nil, []string{"-d", "3", "-trace", filepath.Join(dir, "absent", "trace.json")}, 1, ""},
		{"interrupted", canceled, []string{"-d", "3"}, 130, "interrupted"},
		{"interrupted shots", canceled, []string{"-workload", "ppr", "-product", "ZZ", "-d", "3", "-shots", "8", "-functional"}, 130, "context canceled"},
		{"zero shots", nil, []string{"-workload", "ppr", "-product", "ZZ", "-d", "3", "-shots", "0", "-functional"}, 2, "-shots must be at least 1"},
		{"even distance", nil, []string{"-d", "4"}, 2, "code distance must be odd"},
		{"huge distance", nil, []string{"-d", "100001"}, 2, "code distance must be odd"},
		{"error rate out of range", nil, []string{"-p", "7"}, 2, "physical error rate must be in [0, 1)"},
		{"too many functional qubits", nil, []string{"-lq", "40", "-functional"}, 2, "logical qubits, got 40"},
		{"no logical qubits", nil, []string{"-lq", "0"}, 2, "at least 1 logical qubit, got 0"},
		{"too many logical qubits", nil, []string{"-lq", "10000000", "-pprs", "1", "-d", "3"}, 2, "at most 1024 logical qubits, got 10000000"},
		{"too many rotated qubits", nil, []string{"-lq", "100000", "-pprs", "10000", "-d", "3"}, 2, "at most 1024 logical qubits, got 100000"},
		{"no functional logical qubits", nil, []string{"-lq", "0", "-functional"}, 2, "at least 1 logical qubit, got 0"},
		{"bad product", nil, []string{"-workload", "ppr", "-product", "Q"}, 2, `product "Q" is not a string`},
		{"empty product", nil, []string{"-workload", "ppr", "-product", ""}, 2, "at least 1 logical qubit, got 0"},
		{"too many rotations", nil, []string{"-pprs", "1000000000"}, 2, "rotations, got 1000000000"},
		{"negative physical qubits", nil, []string{"-n", "-5"}, 2, "physical qubit count must be in [0, 134217728], got -5"},
		{"too many physical qubits", nil, []string{"-n", "134217729"}, 2, "physical qubit count must be in [0, 134217728], got 134217729"},
		{"max int physical qubits", nil, []string{"-n", "9223372036854775807"}, 2, "got 9223372036854775807"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ctx := tc.ctx
			if ctx == nil {
				ctx = context.Background()
			}
			// A deadline, since an unchecked input can hang the command
			// in a loop no context reaches (RandomPPR over 0 qubits).
			var out, errb bytes.Buffer
			done := make(chan int, 1)
			go func() { done <- run(ctx, tc.args, &out, &errb) }()
			var code int
			select {
			case code = <-done:
			case <-time.After(time.Minute):
				t.Fatalf("%v still running after a minute", tc.args)
			}
			if code != tc.code {
				t.Fatalf("exit %d, want %d; stderr:\n%s", code, tc.code, errb.String())
			}
			if !strings.Contains(errb.String(), tc.msg) {
				t.Fatalf("stderr %q does not say %q", errb.String(), tc.msg)
			}
			if tc.code == 2 && out.Len() != 0 {
				t.Fatalf("a usage error printed to stdout:\n%s", out.String())
			}
		})
	}
}
