package main

import (
	"bytes"
	"context"
	"strings"
	"testing"
)

func TestRun(t *testing.T) {
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	cases := []struct {
		name string
		ctx  context.Context
		args []string
		code int
		out  string // expected in stdout
		msg  string // expected in stderr
	}{
		{"help", nil, []string{"-h"}, 0, "", ""},
		{"default", nil, nil, 0, "XQ-estimator: RSFQ at 10000 physical qubits (", ""},
		{"300k cmos", nil, []string{"-tech", "300k-cmos", "-n", "1000", "-d", "5"}, 0, "300K-CMOS at 1000 physical qubits", ""},
		{"4k cmos scaled", nil, []string{"-tech", "4k-cmos", "-vscale"}, 0, "4K-CMOS at 10000", ""},
		{"ersfq optimized", nil, []string{"-tech", "ersfq", "-n", "59000", "-opt2", "-opt3", "-opt4"}, 0, "ERSFQ at 59000", ""},
		{"validate", nil, []string{"-validate"}, 0, "Fig. 12 — post-layout validation", ""},
		{"unknown flag", nil, []string{"-bogus"}, 2, "", ""},
		{"bad flag value", nil, []string{"-n", "many"}, 2, "", ""},
		{"unknown technology", nil, []string{"-tech", "duct-tape"}, 2, "", `unknown technology "duct-tape" (have 300k-cmos, 4k-cmos, rsfq, ersfq)`},
		{"negative qubits", nil, []string{"-n", "-5"}, 2, "", "-n must be at least 1 physical qubit, got -5"},
		{"no qubits", nil, []string{"-n", "0"}, 2, "", "got 0"},
		{"too many qubits", nil, []string{"-n", "134217729"}, 2, "", "physical qubit count must be in [0, 134217728], got 134217729"},
		{"max int qubits", nil, []string{"-n", "9223372036854775807"}, 2, "", "got 9223372036854775807"},
		{"qubit bound", nil, []string{"-tech", "300k-cmos", "-n", "134217728"}, 0, "300K-CMOS at 134217728 physical qubits", ""},
		{"even distance", nil, []string{"-d", "4"}, 2, "", "code distance must be odd and in [3, 101], got 4"},
		{"zero distance", nil, []string{"-d", "0"}, 2, "", "got 0"},
		{"negative distance", nil, []string{"-d", "-3"}, 2, "", "got -3"},
		{"huge distance", nil, []string{"-d", "103"}, 2, "", "got 103"},
		{"interrupted", canceled, nil, 130, "", "xqestimate: interrupted"},
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
			if !strings.Contains(out.String(), tc.out) {
				t.Errorf("stdout lacks %q:\n%s", tc.out, out.String())
			}
			if !strings.Contains(errb.String(), tc.msg) {
				t.Errorf("stderr %q does not say %q", errb.String(), tc.msg)
			}
			if tc.code != 0 && out.Len() > 0 {
				t.Errorf("exit %d printed estimates:\n%s", tc.code, out.String())
			}
		})
	}
}
