package main

import (
	"regexp"
	"strings"
	"testing"
)

// TestRun exercises the decoder tournament example end to end and pins
// the shape of its report: every registered backend decodes the shared
// syndrome cleanly and the streaming race reports its anchors.
func TestRun(t *testing.T) {
	var sb strings.Builder
	if err := run(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"distance-15 patch:",
		"backend matching:",
		"backend union-find:",
		"EDU cycles over a 30000-cell array:",
		"streaming tournament",
		"matching max sustainable d",
		"union-find max sustainable d",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
	if strings.Contains(out, "!! correction does not annihilate") {
		t.Errorf("a backend failed to annihilate the syndrome:\n%s", out)
	}
	// The matching backend and the priority scheme price the same
	// window with the same function, so the two counts agree.
	backend := regexp.MustCompile(`backend matching: \d+ matches, (\d+) cycles`).FindStringSubmatch(out)
	priority := regexp.MustCompile(`\n  priority +(\d+) cycles`).FindStringSubmatch(out)
	if backend == nil || priority == nil {
		t.Fatalf("cycle counts missing from the report:\n%s", out)
	}
	if backend[1] != priority[1] {
		t.Errorf("priority window costs %s cycles, matching backend %s", priority[1], backend[1])
	}
}
