package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"xqsim/internal/sweep"
)

func postJob(t *testing.T, ts *httptest.Server, body string) (*http.Response, submitResponse) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var sr submitResponse
	_ = json.NewDecoder(resp.Body).Decode(&sr)
	_ = resp.Body.Close()
	return resp, sr
}

// postStatus POSTs body to path and returns the response status.
func postStatus(t *testing.T, ts *httptest.Server, path, body string) int {
	t.Helper()
	resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	_ = resp.Body.Close()
	return resp.StatusCode
}

func getJSON(t *testing.T, ts *httptest.Server, path string, v any) int {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	if v != nil {
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
	}
	return resp.StatusCode
}

func TestHTTPSubmitStatusResult(t *testing.T) {
	sched := newT(t, Config{Workers: 1})
	defer drainT(t, sched)
	ts := httptest.NewServer(NewServer(sched))
	defer ts.Close()

	resp, sr := postJob(t, ts, `{"kind":"estimate","tech":"rsfq","nphys":500,"d":5}`)
	if resp.StatusCode != http.StatusAccepted || sr.Status != "accepted" || sr.ID == "" {
		t.Fatalf("submit = %d %+v", resp.StatusCode, sr)
	}

	// Poll status to done.
	var info JobInfo
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if code := getJSON(t, ts, "/jobs/"+sr.ID, &info); code != http.StatusOK {
			t.Fatalf("status code %d", code)
		}
		if info.Status == StatusDone {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	if info.Status != StatusDone || info.Kind != "estimate" {
		t.Fatalf("job info %+v", info)
	}

	// Result bytes are byte-stable across reads.
	r1, err := http.Get(ts.URL + "/jobs/" + sr.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	var b1 bytes.Buffer
	_, _ = b1.ReadFrom(r1.Body)
	_ = r1.Body.Close()
	r2, err := http.Get(ts.URL + "/jobs/" + sr.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	var b2 bytes.Buffer
	_, _ = b2.ReadFrom(r2.Body)
	_ = r2.Body.Close()
	if r1.StatusCode != http.StatusOK || !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Fatalf("result reads differ: %d %q vs %q", r1.StatusCode, b1.String(), b2.String())
	}

	// Resubmission is served from cache with 200.
	resp, sr = postJob(t, ts, `{"kind":"estimate","tech":"rsfq","nphys":500,"d":5}`)
	if resp.StatusCode != http.StatusOK || sr.Status != "cached" {
		t.Fatalf("resubmit = %d %+v", resp.StatusCode, sr)
	}

	// Job list contains the job.
	var jobs []JobInfo
	if code := getJSON(t, ts, "/jobs", &jobs); code != http.StatusOK || len(jobs) != 1 {
		t.Fatalf("list = %d %+v", code, jobs)
	}

	// Health and stats respond.
	var health map[string]string
	if code := getJSON(t, ts, "/healthz", &health); code != http.StatusOK || health["status"] != "ok" {
		t.Fatalf("health = %d %+v", code, health)
	}
	var st Stats
	if code := getJSON(t, ts, "/stats", &st); code != http.StatusOK || st.Done != 1 {
		t.Fatalf("stats = %d %+v", code, st)
	}
}

func TestHTTPBadRequests(t *testing.T) {
	sched := newT(t, Config{Workers: 1})
	defer drainT(t, sched)
	ts := httptest.NewServer(NewServer(sched))
	defer ts.Close()

	cases := []string{
		`{not json`,
		`{"kind":"quantum-supremacy"}`,
		`{"kind":"sweep","experiments":["fig99"]}`,
		`{"kind":"estimate","tech":"duct-tape"}`,
		`{"kind":"simulate","bogus_field":1}`,
	}
	for _, body := range cases {
		resp, _ := postJob(t, ts, body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("POST %s = %d, want 400", body, resp.StatusCode)
		}
	}

	if code := getJSON(t, ts, "/jobs/deadbeef", nil); code != http.StatusNotFound {
		t.Errorf("unknown job status = %d, want 404", code)
	}
	if code := getJSON(t, ts, "/jobs/deadbeef/result", nil); code != http.StatusNotFound {
		t.Errorf("unknown job result = %d, want 404", code)
	}
}

// TestHTTPRejectsUnrunnableSimulate sends simulate specs the run would
// die on, and estimate specs at a distance no run takes: each gets a
// 400 and leaves no durable job record, so a restart has nothing to
// resume.
func TestHTTPRejectsUnrunnableSimulate(t *testing.T) {
	sched := newT(t, Config{Workers: 1})
	defer drainT(t, sched)
	ts := httptest.NewServer(NewServer(sched))
	defer ts.Close()

	for _, body := range []string{
		`{"kind":"simulate","lq":40}`,
		`{"kind":"simulate","workload":"qaoa","lq":21}`,
		`{"kind":"simulate","workload":"ppr","product":"ZZZZZZZZZZZZZZZZZZZZZ"}`,
		`{"kind":"simulate","d":4}`,
		`{"kind":"simulate","d":100001}`,
		`{"kind":"simulate","phys_error":7}`,
		`{"kind":"simulate","phys_error":1}`,
		`{"kind":"simulate","pprs":1000000000}`,
		`{"kind":"simulate","workload":"random","pprs":10001}`,
		`{"kind":"simulate","workload":"ppr","product":"Q"}`,
		`{"kind":"simulate","workload":"ppr","product":"ZZ+"}`,
		`{"kind":"estimate","d":4}`,
		`{"kind":"estimate","tech":"ersfq","d":1}`,
		`{"kind":"estimate","d":103}`,
	} {
		if resp, _ := postJob(t, ts, body); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("POST %s = %d, want 400", body, resp.StatusCode)
		}
	}
	for _, key := range sched.st.Keys() {
		if strings.HasPrefix(key, "job/") {
			t.Errorf("rejected spec left durable record %s", key)
		}
	}
}

// TestHTTPRejectsTrailingData: every body xqd reads is exactly one JSON
// value. A closing newline is fine; a second value or stray bytes after
// the first is a 400 that stores nothing, not a request for the first
// value.
func TestHTTPRejectsTrailingData(t *testing.T) {
	sched := newT(t, Config{Workers: 1, LeaseTTL: 30 * time.Second})
	defer drainT(t, sched)
	ts := httptest.NewServer(NewServer(sched))
	defer ts.Close()

	g, err := sweep.GridSpec{Kind: sweep.GridThreshold, Ds: []int{3}, Ps: []float64{0.01}, Trials: 8, Seed: 3}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	spec, err := json.Marshal(g)
	if err != nil {
		t.Fatal(err)
	}
	if code := postStatus(t, ts, "/grids", string(spec)+`{"kind":"circuit"}`); code != http.StatusBadRequest {
		t.Errorf("grid spec with a second value = %d, want 400", code)
	}
	if keys := sched.st.Keys(); len(keys) != 0 {
		t.Fatalf("rejected grid spec left records %v", keys)
	}
	id, _, err := sched.Grids().Create(g)
	if err != nil {
		t.Fatal(err)
	}
	c := g.Cell(0)
	cell, err := sweep.MarshalCell(sweep.CellResult{Index: 0, D: c.D, P: c.P, Rounds: c.Rounds, Trials: c.Trials, Seed: c.Seed, Rate: 0.25})
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct{ path, body string }{
		{"/jobs", `{"kind":"simulate"}{"kind":"sweep"}`},
		{"/jobs", `{"kind":"estimate","tech":"rsfq"} x`},
		{"/grids/" + id + "/lease", `{"worker":"w1","max":1}{"worker":"w2"}`},
		{"/grids/" + id + "/cells/0/renew", `{"worker":"w1"}]`},
		{"/grids/" + id + "/cells/0", string(cell) + `{"trailing":1}`},
		{"/grids/" + id + "/cells/0", string(cell) + "\n" + string(cell)},
	} {
		if code := postStatus(t, ts, tc.path, tc.body); code != http.StatusBadRequest {
			t.Errorf("POST %s %s = %d, want 400", tc.path, tc.body, code)
		}
	}
	if keys := sched.st.Keys(); len(keys) != 1 || keys[0] != gridKey(id) {
		t.Fatalf("rejected bodies left records %v", keys)
	}

	// The same bodies without the tail, ending in a newline, go through.
	if resp, sr := postJob(t, ts, `{"kind":"estimate","tech":"rsfq"}`+"\n"); resp.StatusCode != http.StatusAccepted {
		t.Errorf("job spec with a closing newline = %d %+v, want 202", resp.StatusCode, sr)
	}
	if code := postStatus(t, ts, "/grids/"+id+"/lease", `{"worker":"w1","max":1}`+"\n"); code != http.StatusOK {
		t.Errorf("lease with a closing newline = %d, want 200", code)
	}
	if code := postStatus(t, ts, "/grids/"+id+"/cells/0/renew", `{"worker":"w1"}`+"\n"); code != http.StatusOK {
		t.Errorf("renew with a closing newline = %d, want 200", code)
	}
	if code := postStatus(t, ts, "/grids/"+id+"/cells/0", string(cell)+"\n"); code != http.StatusOK {
		t.Errorf("cell with a closing newline = %d, want 200", code)
	}
}

// TestHTTPRejectsBadBodies: all four request bodies xqd decodes (job
// spec, grid spec, lease, renew) reject a field their type lacks, so a
// misspelled field is a 400 that leases, renews and stores nothing,
// not a request that runs with that field's default; so is a grid spec
// whose rounds exceed sweep's bound, which no worker could run. The
// same bodies without the defect go through.
func TestHTTPRejectsBadBodies(t *testing.T) {
	sched := newT(t, Config{Workers: 1, LeaseTTL: 30 * time.Second})
	defer drainT(t, sched)
	ts := httptest.NewServer(NewServer(sched))
	defer ts.Close()

	g, err := sweep.GridSpec{Kind: sweep.GridThreshold, Ds: []int{3}, Ps: []float64{0.01, 0.03}, Trials: 8, Seed: 3}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	id, _, err := sched.Grids().Create(g)
	if err != nil {
		t.Fatal(err)
	}
	if cells, _, err := sched.Grids().Lease(id, "w1", 1); err != nil || len(cells) != 1 || cells[0].Cell.Index != 0 {
		t.Fatalf("lease = %+v, %v", cells, err)
	}
	other := g
	other.Seed = 4
	spec, err := json.Marshal(other)
	if err != nil {
		t.Fatal(err)
	}
	records := func() map[string]string {
		m := map[string]string{}
		for _, k := range sched.st.Keys() {
			v, _, err := sched.st.Get(k)
			if err != nil {
				t.Fatal(err)
			}
			m[k] = string(v)
		}
		return m
	}
	before := records()

	rows := []struct{ path, body, clean string }{
		{"/jobs", `{"kind":"estimate","tech":"rsfq","bogus":1}`, `{"kind":"estimate","tech":"rsfq"}`},
		{"/jobs", `{"kind":"estimate","tech":"300k-cmos","nphys":9223372036854775807}`, `{"kind":"estimate","tech":"300k-cmos","nphys":134217728}`},
		{"/grids", strings.TrimSuffix(string(spec), "}") + `,"bogus":1}`, string(spec)},
		{"/grids/" + id + "/lease", `{"worker":"w2","maxx":8}`, `{"worker":"w2"}`},
		{"/grids/" + id + "/cells/0/renew", `{"worker":"w1","ttl":60}`, `{"worker":"w1"}`},
		{"/grids", `{"kind":"circuit","d":[3],"p":[0.01],"rounds":100000000}`, `{"kind":"circuit","d":[3],"p":[0.01],"rounds":1000}`},
		{"/grids", `{"kind":"circuit","d":[3],"p":[0.01],"trials":100000000}`, `{"kind":"circuit","d":[3],"p":[0.01],"trials":1000000}`},
	}
	for _, tc := range rows {
		if code := postStatus(t, ts, tc.path, tc.body); code != http.StatusBadRequest {
			t.Errorf("POST %s %s = %d, want 400", tc.path, tc.body, code)
		}
	}
	if after := records(); fmt.Sprint(after) != fmt.Sprint(before) {
		t.Fatalf("rejected bodies changed the store:\nbefore %v\nafter  %v", before, after)
	}

	// Without its defect, each body goes through.
	for _, tc := range rows {
		if code := postStatus(t, ts, tc.path, tc.clean); code >= 300 {
			t.Errorf("POST %s %s = %d, want 2xx", tc.path, tc.clean, code)
		}
	}
}

func TestHTTPOverloadReturns429WithRetryAfter(t *testing.T) {
	block := make(chan struct{})
	runHook = func(ctx context.Context, spec JobSpec, attempt int) (json.RawMessage, error) {
		<-block
		return json.RawMessage(`{}`), nil
	}
	defer func() { runHook = nil }()

	sched := newT(t, Config{Workers: 1, QueueDepth: 1})
	ts := httptest.NewServer(NewServer(sched))
	defer ts.Close()

	resp, _ := postJob(t, ts, `{"kind":"simulate","seed":21}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit = %d", resp.StatusCode)
	}
	resp, _ = postJob(t, ts, `{"kind":"simulate","seed":22}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overload submit = %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Fatal("429 response missing Retry-After")
	}
	close(block)
	drainT(t, sched)
}

func TestHTTPResultOfUnfinishedJobConflicts(t *testing.T) {
	block := make(chan struct{})
	runHook = func(ctx context.Context, spec JobSpec, attempt int) (json.RawMessage, error) {
		<-block
		return json.RawMessage(`{}`), nil
	}
	defer func() { runHook = nil }()

	sched := newT(t, Config{Workers: 1})
	ts := httptest.NewServer(NewServer(sched))
	defer ts.Close()

	_, sr := postJob(t, ts, `{"kind":"simulate","seed":31}`)
	if code := getJSON(t, ts, "/jobs/"+sr.ID+"/result", nil); code != http.StatusConflict {
		t.Fatalf("unfinished result = %d, want 409", code)
	}
	close(block)
	drainT(t, sched)
}

func TestHTTPDrainingReturns503(t *testing.T) {
	sched := newT(t, Config{Workers: 1})
	ts := httptest.NewServer(NewServer(sched))
	defer ts.Close()
	drainT(t, sched)

	resp, _ := postJob(t, ts, `{"kind":"estimate"}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining = %d, want 503", resp.StatusCode)
	}
	var health map[string]string
	if code := getJSON(t, ts, "/healthz", &health); code != http.StatusOK || health["status"] != "draining" {
		t.Fatalf("health while draining = %d %+v", code, health)
	}
}

// TestHTTPGridProtocol drives the full work-stealing grid flow over
// HTTP: submit, lease, complete (with a duplicate and a conflict), and
// fetch the merged result — which must be byte-identical to the
// single-process JSONL.
func TestHTTPGridProtocol(t *testing.T) {
	sched := newT(t, Config{Workers: 1, LeaseTTL: 30 * time.Second})
	defer drainT(t, sched)
	ts := httptest.NewServer(NewServer(sched))
	defer ts.Close()

	g, err := sweep.GridSpec{
		Kind: sweep.GridThreshold, Ds: []int{3}, Ps: []float64{0.01, 0.03}, Trials: 8, Seed: 3,
	}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	specRaw, err := json.Marshal(g)
	if err != nil {
		t.Fatal(err)
	}

	// Submit; resubmission returns 200 with the same id.
	resp, err := http.Post(ts.URL+"/grids", "application/json", bytes.NewReader(specRaw))
	if err != nil {
		t.Fatal(err)
	}
	var created GridCreateResponse
	_ = json.NewDecoder(resp.Body).Decode(&created)
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusCreated || created.Cells != 2 {
		t.Fatalf("create = %d %+v", resp.StatusCode, created)
	}
	resp, err = http.Post(ts.URL+"/grids", "application/json", bytes.NewReader(specRaw))
	if err != nil {
		t.Fatal(err)
	}
	var again GridCreateResponse
	_ = json.NewDecoder(resp.Body).Decode(&again)
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusOK || again.ID != created.ID {
		t.Fatalf("re-create = %d %+v", resp.StatusCode, again)
	}

	// Lease everything.
	resp, err = http.Post(ts.URL+"/grids/"+created.ID+"/lease", "application/json",
		strings.NewReader(`{"worker":"w1","max":8}`))
	if err != nil {
		t.Fatal(err)
	}
	var leased LeaseResponse
	_ = json.NewDecoder(resp.Body).Decode(&leased)
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusOK || len(leased.Cells) != 2 {
		t.Fatalf("lease = %d %+v", resp.StatusCode, leased)
	}

	// Renew one; a stranger renewing gets a conflict.
	resp, err = http.Post(ts.URL+"/grids/"+created.ID+"/cells/0/renew", "application/json",
		strings.NewReader(`{"worker":"w1"}`))
	if err != nil {
		t.Fatal(err)
	}
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("renew = %d", resp.StatusCode)
	}
	resp, err = http.Post(ts.URL+"/grids/"+created.ID+"/cells/0/renew", "application/json",
		strings.NewReader(`{"worker":"w2"}`))
	if err != nil {
		t.Fatal(err)
	}
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("foreign renew = %d, want 409", resp.StatusCode)
	}

	// Result while incomplete: 409.
	resp, err = http.Get(ts.URL + "/grids/" + created.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("incomplete result = %d, want 409", resp.StatusCode)
	}

	// Complete both cells for real; re-push cell 0 (idempotent) and a
	// corrupted variant (409).
	results := make([]sweep.CellResult, g.NumCells())
	for i := 0; i < g.NumCells(); i++ {
		r, _, err := sweep.RunGridCell(context.Background(), g, g.Cell(i), nil)
		if err != nil {
			t.Fatal(err)
		}
		results[i] = r
		raw, err := sweep.MarshalCell(r)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(fmt.Sprintf("%s/grids/%s/cells/%d", ts.URL, created.ID, i),
			"application/json", bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		_ = resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("complete cell %d = %d", i, resp.StatusCode)
		}
	}
	dupRaw, err := sweep.MarshalCell(results[0])
	if err != nil {
		t.Fatal(err)
	}
	resp, err = http.Post(ts.URL+"/grids/"+created.ID+"/cells/0", "application/json", bytes.NewReader(dupRaw))
	if err != nil {
		t.Fatal(err)
	}
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("idempotent re-complete = %d, want 200", resp.StatusCode)
	}
	bad := results[0]
	bad.Rate += 0.5
	badRaw, err := sweep.MarshalCell(bad)
	if err != nil {
		t.Fatal(err)
	}
	resp, err = http.Post(ts.URL+"/grids/"+created.ID+"/cells/0", "application/json", bytes.NewReader(badRaw))
	if err != nil {
		t.Fatal(err)
	}
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("conflicting re-complete = %d, want 409", resp.StatusCode)
	}

	// Fetch: byte-identical to the single-process JSONL.
	resp, err = http.Get(ts.URL + "/grids/" + created.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("result = %d err %v", resp.StatusCode, err)
	}
	var want bytes.Buffer
	if err := sweep.WriteGridJSONL(&want, g, results); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Errorf("HTTP result differs from single-process bytes:\ngot  %q\nwant %q", got, want.Bytes())
	}

	// Listing shows the finished grid.
	var grids []GridStatus
	if code := getJSON(t, ts, "/grids", &grids); code != http.StatusOK || len(grids) != 1 || !grids[0].Done {
		t.Errorf("grid list = %d %+v", code, grids)
	}
}
