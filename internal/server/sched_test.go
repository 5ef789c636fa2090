package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"xqsim/internal/config"
	"xqsim/internal/core"
	"xqsim/internal/decoder"
	"xqsim/internal/store"
)

// The tests share the package-level run/exp hooks, so none of them run
// in parallel; each test restores the hooks it sets.

func newT(t *testing.T, cfg Config) *Scheduler {
	t.Helper()
	if cfg.DataDir == "" {
		cfg.DataDir = t.TempDir()
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func drainT(t *testing.T, s *Scheduler) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
}

// waitStatus polls until the job reaches the wanted status.
func waitStatus(t *testing.T, s *Scheduler, hash, want string) JobInfo {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if info, ok := s.Job(hash); ok && info.Status == want {
			return info
		}
		time.Sleep(2 * time.Millisecond)
	}
	info, _ := s.Job(hash)
	t.Fatalf("job %s never reached %q (last: %+v)", hash, want, info)
	return JobInfo{}
}

func TestSubmitRunsJobAndServesResult(t *testing.T) {
	s := newT(t, Config{Workers: 2})
	defer drainT(t, s)

	hash, st, err := s.Submit(JobSpec{Kind: "estimate", Tech: "rsfq", NPhys: 1000, D: 5})
	if err != nil || st != SubmitAccepted {
		t.Fatalf("Submit = %v, %v", st, err)
	}
	waitStatus(t, s, hash, StatusDone)

	out, ok := s.Result(hash)
	if !ok || !out.OK {
		t.Fatalf("Result = %+v, ok=%v", out, ok)
	}
	var payload struct {
		Tech  string `json:"tech"`
		Units []struct {
			Unit string `json:"unit"`
		} `json:"units"`
		TotalW float64 `json:"total_w"`
	}
	if err := json.Unmarshal(out.Result, &payload); err != nil {
		t.Fatalf("result payload: %v", err)
	}
	if payload.Tech != "rsfq" || len(payload.Units) != 8 || payload.TotalW <= 0 {
		t.Fatalf("unexpected payload %+v", payload)
	}
}

// TestLegacyRateRecordsAreNeverServed: a data dir written by an older
// xqd holds rates/... records. The scheduler never reads them: a sweep
// measures its rates afresh, so a record from another model cannot
// reach a result or the process-wide rate memo.
func TestLegacyRateRecordsAreNeverServed(t *testing.T) {
	const seed = 2121 // measured by no other test in the package
	d, p := config.CodeDistance, config.PhysErrorRate
	sentinel := core.Rates{BitsPerQubitPerRound: 123.5, SyndromesPerQubitPerWindow: 1, MatchesPerSyndrome: 1, AvgMatchSteps: 1000}
	dir := t.TempDir()
	st, err := store.Open(filepath.Join(dir, "results.log"))
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(sentinel)
	if err != nil {
		t.Fatal(err)
	}
	key := fmt.Sprintf("rates/d=%d,p=%g,scheme=%d,seed=%d", d, p, int(decoder.SchemeRoundRobin), seed)
	if err := st.Put(key, raw); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	s := newT(t, Config{Workers: 1, DataDir: dir})
	defer drainT(t, s)
	hash, _, err := s.Submit(JobSpec{Kind: "sweep", Experiments: []string{"fig14"}, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	waitStatus(t, s, hash, StatusDone)
	out, ok := s.Result(hash)
	if !ok || !out.OK {
		t.Fatalf("Result = %+v, ok=%v", out, ok)
	}

	fresh := core.MeasureRatesUncached(d, p, decoder.SchemeRoundRobin, seed)
	if got := core.MeasureRates(d, p, decoder.SchemeRoundRobin, seed); got != fresh {
		t.Fatalf("the memo holds %+v for %s, want a fresh measurement %+v", got, key, fresh)
	}
	var payload []struct {
		Anchors map[string]struct {
			Measured float64 `json:"measured"`
		} `json:"anchors"`
	}
	if err := json.Unmarshal(out.Result, &payload); err != nil || len(payload) != 1 {
		t.Fatalf("payload %s: %v", out.Result, err)
	}
	decodeOK := func(r core.Report) bool { return r.DecodeOK }
	base := core.CurrentSystem(d, false)
	got := payload[0].Anchors["decode limit baseline"].Measured
	stale, want := float64(base.ConstraintLimit(sentinel, decodeOK)), float64(base.ConstraintLimit(fresh, decodeOK))
	if stale == want {
		t.Fatalf("the sentinel's decode limit %v equals the measured one; pick another sentinel", stale)
	}
	if got != want {
		t.Fatalf("round-robin decode limit %v, want %v from fresh rates (the legacy record gives %v)", got, want, stale)
	}
}

func TestSimulateJobReportsDistribution(t *testing.T) {
	s := newT(t, Config{Workers: 1})
	defer drainT(t, s)

	hash, st, err := s.Submit(JobSpec{Kind: "simulate", Workload: "ppr", D: 3, Shots: 16, Seed: 7})
	if err != nil || st != SubmitAccepted {
		t.Fatalf("Submit = %v, %v", st, err)
	}
	waitStatus(t, s, hash, StatusDone)
	out, _ := s.Result(hash)
	var payload struct {
		Distribution []float64 `json:"distribution"`
		ESMRounds    int       `json:"esm_rounds"`
	}
	if err := json.Unmarshal(out.Result, &payload); err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, p := range payload.Distribution {
		sum += p
	}
	if sum < 0.999 || sum > 1.001 || payload.ESMRounds == 0 {
		t.Fatalf("distribution sums to %v, esm_rounds=%d", sum, payload.ESMRounds)
	}
}

func TestIdempotentDuplicateServedFromCache(t *testing.T) {
	dir := t.TempDir()
	s := newT(t, Config{DataDir: dir, Workers: 1})

	spec := JobSpec{Kind: "estimate", Tech: "ersfq", NPhys: 2000, D: 5}
	hash, _, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitStatus(t, s, hash, StatusDone)
	first, _ := s.Result(hash)

	// Same work resubmitted: served from the durable cache, not re-run.
	h2, st, err := s.Submit(spec)
	if err != nil || st != SubmitCached || h2 != hash {
		t.Fatalf("resubmit = %s, %v, %v; want cached %s", h2, st, err, hash)
	}
	drainT(t, s)

	// Across a restart the cache is still durable — and byte-stable.
	s2 := newT(t, Config{DataDir: dir, Workers: 1})
	defer drainT(t, s2)
	h3, st, err := s2.Submit(spec)
	if err != nil || st != SubmitCached || h3 != hash {
		t.Fatalf("post-restart resubmit = %s, %v, %v", h3, st, err)
	}
	second, ok := s2.Result(hash)
	if !ok || !bytes.Equal(first.Result, second.Result) {
		t.Fatalf("cached result changed across restart:\n%s\n%s", first.Result, second.Result)
	}
}

func TestNormalizationCoalescesEquivalentSpecs(t *testing.T) {
	a, err := JobSpec{Kind: "sweep", Experiments: []string{"10", "t4", "fig10"}}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	b, err := JobSpec{Kind: "sweep", Experiments: []string{"table4", "fig10"}, Shots: 512, Seed: 1}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if a.Hash() != b.Hash() {
		t.Fatalf("equivalent sweep specs hash differently: %s vs %s\n%+v\n%+v", a.Hash(), b.Hash(), a, b)
	}
	if _, err := (JobSpec{Kind: "sweep", Experiments: []string{"fig99"}}).Normalize(); err == nil {
		t.Fatal("unknown experiment accepted")
	}
	if _, err := (JobSpec{Kind: "mine-bitcoin"}).Normalize(); err == nil {
		t.Fatal("unknown kind accepted")
	}
}

func TestOverloadSheds(t *testing.T) {
	block := make(chan struct{})
	runHook = func(ctx context.Context, spec JobSpec, attempt int) (json.RawMessage, error) {
		<-block
		return json.RawMessage(`{}`), nil
	}
	defer func() { runHook = nil }()

	s := newT(t, Config{Workers: 1, QueueDepth: 2})

	specs := []JobSpec{
		{Kind: "estimate", Tech: "rsfq", NPhys: 100, D: 3},
		{Kind: "estimate", Tech: "rsfq", NPhys: 200, D: 3},
		{Kind: "estimate", Tech: "rsfq", NPhys: 300, D: 3},
	}
	if _, st, err := s.Submit(specs[0]); err != nil || st != SubmitAccepted {
		t.Fatalf("job 1: %v, %v", st, err)
	}
	if _, st, err := s.Submit(specs[1]); err != nil || st != SubmitAccepted {
		t.Fatalf("job 2: %v, %v", st, err)
	}
	// Queue full (2 admitted, capacity 2): the third submission sheds,
	// and so does every further distinct one while both jobs are still
	// blocked -- a shed must not free a slot that is in use. Each Submit
	// must also return promptly: an over-admitted job would block Submit
	// on the full queue while it holds the scheduler lock.
	for i := 2; i < 9; i++ {
		spec := JobSpec{Kind: "estimate", Tech: "rsfq", NPhys: 100 * (i + 1), D: 3}
		done := make(chan error, 1)
		go func() {
			_, _, err := s.Submit(spec)
			done <- err
		}()
		select {
		case err := <-done:
			if !errors.Is(err, ErrOverloaded) {
				t.Fatalf("job %d err = %v, want ErrOverloaded", i+1, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("job %d: Submit still blocked after 5s", i+1)
		}
	}
	if shed := s.Stats().Shed; shed != 7 {
		t.Fatalf("Stats.Shed = %d, want 7", shed)
	}

	// Finishing a job frees its slot: the shed job is admitted now.
	close(block)
	h1, _, _ := s.Submit(specs[0]) // duplicate, just to learn the hash
	waitStatus(t, s, h1, StatusDone)
	if _, st, err := s.Submit(specs[2]); err != nil || st != SubmitAccepted {
		t.Fatalf("job 3 after free slot: %v, %v", st, err)
	}
	drainT(t, s)
}

func TestTransientFailureRetriesWithBackoff(t *testing.T) {
	var mu sync.Mutex
	var attempts []int
	runHook = func(ctx context.Context, spec JobSpec, attempt int) (json.RawMessage, error) {
		mu.Lock()
		attempts = append(attempts, attempt)
		mu.Unlock()
		if attempt < 3 {
			return nil, fmt.Errorf("flaky backend: %w", ErrTransient)
		}
		return json.RawMessage(`{"ok":true}`), nil
	}
	defer func() { runHook = nil }()

	s := newT(t, Config{Workers: 1, MaxRetries: 3, RetryBase: time.Millisecond})
	defer drainT(t, s)
	hash, _, err := s.Submit(JobSpec{Kind: "simulate", Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	info := waitStatus(t, s, hash, StatusDone)
	if info.Attempts != 3 {
		t.Fatalf("Attempts = %d, want 3", info.Attempts)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(attempts) != 3 {
		t.Fatalf("hook ran %d times, want 3: %v", len(attempts), attempts)
	}
}

func TestPermanentFailureDoesNotRetry(t *testing.T) {
	var mu sync.Mutex
	runs := 0
	runHook = func(ctx context.Context, spec JobSpec, attempt int) (json.RawMessage, error) {
		mu.Lock()
		runs++
		mu.Unlock()
		return nil, errors.New("deterministic bug")
	}
	defer func() { runHook = nil }()

	s := newT(t, Config{Workers: 1, MaxRetries: 5, RetryBase: time.Millisecond})
	defer drainT(t, s)
	hash, _, err := s.Submit(JobSpec{Kind: "simulate", Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	info := waitStatus(t, s, hash, StatusFailed)
	if info.Attempts != 1 {
		t.Fatalf("Attempts = %d, want 1 (no retry for permanent errors)", info.Attempts)
	}
	mu.Lock()
	defer mu.Unlock()
	if runs != 1 {
		t.Fatalf("hook ran %d times, want 1", runs)
	}
}

func TestWatchdogTimeoutIsTransient(t *testing.T) {
	runHook = func(ctx context.Context, spec JobSpec, attempt int) (json.RawMessage, error) {
		if attempt >= 2 {
			return json.RawMessage(`{}`), nil
		}
		<-ctx.Done() // hang until the per-job watchdog fires
		return nil, ctx.Err()
	}
	defer func() { runHook = nil }()

	s := newT(t, Config{Workers: 1, MaxRetries: 2, RetryBase: time.Millisecond, JobTimeout: 20 * time.Millisecond})
	defer drainT(t, s)
	hash, _, err := s.Submit(JobSpec{Kind: "simulate", Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	info := waitStatus(t, s, hash, StatusDone)
	if info.Attempts != 2 {
		t.Fatalf("Attempts = %d, want 2 (timeout then success)", info.Attempts)
	}
}

func TestPanicRecoveredNamingReplaySeed(t *testing.T) {
	runHook = func(ctx context.Context, spec JobSpec, attempt int) (json.RawMessage, error) {
		panic("boom")
	}
	defer func() { runHook = nil }()

	s := newT(t, Config{Workers: 1})
	defer drainT(t, s)
	hash, _, err := s.Submit(JobSpec{Kind: "simulate", Seed: 424242})
	if err != nil {
		t.Fatal(err)
	}
	info := waitStatus(t, s, hash, StatusFailed)
	for _, want := range []string{"panicked", "boom", "seed=424242"} {
		if !contains(info.Error, want) {
			t.Fatalf("failure %q does not mention %q", info.Error, want)
		}
	}
}

func contains(s, sub string) bool { return bytes.Contains([]byte(s), []byte(sub)) }

// TestDrainCheckpointsSweepAndResumeIsBitIdentical is the tentpole
// durability pin: a sweep interrupted by drain resumes from its
// checkpoint in a fresh process, and the merged result is bit-for-bit
// identical to a never-interrupted run of the same spec.
func TestDrainCheckpointsSweepAndResumeIsBitIdentical(t *testing.T) {
	spec := JobSpec{Kind: "sweep", Experiments: []string{"fig10", "fig12", "t4"}, Seed: 1}

	// Reference: uninterrupted run in its own data dir.
	ref := newT(t, Config{Workers: 1})
	refHash, _, err := ref.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitStatus(t, ref, refHash, StatusDone)
	refOut, _ := ref.Result(refHash)
	drainT(t, ref)

	// Interrupted run: park the worker after the first experiment, then
	// drain while it is parked.
	dir := t.TempDir()
	var once sync.Once
	parked := make(chan struct{})
	release := make(chan struct{})
	expHook = func(hash, id string) {
		once.Do(func() {
			close(parked)
			<-release
		})
	}
	s := newT(t, Config{DataDir: dir, Workers: 1})
	hash, _, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if hash != refHash {
		t.Fatalf("same spec hashed differently: %s vs %s", hash, refHash)
	}
	<-parked

	drainErr := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		drainErr <- s.Drain(ctx)
	}()
	// Release the parked worker only after the drain has cancelled the
	// job context, so the sweep deterministically stops after its first
	// completed experiment.
	for s.jobsCtx.Err() == nil {
		time.Sleep(time.Millisecond)
	}
	close(release)
	if err := <-drainErr; err != nil {
		t.Fatalf("drain: %v", err)
	}
	expHook = nil

	if info, ok := s.Job(hash); !ok || info.Status != StatusPending {
		t.Fatalf("drained job = %+v, want pending", info)
	}
	if _, ok := s.Result(hash); ok {
		t.Fatal("interrupted sweep must not have a durable outcome yet")
	}

	// Restart: the job resumes from its checkpoint and completes.
	s2 := newT(t, Config{DataDir: dir, Workers: 1})
	defer drainT(t, s2)
	info := waitStatus(t, s2, hash, StatusDone)
	if info.Attempts == 0 {
		// Attempts restart from 1 in the new process; just sanity-check.
		t.Fatalf("resumed job reported no attempts: %+v", info)
	}
	resOut, ok := s2.Result(hash)
	if !ok {
		t.Fatal("resumed job has no result")
	}
	if !bytes.Equal(refOut.Result, resOut.Result) {
		t.Fatalf("resumed sweep differs from uninterrupted run:\n%s\n%s", refOut.Result, resOut.Result)
	}
}

func TestDrainRejectsNewSubmissions(t *testing.T) {
	s := newT(t, Config{Workers: 1})
	drainT(t, s)
	if _, _, err := s.Submit(JobSpec{Kind: "estimate"}); !errors.Is(err, ErrDraining) {
		t.Fatalf("Submit after drain = %v, want ErrDraining", err)
	}
}
