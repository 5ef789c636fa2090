package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"time"

	"xqsim/internal/core"
	"xqsim/internal/store"
	"xqsim/internal/sweep"
	"xqsim/internal/xrand"
)

// Config tunes the scheduler. The zero value of each field selects a
// sane default (see New).
type Config struct {
	// DataDir holds the durable state: the result store (results.log)
	// and per-job sweep checkpoints.
	DataDir string
	// Workers bounds concurrent job execution.
	Workers int
	// QueueDepth bounds admitted-but-unfinished submissions; past it,
	// Submit sheds load (ErrOverloaded -> HTTP 429).
	QueueDepth int
	// MaxRetries bounds re-executions of a transiently-failed job.
	MaxRetries int
	// RetryBase is the backoff base: attempt k waits RetryBase<<k plus
	// deterministic jitter.
	RetryBase time.Duration
	// JobTimeout is the per-job watchdog (0 = none). A timed-out job
	// counts as transient and is retried.
	JobTimeout time.Duration
	// ShotTimeout is passed through to the simulation's per-shot
	// watchdog (0 = none).
	ShotTimeout time.Duration
	// LeaseTTL is the grid work-stealing lease lifetime (0 selects
	// DefaultLeaseTTL). A worker that stops renewing for this long has
	// its cells re-leased to other workers.
	LeaseTTL time.Duration
}

// ErrOverloaded is returned by Submit when the bounded queue is full;
// the HTTP layer maps it to 429 + Retry-After.
var ErrOverloaded = errors.New("server: queue full, try again later")

// ErrDraining is returned by Submit once Drain has begun.
var ErrDraining = errors.New("server: draining, not accepting jobs")

// ErrTransient marks an error worth retrying; test hooks and future
// executors wrap it to opt into the retry path.
var ErrTransient = errors.New("transient failure")

// Job statuses reported by JobInfo.
const (
	StatusQueued  = "queued"
	StatusRunning = "running"
	StatusDone    = "done"
	StatusFailed  = "failed"
	// StatusPending marks a job interrupted by drain: its submission
	// record is durable and a restarted daemon re-runs it (sweeps from
	// their checkpoint).
	StatusPending = "pending"
)

// SubmitStatus tells the HTTP layer how a submission was disposed.
type SubmitStatus int

const (
	// SubmitAccepted: the job was admitted and will run.
	SubmitAccepted SubmitStatus = iota
	// SubmitDuplicate: an identical job is already queued or running.
	SubmitDuplicate
	// SubmitCached: the job already completed; the durable outcome is
	// served without re-simulation.
	SubmitCached
)

// JobInfo is a point-in-time public snapshot of one job.
type JobInfo struct {
	ID       string `json:"id"`
	Kind     string `json:"kind"`
	Status   string `json:"status"`
	Attempts int    `json:"attempts"`
	// Progress/Total count completed experiments for sweep jobs.
	Progress int    `json:"progress,omitempty"`
	Total    int    `json:"total,omitempty"`
	Error    string `json:"error,omitempty"`
}

type jobState struct {
	hash     string
	spec     JobSpec
	status   string
	attempts int
	progress int
	errText  string
	// metered records whether this job occupies an admission slot
	// (resumed jobs don't: they were admitted in a previous life).
	metered bool
}

// Scheduler runs jobs on a bounded worker pool with durable outcomes.
type Scheduler struct {
	cfg   Config
	st    *store.Store
	grids *GridCoordinator

	mu       sync.Mutex
	jobs     map[string]*jobState
	inflight int   // admitted-but-unfinished (metered) jobs, at most cfg.QueueDepth
	shed     int64 // submissions refused with ErrOverloaded
	draining bool
	queue    chan *jobState
	retries  sync.WaitGroup // in-flight time.AfterFunc retry timers

	workers  sync.WaitGroup
	jobsCtx  context.Context
	jobsStop context.CancelFunc
}

// Test hooks. runHook replaces job execution entirely; expHook runs
// after each completed sweep experiment (used to park a job at a known
// point, or to crash deterministically mid-sweep).
var (
	runHook func(ctx context.Context, spec JobSpec, attempt int) (json.RawMessage, error)
	expHook func(hash, experiment string)
)

// New opens the durable store under cfg.DataDir, resumes every job that
// was admitted but never finished, and starts the worker pool.
func New(cfg Config) (*Scheduler, error) {
	if cfg.Workers <= 0 {
		cfg.Workers = 2
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 16
	}
	if cfg.MaxRetries < 0 {
		cfg.MaxRetries = 0
	}
	if cfg.RetryBase <= 0 {
		cfg.RetryBase = 100 * time.Millisecond
	}
	if err := os.MkdirAll(cfg.DataDir, 0o755); err != nil {
		return nil, fmt.Errorf("server: data dir: %w", err)
	}
	st, err := store.Open(filepath.Join(cfg.DataDir, "results.log"))
	if err != nil {
		return nil, err
	}

	s := &Scheduler{
		cfg:   cfg,
		st:    st,
		grids: NewGridCoordinator(st, cfg.LeaseTTL),
		jobs:  make(map[string]*jobState),
	}
	s.jobsCtx, s.jobsStop = context.WithCancel(context.Background())

	resumed := s.resumable()
	// The queue never blocks a sender: every admitted job (bounded by
	// QueueDepth), every resumed job, and every retry re-enqueue has a
	// slot.
	s.queue = make(chan *jobState, cfg.QueueDepth+len(resumed)+1)
	for _, js := range resumed {
		s.jobs[js.hash] = js
		s.queue <- js
	}

	s.workers.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go func() {
			defer s.workers.Done()
			for js := range s.queue {
				s.execute(js)
			}
		}()
	}
	return s, nil
}

// resumable returns the jobs with a durable submission record but no
// outcome: exactly the set a crash or drain left unfinished.
func (s *Scheduler) resumable() []*jobState {
	var out []*jobState
	for _, key := range s.st.Keys() {
		if len(key) < 5 || key[:4] != "job/" {
			continue
		}
		hash := key[4:]
		if s.st.Has("done/" + hash) {
			continue
		}
		raw, ok, err := s.st.Get(key)
		if err != nil || !ok {
			continue
		}
		var spec JobSpec
		if err := json.Unmarshal(raw, &spec); err != nil {
			continue
		}
		out = append(out, &jobState{hash: hash, spec: spec, status: StatusQueued})
	}
	// Deterministic resume order (Keys is sorted, but keep it explicit).
	sort.Slice(out, func(i, j int) bool { return out[i].hash < out[j].hash })
	return out
}

// Submit admits one job. The spec is normalized and content-hashed:
// finished work is served from the durable cache (SubmitCached),
// identical in-flight work is coalesced (SubmitDuplicate), and when the
// bounded queue is full the job is shed with ErrOverloaded.
func (s *Scheduler) Submit(spec JobSpec) (string, SubmitStatus, error) {
	norm, err := spec.Normalize()
	if err != nil {
		return "", 0, err
	}
	hash := norm.Hash()

	if s.st.Has("done/" + hash) {
		return hash, SubmitCached, nil
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return "", 0, ErrDraining
	}
	if js, ok := s.jobs[hash]; ok && js.status != StatusFailed {
		return hash, SubmitDuplicate, nil
	}
	// Admission control: at most QueueDepth admitted-but-unfinished
	// submissions, so the queue send below always has a free slot.
	if s.inflight >= s.cfg.QueueDepth {
		s.shed++
		return "", 0, ErrOverloaded
	}

	raw, err := json.Marshal(norm)
	if err != nil {
		return "", 0, err
	}
	// Durable before acknowledged: a daemon killed right after Submit
	// returns still knows about the job.
	if err := s.st.Put("job/"+hash, raw); err != nil {
		return "", 0, err
	}

	js := &jobState{hash: hash, spec: norm, status: StatusQueued, metered: true}
	s.jobs[hash] = js
	s.inflight++
	s.queue <- js
	return hash, SubmitAccepted, nil
}

// execute runs one job attempt end to end, handling watchdog timeout,
// panic recovery, retry scheduling, and drain interruption.
func (s *Scheduler) execute(js *jobState) {
	s.mu.Lock()
	if s.draining {
		// Drained before starting: stays durable, resumes next start.
		js.status = StatusPending
		s.mu.Unlock()
		return
	}
	js.status = StatusRunning
	js.attempts++
	attempt := js.attempts
	s.mu.Unlock()

	ctx := s.jobsCtx
	cancel := context.CancelFunc(func() {})
	if s.cfg.JobTimeout > 0 {
		ctx, cancel = context.WithTimeout(ctx, s.cfg.JobTimeout)
	}
	result, err := s.runJob(ctx, js, attempt)
	cancel()

	if err == nil {
		s.finish(js, Outcome{OK: true, Attempts: attempt, Result: result})
		return
	}

	if errors.Is(err, context.Canceled) {
		s.mu.Lock()
		draining := s.draining
		s.mu.Unlock()
		if draining {
			// Interrupted by drain: no outcome recorded, the durable
			// submission (and any sweep checkpoint) carries it across
			// the restart.
			s.mu.Lock()
			js.status = StatusPending
			s.mu.Unlock()
			return
		}
	}

	transient := errors.Is(err, context.DeadlineExceeded) || errors.Is(err, ErrTransient)
	if transient && attempt <= s.cfg.MaxRetries {
		s.scheduleRetry(js, attempt, err)
		return
	}
	s.finish(js, Outcome{OK: false, Attempts: attempt, Error: err.Error()})
}

// scheduleRetry re-enqueues the job after an exponential backoff with
// deterministic jitter (a pure function of job hash and attempt, so a
// retry schedule replays bit-for-bit).
func (s *Scheduler) scheduleRetry(js *jobState, attempt int, cause error) {
	backoff := s.cfg.RetryBase << uint(attempt-1)
	jitter := time.Duration(retryJitter(js.hash, attempt, int64(s.cfg.RetryBase)))
	delay := backoff + jitter

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		js.status = StatusPending
		return
	}
	js.status = StatusQueued
	js.errText = fmt.Sprintf("attempt %d: %v (retrying)", attempt, cause)
	s.retries.Add(1)
	time.AfterFunc(delay, func() {
		defer s.retries.Done()
		s.mu.Lock()
		defer s.mu.Unlock()
		if s.draining {
			js.status = StatusPending
			return
		}
		s.queue <- js
	})
}

// retryJitter derives a deterministic jitter in [0, base) from the job
// identity and attempt number.
func retryJitter(hash string, attempt int, base int64) int64 {
	if base <= 0 {
		return 0
	}
	h, err := strconv.ParseUint(hash, 16, 64)
	if err != nil {
		h = uint64(len(hash))
	}
	r := xrand.New(xrand.Mix(int64(h), uint64(attempt)))
	return r.Int63n(base)
}

// finish records the job's durable outcome and releases its admission
// slot. The outcome write is fsynced before the status flips, so a
// crash can lose at worst the *announcement* of a result, never a
// result that was announced.
func (s *Scheduler) finish(js *jobState, out Outcome) {
	raw, err := json.Marshal(out)
	if err == nil {
		err = s.st.Put("done/"+js.hash, raw)
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if err != nil {
		// The outcome could not be made durable (store closed during
		// drain, disk error). Leave the job pending: the durable
		// submission record re-runs it next start.
		js.status = StatusPending
		js.errText = err.Error()
		return
	}
	if out.OK {
		js.status = StatusDone
		js.errText = ""
	} else {
		js.status = StatusFailed
		js.errText = out.Error
	}
	js.attempts = out.Attempts
	if js.metered {
		js.metered = false
		s.inflight--
	}
}

// runJob dispatches one attempt, converting panics into errors that
// name the replay seed.
func (s *Scheduler) runJob(ctx context.Context, js *jobState, attempt int) (result json.RawMessage, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("job %s panicked: %v (replay: kind=%s seed=%d attempt=%d)",
				js.hash, r, js.spec.Kind, js.spec.Seed, attempt)
		}
	}()
	if runHook != nil {
		return runHook(ctx, js.spec, attempt)
	}
	switch js.spec.Kind {
	case "simulate":
		return executeSimulate(ctx, js.spec, core.RunOptions{ShotTimeout: s.cfg.ShotTimeout})
	case "estimate":
		return executeEstimate(js.spec)
	case "sweep":
		return s.runSweep(ctx, js)
	}
	return nil, fmt.Errorf("unknown job kind %q", js.spec.Kind)
}

// runSweep executes a sweep job experiment by experiment, checkpointing
// after each one. A drained or crashed daemon resumes from the
// checkpoint; because every experiment is deterministic in (id, seed,
// shots) and the payload encoding is canonical, the merged result is
// bit-identical to an uninterrupted run.
func (s *Scheduler) runSweep(ctx context.Context, js *jobState) (json.RawMessage, error) {
	spec := js.spec
	ckPath := filepath.Join(s.cfg.DataDir, "ck-"+js.hash+".json")
	// An unreadable checkpoint only costs the work it held: start fresh.
	ck, _, _ := sweep.Resume(ckPath, sweep.NewCheckpoint(spec.Seed, spec.Shots))

	opts := sweep.ExperimentOptions{Shots: spec.Shots, Seed: spec.Seed}
	for i, id := range spec.Experiments {
		_, cached, err := ck.Experiment(ctx, ckPath, id, opts)
		if err != nil {
			return nil, err
		}
		s.mu.Lock()
		js.progress = i + 1
		s.mu.Unlock()
		if cached {
			continue
		}
		if expHook != nil {
			expHook(js.hash, id)
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}

	// Canonical payload: the pinned JSONL value of each experiment, in
	// the spec's (sorted) order, as one JSON array.
	out := []byte("[")
	for i, id := range spec.Experiments {
		v, err := sweep.JSONValue(ck.Results[id])
		if err != nil {
			return nil, err
		}
		if i > 0 {
			out = append(out, ',')
		}
		out = append(out, v...)
	}
	out = append(out, ']')

	// The outcome is about to become durable; the checkpoint has served
	// its purpose. Removal is best-effort — a leftover is only disk.
	_ = os.Remove(ckPath)
	return out, nil
}

// Job returns a snapshot of one job, consulting the durable store for
// outcomes this process never ran.
func (s *Scheduler) Job(hash string) (JobInfo, bool) {
	s.mu.Lock()
	js, ok := s.jobs[hash]
	if ok {
		info := s.infoLocked(js)
		s.mu.Unlock()
		return info, true
	}
	s.mu.Unlock()

	raw, ok, err := s.st.Get("done/" + hash)
	if err != nil || !ok {
		return JobInfo{}, false
	}
	var out Outcome
	if err := json.Unmarshal(raw, &out); err != nil {
		return JobInfo{}, false
	}
	info := JobInfo{ID: hash, Status: StatusDone, Attempts: out.Attempts, Error: out.Error, Kind: s.jobKind(hash)}
	if !out.OK {
		info.Status = StatusFailed
	}
	return info, true
}

func (s *Scheduler) jobKind(hash string) string {
	raw, ok, err := s.st.Get("job/" + hash)
	if err != nil || !ok {
		return ""
	}
	var spec JobSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		return ""
	}
	return spec.Kind
}

func (s *Scheduler) infoLocked(js *jobState) JobInfo {
	info := JobInfo{
		ID:       js.hash,
		Kind:     js.spec.Kind,
		Status:   js.status,
		Attempts: js.attempts,
		Error:    js.errText,
	}
	if js.spec.Kind == "sweep" {
		info.Progress = js.progress
		info.Total = len(js.spec.Experiments)
	}
	return info
}

// Jobs lists every job this process knows in hash order.
func (s *Scheduler) Jobs() []JobInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]JobInfo, 0, len(s.jobs))
	for _, js := range s.jobs {
		out = append(out, s.infoLocked(js))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Result returns a finished job's durable outcome. The Result bytes are
// served verbatim from the store, so repeated reads (and reads across
// restarts) are bit-for-bit identical.
func (s *Scheduler) Result(hash string) (Outcome, bool) {
	raw, ok, err := s.st.Get("done/" + hash)
	if err != nil || !ok {
		return Outcome{}, false
	}
	var out Outcome
	if err := json.Unmarshal(raw, &out); err != nil {
		return Outcome{}, false
	}
	return out, true
}

// Stats reports scheduler-level counters for /stats.
type Stats struct {
	Queued             int   `json:"queued"`
	Running            int   `json:"running"`
	Done               int   `json:"done"`
	Failed             int   `json:"failed"`
	Pending            int   `json:"pending"`
	Shed               int64 `json:"shed"` // submissions refused with ErrOverloaded
	StoreKeys          int   `json:"store_keys"`
	StoreRecoveredByte int64 `json:"store_recovered_bytes"`
}

// Stats snapshots the scheduler counters.
func (s *Scheduler) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := Stats{
		Shed:               s.shed,
		StoreKeys:          s.st.Len(),
		StoreRecoveredByte: s.st.RecoveredBytes(),
	}
	for _, js := range s.jobs {
		switch js.status {
		case StatusQueued:
			st.Queued++
		case StatusRunning:
			st.Running++
		case StatusDone:
			st.Done++
		case StatusFailed:
			st.Failed++
		case StatusPending:
			st.Pending++
		}
	}
	return st
}

// Grids returns the work-stealing grid coordinator sharing this
// scheduler's durable store.
func (s *Scheduler) Grids() *GridCoordinator { return s.grids }

// Draining reports whether Drain has begun.
func (s *Scheduler) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Drain stops admission, cancels running jobs (their sweep checkpoints
// persist), waits for the workers — bounded by ctx — and closes the
// store. After Drain, every unfinished job is durably pending and a
// restarted scheduler resumes it.
func (s *Scheduler) Drain(ctx context.Context) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return nil
	}
	s.draining = true
	close(s.queue)
	s.mu.Unlock()

	s.jobsStop()

	done := make(chan struct{})
	go func() {
		s.workers.Wait()
		s.retries.Wait()
		close(done)
	}()
	var waitErr error
	select {
	case <-done:
	case <-ctx.Done():
		waitErr = fmt.Errorf("server: drain timed out: %w", ctx.Err())
	}

	if err := s.st.Close(); err != nil && waitErr == nil {
		waitErr = err
	}
	return waitErr
}
