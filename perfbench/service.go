package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"xqsim/internal/compiler"
	"xqsim/internal/core"
	"xqsim/internal/ftqc"
	"xqsim/internal/server"
	"xqsim/internal/statevec"
	"xqsim/internal/store"
)

const (
	// serviceShots is the simulate job's shot count. At 256 shots the
	// job's fsyncs and polls were a third of a round trip and the VM
	// disk's fsync tail swung throughput by 20% between runs; at 1024 the
	// simulation dominates and the spread halved.
	serviceShots = 1024
	// serviceMinJobs is the fewest new-job round trips a traced run
	// makes, so service.rtt_p99_ms has at least ten samples beyond it.
	serviceMinJobs = 1000
	// servicePrefix new jobs enter the digest.
	servicePrefix = 32
	// serviceSampleEvery picks the fixed sample of jobs whose payload is
	// re-simulated in process after the run.
	serviceSampleEvery = 16
	// pollInterval spaces the status polls, so polling does not take the
	// processor from the job it waits for.
	pollInterval = 250 * time.Microsecond
	// storeReplayMax bounds the store put replay of a traced run.
	storeReplayMax = 2000
)

// service runs an in-process xqd — server.New plus server.NewServer on a
// loopback listener, over a fresh data dir and the real fsyncing store —
// and drives it with one closed-loop client on one connection. The
// client submits a new simulate job (ppr ZZZ, d=3, 1024 shots, fresh
// seed), polls until it is done and fetches the result, then resubmits
// it, which must come back cached, and fetches again.
//
// An operation is one new-job round trip or one cached round trip.
// rtt_p50_ms_norm and service.rtt_p99_ms are the new-job round trips: submit
// to result bytes in hand.
//
// A second client running the `xqsweep -worker` grid protocol was left
// out: each grid cell costs three fsyncs, and the VM disk's fsync
// latency swung that client's rate, and with it the workload's
// throughput, by 2x between runs.
type service struct {
	seed    int64
	dataDir string
	sched   *server.Scheduler
	hs      *http.Server
	served  chan error
	base    string
	client  *http.Client
	ref     []float64
	circ    compiler.Circuit

	dtvs    []float64
	jobs    int
	polls   int
	retries int
	samples []jobSample
	rtt     []float64 // ms, every new-job round trip
	compute []float64 // ms, traced jobs
	wait    []float64 // ms, traced jobs: round trip minus compute
}

type jobSample struct {
	spec    server.JobSpec
	payload []byte
}

// simulatePayload is the simulate job's result schema.
type simulatePayload struct {
	Workload      string    `json:"workload"`
	LQ            int       `json:"lq"`
	Distribution  []float64 `json:"distribution"`
	ESMRounds     int       `json:"esm_rounds"`
	DecodeWindows int       `json:"decode_windows"`
	Instructions  int       `json:"instructions"`
}

func (w *service) setup(_ context.Context, seed int64, dir string) error {
	w.seed = seed
	w.dataDir = filepath.Join(dir, "xqd")
	sched, err := server.New(server.Config{DataDir: w.dataDir})
	if err != nil {
		return err
	}
	w.sched = sched
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = sched.Drain(context.Background()) // the listen error is the one to report
		return err
	}
	w.hs = &http.Server{Handler: server.NewServer(sched)}
	w.served = make(chan error, 1)
	go func() { w.served <- w.hs.Serve(ln) }()
	w.base = "http://" + ln.Addr().String()
	w.client = &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		},
	}
	w.circ = compiler.SinglePPR("ZZZ", ftqc.AnglePi8).SubstituteStabilizer()
	w.ref = compiler.ReferenceDistribution(w.circ)
	return nil
}

func (w *service) jobSpec(seed int64) server.JobSpec {
	return server.JobSpec{Kind: "simulate", Workload: "ppr", Product: "ZZZ", D: 3, Shots: serviceShots, Seed: seed}
}

func (w *service) warmup(ctx context.Context, _ *recorder) error {
	for i := 0; i < 8; i++ {
		spec := w.jobSpec(warmupSeed(i))
		payload, _, err := w.newJob(ctx, spec, spanRef{})
		if err != nil {
			return err
		}
		if err := w.cachedJob(ctx, spec, payload, spanRef{}); err != nil {
			return err
		}
	}
	w.dtvs, w.jobs, w.polls, w.retries = nil, 0, 0, 0
	return nil
}

func (w *service) loop(ctx context.Context, r *recorder) error {
	minJobs := 0
	if r.tr != nil {
		minJobs = serviceMinJobs
	}
	for k := 0; r.more(k, minJobs); k++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		r.calibrate()
		tr := r.traced(k)
		spec := w.jobSpec(opSeed(w.seed, k))

		root := tr.root("service.new_job")
		t0 := time.Now()
		payload, polls, err := w.newJob(ctx, spec, root)
		rtt := time.Since(t0)
		root.end()
		if tr == nil {
			r.addRTT(rtt)
		}
		r.done(tr != nil, rtt, err)
		if err != nil {
			continue
		}
		if k < servicePrefix {
			r.digest("service.jobs", payload)
		}
		w.jobs++
		w.polls += polls
		w.rtt = append(w.rtt, float64(rtt)/1e6)
		if k%serviceSampleEvery == 0 {
			w.samples = append(w.samples, jobSample{spec, payload})
		}

		root = tr.root("service.cached")
		t0 = time.Now()
		err = w.cachedJob(ctx, spec, payload, root)
		d := time.Since(t0)
		root.end()
		r.done(tr != nil, d, err)

		if tr != nil {
			// The same spec computed in process, outside the operation.
			t0 = time.Now()
			err := w.checkPayload(ctx, jobSample{spec, payload})
			c := time.Since(t0)
			if err != nil {
				r.failCheck(err)
			}
			w.compute = append(w.compute, float64(c)/1e6)
			w.wait = append(w.wait, float64(rtt-c)/1e6)
		}
	}
	return nil
}

// newJob submits a fresh job, polls it to completion and fetches its
// payload.
func (w *service) newJob(ctx context.Context, spec server.JobSpec, root spanRef) ([]byte, int, error) {
	var sub struct{ ID, Status string }
	code, err := w.call(ctx, root, "server.submit", http.MethodPost, "/jobs", spec, &sub)
	if err != nil {
		return nil, 0, err
	}
	if code != http.StatusAccepted || sub.Status != "accepted" {
		return nil, 0, fmt.Errorf("submit: status %d %q, want 202 accepted", code, sub.Status)
	}
	polls := 0
	for {
		var info server.JobInfo
		code, err := w.call(ctx, root, "server.status", http.MethodGet, "/jobs/"+sub.ID, nil, &info)
		polls++
		if err != nil {
			return nil, polls, err
		}
		if code != http.StatusOK {
			return nil, polls, fmt.Errorf("status: %d", code)
		}
		if info.Status == server.StatusDone {
			w.retries += info.Attempts - 1
			break
		}
		if info.Status == server.StatusFailed {
			return nil, polls, fmt.Errorf("job %s failed: %s", sub.ID, info.Error)
		}
		root.call("client.poll_wait", func() { time.Sleep(pollInterval) })
	}
	var payload []byte
	code, err = w.call(ctx, root, "server.result", http.MethodGet, "/jobs/"+sub.ID+"/result", nil, &payload)
	if err != nil {
		return nil, polls, err
	}
	if code != http.StatusOK {
		return nil, polls, fmt.Errorf("result: status %d", code)
	}
	var p simulatePayload
	if err := json.Unmarshal(payload, &p); err != nil {
		return nil, polls, fmt.Errorf("result payload: %w", err)
	}
	w.dtvs = append(w.dtvs, statevec.TotalVariation(w.ref, p.Distribution))
	return payload, polls, nil
}

// cachedJob resubmits a finished job, which must be served from the
// store, and checks the refetched payload against the first fetch.
func (w *service) cachedJob(ctx context.Context, spec server.JobSpec, first []byte, root spanRef) error {
	var sub struct{ ID, Status string }
	code, err := w.call(ctx, root, "server.cached", http.MethodPost, "/jobs", spec, &sub)
	if err != nil {
		return err
	}
	if code != http.StatusOK || sub.Status != "cached" {
		return fmt.Errorf("resubmit: status %d %q, want 200 cached", code, sub.Status)
	}
	var payload []byte
	code, err = w.call(ctx, root, "server.result", http.MethodGet, "/jobs/"+sub.ID+"/result", nil, &payload)
	if err != nil {
		return err
	}
	if code != http.StatusOK || !bytes.Equal(payload, first) {
		return fmt.Errorf("cached result: status %d, bytes equal to first fetch: %v", code, bytes.Equal(payload, first))
	}
	return nil
}

// call makes one HTTP request inside a span. A []byte out receives the
// raw body; any other non-nil out is decoded from JSON.
func (w *service) call(ctx context.Context, root spanRef, span, method, path string, in, out any) (int, error) {
	sp := root.child(span)
	defer sp.end()
	var body io.Reader
	if in != nil {
		b, err := json.Marshal(in)
		if err != nil {
			return 0, err
		}
		body = bytes.NewReader(b)
	}
	req, err := http.NewRequestWithContext(ctx, method, w.base+path, body)
	if err != nil {
		return 0, err
	}
	resp, err := w.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer func() { _ = resp.Body.Close() }() // fully read below; nothing to flush
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, err
	}
	if resp.StatusCode >= 300 {
		return resp.StatusCode, nil
	}
	switch o := out.(type) {
	case nil:
	case *[]byte:
		*o = raw
	default:
		if err := json.Unmarshal(raw, out); err != nil {
			return resp.StatusCode, fmt.Errorf("%s %s: %w", method, path, err)
		}
	}
	return resp.StatusCode, nil
}

// checkPayload recomputes a simulate job in process and compares it
// with the daemon's payload.
func (w *service) checkPayload(ctx context.Context, s jobSample) error {
	spec, err := s.spec.Normalize()
	if err != nil {
		return err
	}
	dist, m, err := core.RunShotsOpt(ctx, w.circ, spec.D, spec.PhysErr, spec.Shots, spec.Seed, core.RunOptions{})
	if err != nil {
		return err
	}
	var p simulatePayload
	if err := json.Unmarshal(s.payload, &p); err != nil {
		return err
	}
	same := p.Workload == w.circ.Name && p.LQ == w.circ.NLQ && len(p.Distribution) == len(dist) &&
		p.ESMRounds == m.ESMRounds && p.DecodeWindows == m.DecodeWindows && p.Instructions == m.Instructions
	for i := 0; same && i < len(dist); i++ {
		same = math.Float64bits(p.Distribution[i]) == math.Float64bits(dist[i])
	}
	if !same {
		return fmt.Errorf("job seed %d: daemon payload differs from in-process core.RunShotsOpt", s.spec.Seed)
	}
	return nil
}

func (w *service) finish(ctx context.Context, r *recorder) error {
	if err := w.shutdown(ctx); err != nil {
		return err
	}
	for _, s := range w.samples {
		if err := w.checkPayload(ctx, s); err != nil {
			r.failCheck(err)
		}
	}
	fmt.Printf("info service jobs=%d samples_checked=%d dtv_mean=%.5f\n", w.jobs, len(w.samples), mean(w.dtvs))
	if r.tr == nil {
		return nil
	}
	r.set("statevec.dtv_mean", mean(w.dtvs))
	r.set("service.rtt_p99_ms", quantile(w.rtt, 0.99))
	r.set("service.rtt_p99_ms.n", float64(len(w.rtt)))
	r.set("server.polls_per_job", float64(w.polls)/float64(max(w.jobs, 1)))
	r.set("server.retries", float64(w.retries))
	r.set("core.job_compute_ms", quantile(w.compute, 0.5))
	r.set("core.job_compute_ms.n", float64(len(w.compute)))
	r.set("server.job_wait_ms", quantile(w.wait, 0.5))
	return w.measureStore(r)
}

// measureStore reopens the drained store and replays its live records
// into a fresh store in the same directory.
func (w *service) measureStore(r *recorder) error {
	path := filepath.Join(w.dataDir, "results.log")
	t0 := time.Now()
	st, err := store.Open(path)
	if err != nil {
		return err
	}
	r.set("store.open_ms", float64(time.Since(t0))/1e6)
	r.set("store.keys", float64(st.Len()))
	fi, err := os.Stat(path)
	if err == nil {
		r.set("store.log_bytes", float64(fi.Size()))
		err = replayStore(r, st, filepath.Join(w.dataDir, "replay.log"))
	}
	if cerr := st.Close(); err == nil {
		err = cerr
	}
	return err
}

// replayStore puts up to storeReplayMax of src's live records into a
// fresh store at path, timing every put.
func replayStore(r *recorder, src *store.Store, path string) error {
	dst, err := store.Open(path)
	if err != nil {
		return err
	}
	keys := src.Keys()
	puts := make([]float64, 0, min(len(keys), storeReplayMax))
	for _, k := range keys[:cap(puts)] {
		v, ok, err := src.Get(k)
		if err == nil && !ok {
			err = fmt.Errorf("store replay: key %q vanished", k)
		}
		if err == nil {
			t0 := time.Now()
			err = dst.Put(k, v)
			puts = append(puts, float64(time.Since(t0))/1e6)
		}
		if err != nil {
			_ = dst.Close() // the replay has already failed
			return err
		}
	}
	r.set("store.put_ms", quantile(puts, 0.5))
	r.set("store.put_p99_ms", quantile(puts, 0.99))
	r.set("store.put_ms.n", float64(len(puts)))
	return dst.Close()
}

// shutdown stops the HTTP server and drains the scheduler, which
// closes the store. It is safe to call more than once.
func (w *service) shutdown(ctx context.Context) error {
	if w.hs == nil {
		return nil
	}
	hs := w.hs
	w.hs = nil
	ctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	err := hs.Shutdown(ctx)
	if serr := <-w.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if derr := w.sched.Drain(ctx); err == nil {
		err = derr
	}
	w.client.CloseIdleConnections()
	return err
}

func (w *service) close() error { return w.shutdown(context.Background()) }
