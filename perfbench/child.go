package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"
)

// workload is one benchmark workload, run inside its own process.
type workload interface {
	// setup builds everything the first operation needs; dir is a fresh
	// directory for the process's files.
	setup(ctx context.Context, seed int64, dir string) error
	// warmup runs untimed operations with inputs disjoint from the
	// timed ones; it records nothing in r.
	warmup(ctx context.Context, r *recorder) error
	// loop runs the closed loop until r.more says stop.
	loop(ctx context.Context, r *recorder) error
	// finish runs the untimed post-run checks and adds the workload's
	// own metrics to r.
	finish(ctx context.Context, r *recorder) error
	// close releases what setup acquired.
	close() error
}

var workloads = map[string]func() workload{
	"table3":      func() workload { return &table3{} },
	"scalability": func() workload { return &scalability{} },
	"grid":        func() workload { return &grid{} },
	"service":     func() workload { return &service{} },
}

// gomaxprocs is the workload processes' GOMAXPROCS. Every workload runs
// on one P: on a shared 2-vCPU VM the second vCPU's share of the host
// came and went on a scale of seconds, so two-thread timings swung by up
// to 2x between runs while one-thread timings stayed within about 15%.
// The simulator's parallel paths still run, with one worker.
const gomaxprocs = 1

// partStream offsets the seeds of a run's later workload processes, so
// each measures its own operations. Part 0 uses the workload seed
// itself, so a traced run repeats the untraced run's first part
// operation for operation.
const partStream = 1 << 50

// warmupStream offsets warm-up operation indices so their derived seeds
// never coincide with a timed operation's (the rate memo would turn the
// timed operation into a cache hit).
const warmupStream = 1 << 40

// warmupSeed is warm-up operation i's seed. It does not depend on the
// workload seed: warm-up is the same work in every process, so setup_s
// measures set-up and not the inputs a seed draws (one scalability
// operation's cost varies several-fold between seeds).
func warmupSeed(i int) int64 { return opSeed(0, warmupStream+i) }

// opSeed derives operation k's seed from the workload seed
// (SplitMix64), kept positive and non-zero: the daemon reads seed 0 as
// "use the default".
func opSeed(base int64, k int) int64 {
	z := uint64(base) + uint64(k+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z>>2) + 1
}

// recorder collects one run's counts, timings, digest and metrics. Every
// workload drives it from one goroutine.
type recorder struct {
	workload string
	seed     int64
	part     int
	tr       *tracer     // nil unless tracing
	cal      *calibrator // nil when tracing
	start    time.Time
	deadline time.Time

	attempted int
	failed    int
	lastEnd   time.Time
	rtt       []float64 // ms, untraced operations only
	opNs      [2][]float64
	metrics   map[string]float64
	digests   map[string]hash.Hash
	digestN   map[string]int
}

// more reports whether a client that has completed n operations should
// start another: until the deadline, and at least least operations.
func (r *recorder) more(n, least int) bool {
	return n < least || time.Now().Before(r.deadline)
}

// calibrate runs the calibration walk, between operations, when it is
// due.
func (r *recorder) calibrate() {
	if r.cal != nil {
		r.cal.keep(r.start)
	}
}

// traced reports whether operation k of a client runs traced: in a
// traced run, even operations are traced and odd ones are not, so the
// tracing overhead is measured on interleaved operations.
func (r *recorder) traced(k int) *tracer {
	if r.tr != nil && k%2 == 0 {
		return r.tr
	}
	return nil
}

// done records one finished operation; err marks it failed.
func (r *recorder) done(traced bool, d time.Duration, err error) {
	end := time.Now()
	r.attempted++
	if err != nil {
		r.failed++
		if r.failed <= 10 {
			_, _ = fmt.Fprintf(os.Stderr, "%s: operation failed: %v\n", r.workload, err)
		}
	}
	i := 0
	if traced {
		i = 1
	}
	r.opNs[i] = append(r.opNs[i], float64(d))
	if end.After(r.lastEnd) {
		r.lastEnd = end
	}
}

// failCheck counts a failed post-run check against an operation already
// recorded as attempted.
func (r *recorder) failCheck(err error) {
	r.failed++
	_, _ = fmt.Fprintf(os.Stderr, "%s: check failed: %v\n", r.workload, err)
}

func (r *recorder) addRTT(d time.Duration) {
	r.rtt = append(r.rtt, float64(d)/1e6)
}

// set records a workload-specific per-layer metric. Untraced runs
// report end-to-end metrics only, so there it does nothing.
func (r *recorder) set(name string, v float64) {
	if r.tr != nil {
		r.metrics[name] = v
	}
}

// digest feeds one operation's simulated outputs into the named
// stream's SHA-256. Callers feed operations of a fixed prefix, in
// order.
func (r *recorder) digest(stream string, out []byte) {
	h, ok := r.digests[stream]
	if !ok {
		h = sha256.New()
		r.digests[stream] = h
	}
	// A hash.Hash never returns a write error.
	_, _ = fmt.Fprintf(h, "%d:", len(out))
	_, _ = h.Write(out)
	r.digestN[stream]++
}

// checkError marks an operation whose outputs failed a correctness
// check, as opposed to one that could not run.
type checkError struct{ error }

func checkFailed(format string, args ...any) error {
	return checkError{fmt.Errorf(format, args...)}
}

// warmupErr filters a warm-up operation's error: warm-up outputs are
// not measured, so only an operation that could not run stops the
// benchmark.
func warmupErr(err error) error {
	var ce checkError
	if errors.As(err, &ce) {
		return nil
	}
	return err
}

// seqOp is one operation of a sequential workload. It returns the
// simulated outputs that enter the digest; an error fails the
// operation. root is the operation's root span (inert when untraced).
type seqOp func(ctx context.Context, k int, root spanRef) ([]byte, error)

// seqLoop drives a single closed-loop client: operation k+1 starts when
// operation k has finished and been checked. prefix operations always
// run and enter the digest. after, if non-nil, runs untimed after each
// traced operation.
func seqLoop(ctx context.Context, r *recorder, prefix int, op seqOp, after func(k int) error) error {
	for k := 0; r.more(k, prefix); k++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		r.calibrate()
		tr := r.traced(k)
		root := tr.root(r.workload + ".op")
		t0 := time.Now()
		out, err := op(ctx, k, root)
		d := time.Since(t0)
		root.end()
		if tr == nil {
			r.addRTT(d)
		}
		r.done(tr != nil, d, err)
		if k < prefix {
			r.digest(r.workload, out)
		}
		if tr != nil && after != nil {
			if err := after(k); err != nil {
				return err
			}
		}
	}
	return nil
}

func runChild(o options) (err error) {
	runtime.GOMAXPROCS(gomaxprocs)
	ctx := context.Background()
	dir, err := newTempDir(o.workload)
	if err != nil {
		return err
	}
	defer func() {
		if rerr := os.RemoveAll(dir); rerr != nil && err == nil {
			err = rerr
		}
	}()

	w := workloads[o.workload]()
	r := &recorder{
		workload: o.workload,
		seed:     o.seed,
		part:     o.part,
		metrics:  map[string]float64{},
		digests:  map[string]hash.Hash{},
		digestN:  map[string]int{},
	}
	if o.trace == 1 {
		r.tr = newTracer()
	}
	seed := o.seed
	if o.part > 0 {
		seed = opSeed(o.seed, partStream+o.part)
	}
	measure := time.Duration(o.seconds) * time.Second
	if o.trace == 0 {
		measure /= parts
	}
	if err := w.setup(ctx, seed, dir); err != nil {
		return fmt.Errorf("setup: %w", err)
	}
	defer func() {
		if cerr := w.close(); cerr != nil && err == nil {
			err = fmt.Errorf("close: %w", cerr)
		}
	}()
	if err := w.warmup(ctx, r); err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	fmt.Println("ready")

	if r.tr == nil {
		if r.cal, err = newCalibrator(); err != nil {
			return err
		}
		defer func() {
			if cerr := r.cal.close(); cerr != nil && err == nil {
				err = cerr
			}
		}()
	}
	alloc0 := heapAllocBytes()
	r.start = time.Now()
	r.lastEnd = r.start
	r.deadline = r.start.Add(measure)
	if err := w.loop(ctx, r); err != nil {
		return fmt.Errorf("loop: %w", err)
	}
	// Every walk starts before the last operation ends.
	elapsed := r.lastEnd.Sub(r.start)
	if r.cal != nil {
		elapsed -= r.cal.total
	}
	allocMB := float64(heapAllocBytes()-alloc0) / (1 << 20)
	if err := w.finish(ctx, r); err != nil {
		return fmt.Errorf("finish: %w", err)
	}
	if r.tr == nil {
		r.metrics[allocMetric] = allocMB / float64(r.attempted)
	}
	return r.report(elapsed.Seconds())
}

// report prints the digest and info lines and the result line.
func (r *recorder) report(elapsed float64) error {
	m := r.metrics
	ok := r.attempted - r.failed
	if r.tr == nil {
		ops, rtt, slow := float64(ok)/elapsed, quantile(r.rtt, 0.50), r.cal.slowdown()
		m["ops_per_s_norm"] = ops * slow
		m["rtt_p50_ms_norm"] = rtt / slow
		fmt.Printf("info %s part=%d raw ops_per_s=%.6g rtt_p50_ms=%.6g calibration walks=%d median_ms=%.4f slowdown=%.4f\n",
			r.workload, r.part, ops, rtt, len(r.cal.ms), quantile(r.cal.ms, 0.5), slow)
	} else {
		s := r.tr.summarize()
		for name, v := range s.metrics() {
			m[name] = v
		}
		if s.rootNs > 0 {
			m[r.workload+".unattributed_pct"] = 100 * s.rootSelfNs / s.rootNs
		}
		tracedRate := float64(len(r.opNs[1])) / sum(r.opNs[1])
		untracedRate := float64(len(r.opNs[0])) / sum(r.opNs[0])
		m[r.workload+".trace_overhead_pct"] = 100 * (untracedRate/tracedRate - 1)
	}
	fmt.Printf("info %s part=%d gomaxprocs=%d numcpu=%d attempted=%d failed=%d elapsed_s=%.3f rtt_samples=%d traced_ops=%d untraced_ops=%d\n",
		r.workload, r.part, runtime.GOMAXPROCS(0), runtime.NumCPU(), r.attempted, r.failed, elapsed, len(r.rtt), len(r.opNs[1]), len(r.opNs[0]))
	for _, stream := range sortedKeys(r.digests) {
		fmt.Printf("digest %s part=%d seed=%d ops=%d sha256=%s\n", stream, r.part, r.seed, r.digestN[stream], hex.EncodeToString(r.digests[stream].Sum(nil)))
	}
	line, err := json.Marshal(childResult{Attempted: r.attempted, Failed: r.failed, Metrics: m})
	if err != nil {
		return err
	}
	fmt.Printf("result %s\n", line)
	return nil
}

// heapAllocBytes is the process's cumulative heap allocation.
func heapAllocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
