// Command perfbench is XQsim's end-to-end and per-layer benchmark. It
// runs one of four workloads that reproduce what the simulator's users
// run — the Table 3 functional validation, the Figs. 14/16/17/19
// scalability evaluations, a threshold/circuit grid, and an xqd service
// round trip — as a closed loop for a fixed time, checks every
// operation's outputs, and prints one JSON result line:
//
//	bash perfbench/run.sh --workload table3 --seed 1 --seconds 15 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics named in
// BENCHMARK.json; with --trace 1 it carries the per-layer metrics from
// a traced run, whose spans wrap every call the benchmark makes into
// the simulator's packages. BENCHMARK.json is the single list of metric
// names and units: a metric this program measures but the file does not
// name is an error.
//
// Process layout: the command runs as a parent that launches the
// workload in child processes of its own, because the MeasureRates memo
// and the daemon's rate persistence are process-wide. A --trace 0 run
// is five workload processes in a row, each measuring a fifth of
// --seconds on its own stream of operations; every end-to-end metric
// but allocation per operation is the median over the five, so a slow
// phase of a shared machine does not set the result, and throughput and
// round trip are scaled to machine speed (calib.go). Set-up time is
// measured by the parent from process start to the child's "ready"
// line, which prints after set-up and warm-up; each child also reports
// its peak resident set (rusage) for information.
// A --trace 1 run is one workload process measuring all of --seconds.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strings"
	"syscall"
	"time"
)

const (
	// parts is how many workload processes a --trace 0 run measures.
	parts = 5
	// childGrace bounds how long a child may run past --seconds (set-up,
	// warm-up, post-run checks) before the parent kills it and fails.
	childGrace = 150 * time.Second
	// allocMetric is heap allocation per operation, in MiB.
	allocMetric = "alloc_mb_per_op"
	// benchFile names the metric list, at the checkout root.
	benchFile = "BENCHMARK.json"
	// tmpRoot holds every temporary file a run writes; it lives inside
	// the checkout's build directory.
	tmpRoot = ".bench_build/tmp"
)

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	child    bool
	part     int // which part of a --trace 0 run a child measures
}

func main() {
	os.Exit(run())
}

func run() int {
	var o options
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "workload name (see BENCHMARK.json)")
	fs.Int64Var(&o.seed, "seed", 1, "workload seed; every operation's inputs derive from it")
	fs.IntVar(&o.seconds, "seconds", 10, "measured duration of the closed loop")
	fs.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics, 1: traced run with per-layer metrics")
	fs.BoolVar(&o.child, "child", false, "internal: run as a workload process")
	fs.IntVar(&o.part, "part", 0, "internal: the workload process's part of the run")
	if err := fs.Parse(os.Args[1:]); err != nil {
		return 2
	}
	if err := o.validate(); err != nil {
		_, _ = fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	var err error
	if o.child {
		err = runChild(o)
	} else {
		err = runParent(o)
	}
	if err != nil {
		_, _ = fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	return 0
}

func (o options) validate() error {
	if _, ok := workloads[o.workload]; !ok {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		return fmt.Errorf("unknown workload %q (have %s)", o.workload, strings.Join(names, ", "))
	}
	if o.seconds < 1 {
		return fmt.Errorf("--seconds must be at least 1, got %d", o.seconds)
	}
	if o.trace != 0 && o.trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", o.trace)
	}
	if o.part < 0 || o.part >= parts {
		return fmt.Errorf("--part must be in [0, %d), got %d", parts, o.part)
	}
	return nil
}

// benchSpec is the part of BENCHMARK.json this program reads.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadBenchSpec() (benchSpec, error) {
	var b benchSpec
	raw, err := os.ReadFile(benchFile)
	if err != nil {
		return b, err
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		return b, fmt.Errorf("%s: %w", benchFile, err)
	}
	return b, nil
}

// childResult is the line a "run" child prints last, prefixed "result ".
type childResult struct {
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]float64 `json:"metrics"`
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type finalResult struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func runParent(o options) error {
	spec, err := loadBenchSpec()
	if err != nil {
		return err
	}
	listed := false
	for _, w := range spec.Workloads {
		listed = listed || w.Name == o.workload
	}
	if !listed {
		return fmt.Errorf("workload %q is not in %s", o.workload, benchFile)
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}

	n := 1
	if o.trace == 0 {
		n = parts
	}
	runs := make([]childRun, n)
	for i := range runs {
		c, err := spawn(self, o, i)
		if err != nil {
			return err
		}
		if c.result == nil {
			return fmt.Errorf("workload process %d printed no result", i)
		}
		runs[i] = c
	}

	got := runs[0].result.Metrics
	want := spec.PerLayer
	if o.trace == 0 {
		want = spec.EndToEnd
		got = medians(runs)
	}
	out := finalResult{Correct: true, Metrics: make(map[string]metricOut, len(want))}
	for _, c := range runs {
		out.Correct = out.Correct && c.result.Failed == 0
		out.Attempted += c.result.Attempted
		out.Failed += c.result.Failed
	}
	known := make(map[string]bool, len(want))
	for _, m := range want {
		known[m.Name] = true
		v, ok := got[m.Name]
		if !ok {
			if o.trace == 0 {
				return fmt.Errorf("end-to-end metric %q was not measured", m.Name)
			}
			// A per-layer metric of another workload: this workload does
			// not cross that layer boundary.
			v = 0
		}
		out.Metrics[m.Name] = metricOut{Value: v, Unit: m.Unit}
	}
	var unlisted []string
	for name := range got {
		if !known[name] {
			unlisted = append(unlisted, name)
		}
	}
	if len(unlisted) > 0 {
		sort.Strings(unlisted)
		return fmt.Errorf("measured metrics missing from %s: %s", benchFile, strings.Join(unlisted, ", "))
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// medians combines the workload processes of an untraced run: each
// end-to-end metric is the median over the processes, with set-up time
// as the parent observed it, except allocation per operation, which is
// pooled over every process's operations: one operation's allocation
// follows the inputs its seed draws and is heavy-tailed (on
// scalability, a median of 3.8 MiB and a tail past 30 MiB), so a
// process's mean over a few dozen operations is not a steady sample.
func medians(runs []childRun) map[string]float64 {
	vals := map[string][]float64{}
	var rss []float64
	var allocMB, attempted float64
	for _, c := range runs {
		for name, v := range c.result.Metrics {
			vals[name] = append(vals[name], v)
		}
		vals["setup_s"] = append(vals["setup_s"], c.setup.Seconds())
		rss = append(rss, c.maxRSSMB)
		allocMB += c.result.Metrics[allocMetric] * float64(c.result.Attempted)
		attempted += float64(c.result.Attempted)
	}
	fmt.Printf("info max_rss_mb parts=%v\n", rss)
	out := make(map[string]float64, len(vals))
	for _, name := range sortedKeys(vals) {
		fmt.Printf("info %s parts=%v\n", name, vals[name])
		out[name] = quantile(vals[name], 0.5)
	}
	out[allocMetric] = allocMB / attempted
	return out
}

// childRun is what the parent observed of one workload process.
type childRun struct {
	setup    time.Duration
	result   *childResult
	maxRSSMB float64
}

// spawn runs one workload process to completion, forwarding its
// informational stdout lines and timing it from start to "ready".
func spawn(self string, o options, part int) (childRun, error) {
	var c childRun
	cmd := exec.Command(self,
		"--workload", o.workload,
		"--seed", fmt.Sprint(o.seed),
		"--seconds", fmt.Sprint(o.seconds),
		"--trace", fmt.Sprint(o.trace),
		"--child", "--part", fmt.Sprint(part))
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return c, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return c, err
	}
	killer := time.AfterFunc(time.Duration(o.seconds)*time.Second+childGrace, func() {
		_ = cmd.Process.Kill()
	})
	defer killer.Stop()

	ready := false
	var scanErr error
	sc := bufio.NewScanner(stdout)
	sc.Buffer(make([]byte, 1<<16), 1<<24)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "ready":
			c.setup = time.Since(start)
			ready = true
		case strings.HasPrefix(line, "result "):
			var r childResult
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "result ")), &r); err != nil {
				scanErr = fmt.Errorf("bad result line: %w", err)
				continue
			}
			c.result = &r
		default:
			fmt.Println(line)
		}
	}
	if err := sc.Err(); err != nil && scanErr == nil {
		scanErr = err
	}
	// Drain anything left so the child never blocks on a full pipe.
	_, _ = io.Copy(io.Discard, stdout)
	if err := cmd.Wait(); err != nil {
		return c, fmt.Errorf("workload process %d: %w", part, err)
	}
	if scanErr != nil {
		return c, scanErr
	}
	if !ready {
		return c, fmt.Errorf("workload process %d never became ready", part)
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		c.maxRSSMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return c, nil
}

// newTempDir makes a fresh directory for one process's files under the
// checkout's build directory.
func newTempDir(workload string) (string, error) {
	if err := os.MkdirAll(tmpRoot, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(tmpRoot, workload+"-")
}
