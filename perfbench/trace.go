package main

import (
	"math"
	"sort"
	"time"
)

// tracer records spans in memory; they are summarised once the run
// ends. A nil *tracer records nothing, so one code path serves the
// traced and the untraced run. Spans are recorded from one goroutine.
type tracer struct {
	epoch time.Time
	spans []span
}

// span is one timed call. parent is the index of the enclosing span, or
// -1 for an operation's root span.
type span struct {
	name       string
	parent     int
	start, end int64 // ns since the tracer's epoch
}

// spanRef is a handle to an open span.
type spanRef struct {
	t  *tracer
	id int
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// root opens an operation's root span.
func (t *tracer) root(name string) spanRef { return t.open(name, -1) }

func (t *tracer) open(name string, parent int) spanRef {
	if t == nil {
		return spanRef{}
	}
	t.spans = append(t.spans, span{name: name, parent: parent, start: t.now(), end: -1})
	return spanRef{t: t, id: len(t.spans) - 1}
}

// add records a finished child span whose bounds were read elsewhere
// (from a clock the benchmark handed to the program).
func (t *tracer) add(name string, parent spanRef, start, end int64) {
	if t != nil {
		t.spans = append(t.spans, span{name: name, parent: parent.id, start: start, end: end})
	}
}

// child opens a span under s.
func (s spanRef) child(name string) spanRef {
	if s.t == nil {
		return spanRef{}
	}
	return s.t.open(name, s.id)
}

// end closes s and returns its duration in ns (0 when untraced).
func (s spanRef) end() int64 {
	if s.t == nil {
		return 0
	}
	sp := &s.t.spans[s.id]
	sp.end = s.t.now()
	return sp.end - sp.start
}

// call runs fn inside a child span of s.
func (s spanRef) call(name string, fn func()) {
	c := s.child(name)
	fn()
	c.end()
}

// summary aggregates the recorded spans.
type summary struct {
	// durs holds every closed span's duration by name, in ns.
	durs map[string][]float64
	// perRoot sums, for each root span, its children's durations by name.
	perRoot map[string][]float64
	// rootNs and rootSelfNs total the roots' durations and the parts of
	// them no child span covers.
	rootNs, rootSelfNs float64
}

func (t *tracer) summarize() summary {
	s := summary{durs: map[string][]float64{}, perRoot: map[string][]float64{}}
	if t == nil {
		return s
	}
	children := map[int][]int{}
	for i, sp := range t.spans {
		if sp.end < 0 {
			continue
		}
		s.durs[sp.name] = append(s.durs[sp.name], float64(sp.end-sp.start))
		if sp.parent >= 0 {
			children[sp.parent] = append(children[sp.parent], i)
		}
	}
	for i, sp := range t.spans {
		if sp.parent >= 0 || sp.end < 0 {
			continue
		}
		kids := children[i]
		sums := map[string]float64{}
		ivs := make([][2]int64, 0, len(kids))
		for _, k := range kids {
			c := t.spans[k]
			sums[c.name] += float64(c.end - c.start)
			ivs = append(ivs, [2]int64{c.start, c.end})
		}
		for name, v := range sums {
			s.perRoot[name] = append(s.perRoot[name], v)
		}
		dur := float64(sp.end - sp.start)
		s.rootNs += dur
		s.rootSelfNs += dur - float64(covered(ivs, sp.start, sp.end))
	}
	return s
}

// covered returns how much of [lo, hi] the union of ivs covers; child
// spans of parallel workers overlap, so they are merged, not summed.
func covered(ivs [][2]int64, lo, hi int64) int64 {
	sort.Slice(ivs, func(a, b int) bool { return ivs[a][0] < ivs[b][0] })
	var total int64
	curLo, curHi := int64(0), int64(-1)
	for _, iv := range ivs {
		a, b := max(iv[0], lo), min(iv[1], hi)
		if b <= a {
			continue
		}
		if a > curHi {
			if curHi > curLo {
				total += curHi - curLo
			}
			curLo, curHi = a, b
		} else if b > curHi {
			curHi = b
		}
	}
	if curHi > curLo {
		total += curHi - curLo
	}
	return total
}

// quantile returns the q-quantile of xs (nearest rank on sorted data);
// xs is sorted in place. NaN when xs is empty.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	return xs[i]
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// spanMetric reports the median busy time of one span name as a
// per-layer metric, plus its sample count as <metric>.n. perRoot
// metrics take, per operation, the sum of that operation's spans of the
// name.
type spanMetric struct {
	span, metric string
	unitNs       float64
	perRoot      bool
}

var spanMetrics = []spanMetric{
	{"core.shot", "core.shot_us", 1e3, false},
	{"core.runner_build", "core.runner_build_ms", 1e6, false},
	{"compiler.reference", "compiler.reference_ms", 1e6, false},
	{"statevec.tv", "statevec.tv_us", 1e3, false},
	{"core.measure_rates", "core.measure_rates_ms", 1e6, false},
	{"sweep.fig16", "sweep.fig16_ms", 1e6, false},
	{"sweep.evaluate", "sweep.evaluate_ms", 1e6, true},
	{"core.frame_cell_build", "core.frame_cell_build_ms", 1e6, false},
	{"core.frame_cell_rate.sub", "core.frame_cell_rate_ms.sub", 1e6, false},
	{"core.frame_cell_rate.near", "core.frame_cell_rate_ms.near", 1e6, false},
	{"core.memory_rate.sub", "core.memory_rate_ms.sub", 1e6, false},
	{"core.memory_rate.near", "core.memory_rate_ms.near", 1e6, false},
	{"sweep.merge", "sweep.merge_ms", 1e6, false},
	{"server.submit", "server.submit_ms", 1e6, false},
	{"server.status", "server.status_ms", 1e6, false},
	{"server.result", "server.result_ms", 1e6, false},
	{"server.cached", "server.cached_ms", 1e6, false},
}

// metrics returns the span-derived per-layer metrics present in s.
func (s summary) metrics() map[string]float64 {
	out := map[string]float64{}
	for _, sm := range spanMetrics {
		xs := s.durs[sm.span]
		if sm.perRoot {
			xs = s.perRoot[sm.span]
		}
		if len(xs) == 0 {
			continue
		}
		out[sm.metric] = quantile(xs, 0.5) / sm.unitNs
		out[sm.metric+".n"] = float64(len(xs))
	}
	return out
}
