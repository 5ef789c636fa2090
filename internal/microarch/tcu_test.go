package microarch

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"xqsim/internal/compiler"
	"xqsim/internal/surface"
)

// TCUModel is the event-level model of the time control unit (Fig. 6d):
// codeword arrays arrive from the PSU with their intended execution
// duration (cycle_time), wait in the per-qubit codeword buffers and the
// global timing buffer, and are released to the QC interface exactly when
// the timing counter matches the preceding codeword's cycle_time — so the
// pulse stream has no idle gaps.
//
// The baseline design uses two-entry FIFOs; Optimization #3's simple
// buffer holds a single entry (Fig. 18b), which the paper observes is
// sufficient for exact timing control. EmitAll verifies both claims:
// emission times are exact, and occupancy never exceeds the configured
// depth when the producer keeps up.
type TCUModel struct {
	// Depth is the buffer depth (2 baseline, 1 with Optimization #3).
	Depth int

	// queue holds buffered entries (codeword id, cycleTime).
	queue []tcuEntry
	// now is the QC-interface timeline in control-processor cycles.
	now uint64
	// prevDuration is the cycle_time of the codeword currently executing.
	prevDuration uint64

	// Emissions records (id, cycle) release events.
	Emissions []TCUEmission
	// MaxOccupancy tracks the high-water mark.
	MaxOccupancy int
	// Stalls counts push attempts that found the buffer full.
	Stalls int
}

type tcuEntry struct {
	id        int
	cycleTime uint64
}

// TCUEmission is one codeword release.
type TCUEmission struct {
	ID    int
	Cycle uint64
}

// NewTCUModel returns a model with the given buffer depth.
func NewTCUModel(depth int) *TCUModel {
	if depth < 1 {
		//xqlint:ignore nopanic constructor precondition: depth is a config constant, never user input
		panic("microarch: TCU buffer depth must be positive")
	}
	return &TCUModel{Depth: 1 + depth} // +1 for the in-flight slot
}

// Push offers a codeword with its execution duration. It returns false
// (and counts a stall) when the buffers are full; the PSU must retry
// after the next pop.
func (t *TCUModel) Push(id int, cycleTime uint64) bool {
	if cycleTime == 0 {
		//xqlint:ignore nopanic unreachable guard: the PSU derives cycle_time from non-empty mask schedules
		panic(fmt.Sprintf("microarch: codeword %d has zero cycle_time", id))
	}
	if len(t.queue) >= t.Depth {
		t.Stalls++
		return false
	}
	t.queue = append(t.queue, tcuEntry{id: id, cycleTime: cycleTime})
	if len(t.queue) > t.MaxOccupancy {
		t.MaxOccupancy = len(t.queue)
	}
	return true
}

// Pop releases the next codeword at the exact moment the preceding one
// finishes (timing_counter == previous cycle_time) and returns it; ok is
// false when the buffer is empty.
func (t *TCUModel) Pop() (TCUEmission, bool) {
	if len(t.queue) == 0 {
		return TCUEmission{}, false
	}
	e := t.queue[0]
	t.queue = t.queue[1:]
	t.now += t.prevDuration
	t.prevDuration = e.cycleTime
	em := TCUEmission{ID: e.id, Cycle: t.now}
	t.Emissions = append(t.Emissions, em)
	return em, true
}

// EmitAll streams a whole schedule through the model: pushes entries in
// order, popping whenever the buffer is full or input is exhausted, and
// returns the emission record. It verifies the no-idle-gap invariant:
// consecutive emissions are separated by exactly the earlier codeword's
// cycle_time.
func (t *TCUModel) EmitAll(cycleTimes []uint64) []TCUEmission {
	next := 0
	for next < len(cycleTimes) || len(t.queue) > 0 {
		if next < len(cycleTimes) && t.Push(next, cycleTimes[next]) {
			next++
			continue
		}
		if _, ok := t.Pop(); !ok {
			break
		}
	}
	// Invariant check.
	for i := 1; i < len(t.Emissions); i++ {
		gap := t.Emissions[i].Cycle - t.Emissions[i-1].Cycle
		if gap != cycleTimes[t.Emissions[i-1].ID] {
			//xqlint:ignore nopanic invariant self-check: back-to-back emission is the property the model exists to enforce
			panic(fmt.Sprintf("microarch: TCU idle gap at emission %d: gap %d want %d",
				i, gap, cycleTimes[t.Emissions[i-1].ID]))
		}
	}
	return t.Emissions
}

func TestTCUExactTiming(t *testing.T) {
	m := NewTCUModel(2)
	times := []uint64{5, 3, 7, 2, 9}
	ems := m.EmitAll(times)
	if len(ems) != len(times) {
		t.Fatalf("emitted %d of %d", len(ems), len(times))
	}
	// First emission at cycle 0; each next after the previous duration.
	want := uint64(0)
	for i, e := range ems {
		if e.Cycle != want {
			t.Fatalf("emission %d at %d, want %d", i, e.Cycle, want)
		}
		want += times[i]
	}
}

func TestTCUOrderPreserved(t *testing.T) {
	m := NewTCUModel(2)
	times := make([]uint64, 50)
	r := rand.New(rand.NewSource(3))
	for i := range times {
		times[i] = uint64(1 + r.Intn(20))
	}
	ems := m.EmitAll(times)
	for i, e := range ems {
		if e.ID != i {
			t.Fatalf("order broken at %d: id %d", i, e.ID)
		}
	}
}

func TestTCUSingleEntrySufficient(t *testing.T) {
	// Optimization #3's claim: one buffer entry is enough for exact
	// timing control — the emission schedule is identical to the
	// two-entry FIFO's.
	times := []uint64{4, 4, 6, 2, 8, 3, 3}
	two := NewTCUModel(2).EmitAll(times)
	one := NewTCUModel(1).EmitAll(times)
	if len(two) != len(one) {
		t.Fatalf("emission counts differ: %d vs %d", len(two), len(one))
	}
	for i := range two {
		if two[i] != one[i] {
			t.Fatalf("emission %d differs: %v vs %v", i, two[i], one[i])
		}
	}
}

func TestTCUOccupancyBounded(t *testing.T) {
	m := NewTCUModel(2)
	times := make([]uint64, 100)
	for i := range times {
		times[i] = 3
	}
	m.EmitAll(times)
	if m.MaxOccupancy > m.Depth {
		t.Fatalf("occupancy %d exceeded depth %d", m.MaxOccupancy, m.Depth)
	}
	if m.Stalls == 0 {
		t.Fatal("a long burst should have exercised back-pressure")
	}
}

func TestTCUZeroCycleTimePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewTCUModel(1).Push(0, 0)
}

func TestTCUPopEmpty(t *testing.T) {
	m := NewTCUModel(1)
	if _, ok := m.Pop(); ok {
		t.Fatal("pop from empty succeeded")
	}
}

func TestTraceRecordsInstructions(t *testing.T) {
	circ := compiler.SinglePPR("Z", 0).SubstituteStabilizer()
	res, err := compiler.Compile(circ)
	if err != nil {
		t.Fatal(err)
	}
	pl := NewPipeline(surface.NewPPRLayout(circ.NLQ, 3), testConfig(3, 0, 1))
	pl.EnableTrace()
	if err := pl.Run(res.Program); err != nil {
		t.Fatal(err)
	}
	tr := pl.Trace()
	if len(tr) == 0 {
		t.Fatal("no trace events")
	}
	// Virtual time must be non-decreasing; ops named.
	for i := 1; i < len(tr); i++ {
		if tr[i].VirtualNs < tr[i-1].VirtualNs {
			t.Fatalf("time regressed at event %d", i)
		}
		if tr[i].Op == "" {
			t.Fatalf("event %d unnamed", i)
		}
	}
	var buf bytes.Buffer
	if err := pl.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "RUN_ESM") {
		t.Fatal("trace JSON missing RUN_ESM")
	}
	// Without tracing, no events accumulate.
	pl2 := NewPipeline(surface.NewPPRLayout(circ.NLQ, 3), testConfig(3, 0, 1))
	if err := pl2.Run(res.Program); err != nil {
		t.Fatal(err)
	}
	if len(pl2.Trace()) != 0 {
		t.Fatal("trace recorded while disabled")
	}
}

// Trace returns the recorded events.
func (p *Pipeline) Trace() []TraceEvent { return p.trace }
