// Package faults implements the simulator's deterministic fault-injection
// layer: a seed-driven schedule of control-processor faults threaded
// through the cycle-level pipeline (internal/microarch) and the memory
// experiment (internal/core.MemoryExperiment.ErrorRate), so degradation
// curves — logical error rate and success rate versus injected fault
// rate — can be measured end-to-end instead of only scored analytically.
//
// Three fault classes are modeled, mirroring the pressure points the
// paper's constraint analysis identifies (decode latency, syndrome
// buffering, cross-temperature transfer):
//
//   - decoder stalls: a per-window latency spike multiplying the EDU's
//     decode cycles, which backs syndromes up in the buffer;
//   - syndrome-buffer overflow: when the backlog exceeds the configured
//     capacity, either the oldest rounds are dropped (their detection
//     events never reach the EDU, so their errors go uncorrected) or the
//     ESM schedule backpressures (data qubits idle and decohere for the
//     excess rounds);
//   - cross-temperature link corruption: a per-round chance that the
//     QCI->EDU syndrome transfer is corrupted and must be retransmitted,
//     with bounded retries under exponential backoff; exhausting the
//     retry budget loses the round.
//
// Every draw comes from a dedicated xrand stream derived from the run
// seed, so identical (seed, Config) pairs reproduce identical fault
// schedules — the same determinism contract the rest of the simulator
// keeps (a property the xqlint determinism analyzer enforces and the
// regression tests pin bit-for-bit).
package faults

import (
	"fmt"

	"xqsim/internal/xrand"
)

// Policy selects how the syndrome buffer handles overflow.
type Policy int

// Overflow policies.
const (
	// PolicyDropOldest silently discards the oldest buffered rounds: the
	// control processor stays on schedule but the dropped rounds'
	// detection events are lost, so the errors they witnessed are never
	// corrected.
	PolicyDropOldest Policy = iota
	// PolicyBackpressure stalls the ESM schedule until the decoder
	// catches up: no syndromes are lost, but the data qubits idle and
	// accumulate decoherence for the excess rounds.
	PolicyBackpressure
	numPolicies
)

// String names the policy.
func (p Policy) String() string {
	switch p {
	case PolicyDropOldest:
		return "drop-oldest"
	case PolicyBackpressure:
		return "backpressure"
	}
	return fmt.Sprintf("policy(%d)", int(p))
}

// ParsePolicy resolves a policy name ("drop-oldest" or "backpressure").
func ParsePolicy(s string) (Policy, error) {
	for p := Policy(0); p < numPolicies; p++ {
		if p.String() == s {
			return p, nil
		}
	}
	return 0, fmt.Errorf("faults: unknown overflow policy %q (want drop-oldest or backpressure)", s)
}

// Config describes the injected fault environment. The zero value
// injects nothing; Enabled reports whether any fault class is active.
type Config struct {
	// StallProb is the per-decode-window probability of a decoder stall
	// spike; StallFactor is the decode-cycle multiplier during a spike
	// (values <= 1 disable the class).
	StallProb   float64
	StallFactor float64

	// BufferRounds is the syndrome buffer's capacity in ESM rounds
	// (0 = unbounded); Policy selects the overflow behaviour.
	BufferRounds int
	Policy       Policy

	// LinkErrorProb is the per-round probability that the QCI->EDU
	// syndrome transfer is corrupted; LinkRetries bounds the retransmit
	// attempts per round (each retry redraws corruption and pays an
	// exponentially growing backoff). A round still corrupted after the
	// last retry is lost.
	LinkErrorProb float64
	LinkRetries   int
}

// Enabled reports whether the configuration injects any fault at all.
func (c Config) Enabled() bool {
	return (c.StallProb > 0 && c.StallFactor > 1) || c.LinkErrorProb > 0
}

// Validate rejects configurations the injector cannot honor.
func (c Config) Validate() error {
	if c.StallProb < 0 || c.StallProb > 1 {
		return fmt.Errorf("faults: stall probability %v outside [0,1]", c.StallProb)
	}
	if c.LinkErrorProb < 0 || c.LinkErrorProb > 1 {
		return fmt.Errorf("faults: link error probability %v outside [0,1]", c.LinkErrorProb)
	}
	if c.StallProb > 0 && c.StallFactor < 1 {
		return fmt.Errorf("faults: stall factor %v must be >= 1", c.StallFactor)
	}
	if c.BufferRounds < 0 {
		return fmt.Errorf("faults: buffer capacity %d rounds is negative", c.BufferRounds)
	}
	if c.LinkRetries < 0 {
		return fmt.Errorf("faults: link retry budget %d is negative", c.LinkRetries)
	}
	if c.Policy < 0 || c.Policy >= numPolicies {
		return fmt.Errorf("faults: unknown overflow policy %d", int(c.Policy))
	}
	return nil
}

// Totals accumulates the fault accounting of one run. The pipeline copies
// them into microarch.Metrics; MemoryExperiment.ErrorRate sums them across
// trials (integer sums, so the reduction is order-independent and the
// totals stay deterministic under parallel scheduling).
type Totals struct {
	// StallCycles counts the extra EDU cycles injected by stall spikes.
	StallCycles uint64
	// StallWindows counts decode windows hit by a spike.
	StallWindows int
	// DroppedRounds counts syndrome rounds whose detection events were
	// lost (buffer overflow under drop-oldest, or link-retry exhaustion).
	DroppedRounds int
	// BackpressureRounds counts ESM rounds the schedule stalled under
	// PolicyBackpressure (data qubits idling).
	BackpressureRounds int
	// Retransmits counts cross-temperature link retransmissions and
	// BackoffCycles the cycles spent waiting in exponential backoff.
	Retransmits   int
	BackoffCycles uint64
}

// Add folds other into t.
func (t *Totals) Add(other Totals) {
	t.StallCycles += other.StallCycles
	t.StallWindows += other.StallWindows
	t.DroppedRounds += other.DroppedRounds
	t.BackpressureRounds += other.BackpressureRounds
	t.Retransmits += other.Retransmits
	t.BackoffCycles += other.BackoffCycles
}

// seedStream is the offset mixed into the run seed so the injector's
// stream never collides with the backend's noise or tableau streams
// (which use seed, seed+1, seed+2).
const seedStream = 0x7a0e1d

// RoundOutcome is the injector's verdict for one syndrome round.
type RoundOutcome struct {
	// DropEvents marks the round's detection events as lost: the backend
	// must not fold them into the decode window.
	DropEvents bool
	// Retransmits is the number of link retransmissions the round needed
	// and BackoffCycles the exponential-backoff cost they incurred.
	Retransmits   int
	BackoffCycles uint64
}

// WindowOutcome is the injector's verdict for one decode window.
type WindowOutcome struct {
	// StallCycles is the extra decode latency injected this window.
	StallCycles uint64
	// Stalled marks the window as spiked.
	Stalled bool
	// BackpressureRounds is how many rounds the ESM must idle before the
	// next window (PolicyBackpressure overflow).
	BackpressureRounds int
}

// Injector is the per-run fault scheduler. It is not safe for concurrent
// use; every simulation (pipeline run or memory trial) owns its own
// injector, exactly as it owns its own noise models.
type Injector struct {
	cfg Config //xqlint:persistent injector configuration; Reset rewinds streams, not config
	rng *xrand.Rand

	// buf models the syndrome buffer: rounds queued behind the decoder,
	// with overflow resolved under the configured policy. The machinery
	// is shared with decoder.StreamDecoder (which feeds it from decode
	// latency instead of stall draws).
	buf BacklogTracker

	totals Totals
}

// NewInjector derives the injector's dedicated stream from the run seed.
// A nil return means the configuration injects nothing; callers treat a
// nil *Injector as fault-free (its methods are nil-safe).
func NewInjector(cfg Config, seed int64) *Injector {
	if !cfg.Enabled() {
		return nil
	}
	return &Injector{
		cfg: cfg,
		rng: xrand.New(seed + seedStream),
		buf: NewBacklogTracker(cfg.BufferRounds, cfg.Policy),
	}
}

// Reset rewinds the injector to the state NewInjector(cfg, seed) would
// return: totals cleared, backlog drained, and the dedicated stream
// reseeded. Nil-safe, so fault-free runs can call it unconditionally. It
// is the scratch-reuse hook for shot loops that replay many seeds through
// one injector; a reset injector reproduces a fresh one's schedule
// bit-for-bit.
func (in *Injector) Reset(seed int64) {
	if in == nil {
		return
	}
	in.rng.Seed(seed + seedStream)
	in.buf.Reset()
	in.totals = Totals{}
}

// Round draws the link-fault outcome for one syndrome round and consumes
// one scheduled overflow drop, if any. Nil-safe.
func (in *Injector) Round() RoundOutcome {
	if in == nil {
		return RoundOutcome{}
	}
	var out RoundOutcome
	if in.buf.ConsumeDrop() {
		out.DropEvents = true
	}
	if in.cfg.LinkErrorProb > 0 && in.rng.Float64() < in.cfg.LinkErrorProb {
		// Retransmit under exponential backoff: attempt k costs 2^k
		// cycles of waiting before the redraw.
		lost := true
		for k := 0; k < in.cfg.LinkRetries; k++ {
			out.Retransmits++
			out.BackoffCycles += uint64(1) << uint(k)
			if in.rng.Float64() >= in.cfg.LinkErrorProb {
				lost = false
				break
			}
		}
		if lost && !out.DropEvents {
			out.DropEvents = true
			in.totals.DroppedRounds++
		}
	}
	in.totals.Retransmits += out.Retransmits
	in.totals.BackoffCycles += out.BackoffCycles
	return out
}

// Window draws the stall outcome for one decode window of d rounds whose
// fault-free decode costs baseCycles, advances the syndrome-buffer
// backlog model, and resolves any overflow under the configured policy.
// Nil-safe.
func (in *Injector) Window(baseCycles uint64, d int) WindowOutcome {
	if in == nil {
		return WindowOutcome{}
	}
	var out WindowOutcome
	if in.cfg.StallProb > 0 && in.rng.Float64() < in.cfg.StallProb {
		out.Stalled = true
		out.StallCycles = uint64(float64(baseCycles) * (in.cfg.StallFactor - 1))
		if out.StallCycles == 0 {
			out.StallCycles = 1 // a spike always costs something
		}
		// While the decoder is busy for an extra (factor-1) windows'
		// worth of time, the next windows' syndromes queue behind it.
		in.buf.Add(int(in.cfg.StallFactor-1) * d)
		in.totals.StallWindows++
		in.totals.StallCycles += out.StallCycles
	} else {
		// A clean window drains one window's worth of backlog.
		in.buf.Drain(d)
	}
	out.BackpressureRounds = in.buf.Overflow()
	return out
}

// Totals returns the accounting accumulated so far (the injector's own
// stall/link classes plus the buffer tracker's drop/backpressure
// counts). Nil-safe.
func (in *Injector) Totals() Totals {
	if in == nil {
		return Totals{}
	}
	t := in.totals
	t.Add(in.buf.Totals())
	return t
}
