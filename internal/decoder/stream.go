package decoder

import (
	"fmt"

	"xqsim/internal/faults"
	"xqsim/internal/pauli"
	"xqsim/internal/surface"
)

// StreamConfig configures one real-time streaming decode: syndrome
// rounds arrive one at a time (as detection-event bitmaps), the backend
// decodes every WindowRounds rounds, and each window's decode latency is
// measured against the per-round cycle budget. A window that overruns
// its budget queues the slip in a faults.BacklogTracker; once the
// backlog exceeds BufferRounds the buffer overflows under Policy —
// drop-oldest loses upcoming rounds' detection events (so the final
// correction degrades measurably), backpressure stalls the schedule (the
// caller idles its data qubits for the reported rounds).
type StreamConfig struct {
	Code  surface.Code
	Basis pauli.Pauli
	// Backend is the decode implementation (nil: the exact matcher).
	Backend Backend
	// WindowRounds is the decode cadence in ESM rounds (<=0: Code.D, one
	// decode per ESM window, the pipeline's cadence).
	WindowRounds int
	// BudgetCycles is the EDU cycle budget per ESM round; 0 disables
	// latency pressure (every window decodes "in time").
	BudgetCycles uint64
	// BufferRounds caps the syndrome backlog in rounds (0 = unbounded);
	// Policy resolves overflow.
	BufferRounds int
	Policy       faults.Policy
}

// StreamStats is the accounting of one streamed shot.
type StreamStats struct {
	// Rounds counts syndrome rounds offered, Windows the decode windows
	// closed.
	Rounds  int
	Windows int
	// DecodeCycles sums the backend's modeled cycle cost across windows;
	// MaxWindowCycles is the worst single window.
	DecodeCycles    uint64
	MaxWindowCycles uint64
	// OverBudgetWindows counts windows whose decode overran their cycle
	// budget; PeakBacklog is the deepest the syndrome buffer got.
	OverBudgetWindows int
	PeakBacklog       int
	// DroppedRounds counts rounds whose detection events were lost to
	// buffer overflow; BackpressureRounds counts schedule-stall rounds
	// under PolicyBackpressure.
	DroppedRounds      int
	BackpressureRounds int
}

// Add folds other into s: the counts sum, and MaxWindowCycles and
// PeakBacklog take the maximum. Both are order-independent, so per-shot
// or per-worker stats merge to the same totals in any order.
func (s *StreamStats) Add(other StreamStats) {
	s.Rounds += other.Rounds
	s.Windows += other.Windows
	s.DecodeCycles += other.DecodeCycles
	s.MaxWindowCycles = max(s.MaxWindowCycles, other.MaxWindowCycles)
	s.OverBudgetWindows += other.OverBudgetWindows
	s.PeakBacklog = max(s.PeakBacklog, other.PeakBacklog)
	s.DroppedRounds += other.DroppedRounds
	s.BackpressureRounds += other.BackpressureRounds
}

// StreamDecoder consumes a stream of per-round detection events and
// maintains the decode of the accumulated syndrome. Because detection
// events XOR-telescope (round r's events are flip_r ^ flip_{r-1}), the
// accumulated bitmap after any prefix equals that prefix's net flip
// syndrome, so the final correction is exactly invariant under the
// window cadence — splitting a shot across windows never changes
// Finish's result (pinned by TestStreamWindowInvariance and
// FuzzStreamDecode). What the cadence does change is latency: each
// window close pays the backend's decode cost against the round budget,
// which is how falling behind turns into dropped rounds and a measurably
// degraded logical error rate.
//
// A StreamDecoder is single-goroutine; Reset rewinds it for the next
// shot with zero steady-state allocations.
type StreamDecoder struct {
	cfg     StreamConfig //xqlint:persistent stream configuration, fixed by NewStreamDecoder
	backend Backend      //xqlint:persistent decode backend; its scratch is overwritten by each window decode
	buf     faults.BacklogTracker

	cum     *SyndromeBitmap // XOR of every accepted round's events
	res     Result
	pending int // rounds since the last window close
	stats   StreamStats
}

// NewStreamDecoder validates the configuration and builds a decoder.
func NewStreamDecoder(cfg StreamConfig) (*StreamDecoder, error) {
	if cfg.Code.D < 3 || cfg.Code.D%2 == 0 {
		return nil, fmt.Errorf("decoder: stream: invalid code distance %d", cfg.Code.D)
	}
	if cfg.Basis != pauli.Z && cfg.Basis != pauli.X {
		return nil, fmt.Errorf("decoder: stream: basis must be Z or X, got %v", cfg.Basis)
	}
	if cfg.BufferRounds < 0 {
		return nil, fmt.Errorf("decoder: stream: buffer capacity %d rounds is negative", cfg.BufferRounds)
	}
	if cfg.WindowRounds <= 0 {
		cfg.WindowRounds = cfg.Code.D
	}
	if cfg.Backend == nil {
		cfg.Backend = NewMatchingBackend()
	}
	return &StreamDecoder{
		cfg:     cfg,
		backend: cfg.Backend,
		buf:     faults.NewBacklogTracker(cfg.BufferRounds, cfg.Policy),
		cum:     NewSyndromeBitmap(cfg.Code),
	}, nil
}

// Backend returns the decode implementation in use.
func (s *StreamDecoder) Backend() Backend { return s.backend }

// Round offers one syndrome round's detection events (nil: a quiet
// round) and reports whether the round was accepted. A false return
// means the buffer overflowed earlier and this round's events were
// dropped before reaching the EDU: the errors they witnessed stay
// uncorrected. Closing a window (every WindowRounds rounds) decodes the
// accumulated syndrome and charges its latency against the budget.
func (s *StreamDecoder) Round(events *SyndromeBitmap) bool {
	s.stats.Rounds++
	dropped := s.buf.ConsumeDrop()
	if !dropped && events != nil {
		s.cum.Xor(events)
	}
	s.pending++
	if s.pending >= s.cfg.WindowRounds {
		s.closeWindow()
	}
	return !dropped
}

// closeWindow decodes the accumulated syndrome (the provisional
// real-time correction) and feeds the decode latency into the backlog
// model.
func (s *StreamDecoder) closeWindow() {
	w := s.pending
	s.pending = 0
	cycles := s.backend.Decode(s.cfg.Code, s.cfg.Basis, s.cum, &s.res)
	s.stats.Windows++
	s.stats.DecodeCycles += cycles
	if cycles > s.stats.MaxWindowCycles {
		s.stats.MaxWindowCycles = cycles
	}
	if s.cfg.BudgetCycles == 0 || w == 0 {
		return
	}
	budget := s.cfg.BudgetCycles * uint64(w)
	if cycles > budget {
		// The decoder is still busy when the next rounds arrive: the
		// overrun, in round-equivalents (rounded up), queues behind it.
		s.stats.OverBudgetWindows++
		lag := cycles - budget
		s.buf.Add(int((lag + s.cfg.BudgetCycles - 1) / s.cfg.BudgetCycles))
	} else {
		// Spare budget drains queued rounds.
		s.buf.Drain(int((budget - cycles) / s.cfg.BudgetCycles))
	}
	if b := s.buf.Backlog(); b > s.stats.PeakBacklog {
		s.stats.PeakBacklog = b
	}
	s.buf.Overflow()
}

// Finish closes any partial window and returns the final correction:
// the backend's decode of the accumulated detection-event parity. The
// Result's slices are reused by the next decode on this stream. Absent
// drops, the returned correction is bit-identical for every window
// cadence and equals a single whole-shot decode.
func (s *StreamDecoder) Finish() *Result {
	if s.pending > 0 || s.stats.Windows == 0 {
		s.closeWindow()
	}
	return &s.res
}

// Stats returns the stream accounting, folding in the buffer tracker's
// drop/backpressure counts.
func (s *StreamDecoder) Stats() StreamStats {
	st := s.stats
	t := s.buf.Totals()
	st.DroppedRounds = t.DroppedRounds
	st.BackpressureRounds = t.BackpressureRounds
	return st
}

// Reset rewinds the stream for the next shot, reusing every allocation.
func (s *StreamDecoder) Reset() {
	s.cum.Reset()
	s.res.Flips = s.res.Flips[:0]
	s.res.Matches = s.res.Matches[:0]
	s.pending = 0
	s.stats = StreamStats{}
	s.buf.Reset()
}
