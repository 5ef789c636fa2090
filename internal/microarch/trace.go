package microarch

import (
	"encoding/json"
	"io"
)

// TraceEvent records one executed instruction for debugging/profiling.
type TraceEvent struct {
	Index     int     `json:"index"`
	Op        string  `json:"op"`
	VirtualNs float64 `json:"virtual_ns"`
	ESMRounds int     `json:"esm_rounds"`
	Decode    uint64  `json:"decode_cycles_sum"`
	ActiveP   int     `json:"active_patches"`
}

// EnableTrace turns on per-instruction tracing; WriteTrace serializes
// the recorded events.
func (p *Pipeline) EnableTrace() { p.traceOn = true }

// traceStep appends one event (no-op unless tracing is enabled).
func (p *Pipeline) traceStep(index int, op string) {
	if !p.traceOn {
		return
	}
	p.trace = append(p.trace, TraceEvent{
		Index:     index,
		Op:        op,
		VirtualNs: p.M.VirtualNs,
		ESMRounds: p.M.ESMRounds,
		Decode:    p.M.DecodeCyclesSum,
		ActiveP:   len(p.B.Layout.ActiveESMPatches()),
	})
}

// WriteTrace serializes the trace as JSON lines.
func (p *Pipeline) WriteTrace(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, e := range p.trace {
		if err := enc.Encode(e); err != nil {
			return err
		}
	}
	return nil
}
