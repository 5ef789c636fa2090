// Package server is the xqd daemon's service layer: a bounded-worker job
// scheduler over the simulation library, with a durable result store
// (internal/store), idempotent content-hashed submissions, per-job
// watchdogs, bounded retry with backoff, admission control that sheds
// load, and graceful drain that checkpoints in-flight sweeps.
//
// The package is exempt from the repo's determinism analyzer (it owns
// wall clocks and timers), but everything it schedules is not: a job is
// a pure function of its normalized spec, which is what makes the
// durable cache and the bit-for-bit resume guarantee work.
package server

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"

	"xqsim/internal/core"
	"xqsim/internal/estimator"
	"xqsim/internal/microarch"
	"xqsim/internal/sweep"
	"xqsim/internal/tech"
)

// JobSpec describes one unit of work. Kind selects the payload fields;
// Normalize fills defaults and canonicalizes before hashing, so two
// submissions that mean the same work share one job hash.
type JobSpec struct {
	Kind string `json:"kind"` // simulate | sweep | estimate

	// simulate: run a workload through the control-processor pipeline
	// with the noisy stabilizer backend and report the distribution.
	Workload string  `json:"workload,omitempty"` // random | qft2 | qaoa | ppr
	LQ       int     `json:"lq,omitempty"`
	PPRs     int     `json:"pprs,omitempty"`
	Product  string  `json:"product,omitempty"`
	D        int     `json:"d,omitempty"`
	PhysErr  float64 `json:"phys_error,omitempty"`
	Shots    int     `json:"shots,omitempty"`
	Seed     int64   `json:"seed,omitempty"`

	// sweep: reproduce the named experiments (sweep.ExperimentIDs).
	Experiments []string `json:"experiments,omitempty"`

	// estimate: per-unit frequency/power/area for one technology.
	Tech  string `json:"tech,omitempty"` // 300k-cmos | 4k-cmos | rsfq | ersfq
	NPhys int    `json:"nphys,omitempty"`
}

// Normalize validates the spec and fills defaults in place, returning
// the canonical form whose JSON encoding is the job's identity.
func (s JobSpec) Normalize() (JobSpec, error) {
	switch s.Kind {
	case "simulate":
		// Fill every input, then let the workload table clear the ones
		// its generator does not read.
		if s.Workload == "" {
			s.Workload = "random"
		}
		if s.LQ <= 0 {
			s.LQ = 4
		}
		if s.PPRs <= 0 {
			s.PPRs = 10
		}
		if s.Product == "" {
			s.Product = "ZZZ"
		}
		w, err := s.workload().Canonical()
		if err != nil {
			return s, err
		}
		s.LQ, s.PPRs, s.Product = w.LQ, w.PPRs, w.Product
		if s.D <= 0 {
			s.D = 3
		}
		if s.PhysErr <= 0 {
			s.PhysErr = 0.001
		}
		if s.Shots <= 0 {
			s.Shots = 256
		}
		if s.Seed == 0 {
			s.Seed = 1
		}
		// Reject what the build or the run would die on (a bad product,
		// too many rotations or qubits, an even or enormous d, a
		// probability outside [0, 1), a tally too large to allocate)
		// before the job is stored and resumed on every restart.
		if err := w.Check(); err != nil {
			return s, err
		}
		if err := core.CheckRun(w.NLQ(), s.D, s.PhysErr); err != nil {
			return s, err
		}
		s.Experiments, s.Tech, s.NPhys = nil, "", 0
	case "sweep":
		if len(s.Experiments) == 0 {
			return s, fmt.Errorf("sweep job needs at least one experiment (have %v)", sweep.ExperimentIDs())
		}
		known := make(map[string]bool, len(sweep.ExperimentIDs()))
		for _, id := range sweep.ExperimentIDs() {
			known[id] = true
		}
		seen := make(map[string]bool, len(s.Experiments))
		canon := make([]string, 0, len(s.Experiments))
		for _, id := range s.Experiments {
			cid := sweep.CanonicalExperimentID(id)
			if !known[cid] {
				return s, fmt.Errorf("unknown experiment %q (have %v)", id, sweep.ExperimentIDs())
			}
			if !seen[cid] {
				seen[cid] = true
				canon = append(canon, cid)
			}
		}
		sort.Strings(canon)
		s.Experiments = canon
		if s.Shots <= 0 {
			s.Shots = sweep.DefaultExperimentShots
		}
		if s.Seed == 0 {
			s.Seed = 1
		}
		s.Workload, s.LQ, s.PPRs, s.Product, s.D, s.PhysErr = "", 0, 0, "", 0, 0
		s.Tech, s.NPhys = "", 0
	case "estimate":
		if s.Tech == "" {
			s.Tech = "rsfq"
		}
		if _, err := tech.ParseKind(s.Tech); err != nil {
			return s, err
		}
		if s.NPhys <= 0 {
			s.NPhys = 10000
		}
		if err := core.CheckPhysQubits(s.NPhys); err != nil {
			return s, err
		}
		if s.D <= 0 {
			s.D = 15
		}
		if err := core.CheckCode(s.D, 0); err != nil {
			return s, err
		}
		s.Workload, s.LQ, s.PPRs, s.Product, s.PhysErr, s.Shots, s.Seed = "", 0, 0, "", 0, 0, 0
		s.Experiments = nil
	default:
		return s, fmt.Errorf("unknown job kind %q (have simulate, sweep, estimate)", s.Kind)
	}
	return s, nil
}

// Hash is the job's content identity: a truncated SHA-256 of the
// normalized spec's canonical JSON. Identical work hashes identically,
// which is what makes submission idempotent across processes.
func (s JobSpec) Hash() string {
	b, err := json.Marshal(s)
	if err != nil {
		// JobSpec has no unmarshalable fields; keep the signature clean.
		b = []byte(fmt.Sprintf("%+v", s))
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])[:16]
}

// Outcome is the durable record of a finished job ("done/<hash>" in the
// store). Result holds the job's pinned JSON payload verbatim, so
// serving a cached outcome is bit-for-bit identical to the first run.
type Outcome struct {
	OK       bool            `json:"ok"`
	Error    string          `json:"error,omitempty"`
	Attempts int             `json:"attempts"`
	Result   json.RawMessage `json:"result,omitempty"`
}

// workload is the simulate spec's entry in core's workload table.
func (s JobSpec) workload() core.Workload {
	return core.Workload{Kind: s.Workload, LQ: s.LQ, PPRs: s.PPRs, Product: s.Product, Seed: s.Seed}
}

// executeSimulate runs the functional pipeline and reports the outcome
// distribution plus the run's headline accounting.
func executeSimulate(ctx context.Context, s JobSpec, opts core.RunOptions) (json.RawMessage, error) {
	circ, err := s.workload().Circuit()
	if err != nil {
		return nil, err
	}
	circ = circ.SubstituteStabilizer()
	dist, m, err := core.RunShotsOpt(ctx, circ, s.D, s.PhysErr, s.Shots, s.Seed, opts)
	if err != nil {
		return nil, err
	}
	out := struct {
		Workload      string    `json:"workload"`
		LQ            int       `json:"lq"`
		Distribution  []float64 `json:"distribution"`
		ESMRounds     int       `json:"esm_rounds"`
		DecodeWindows int       `json:"decode_windows"`
		Instructions  int       `json:"instructions"`
	}{circ.Name, circ.NLQ, dist, m.ESMRounds, m.DecodeWindows, m.Instructions}
	return json.Marshal(out)
}

// executeEstimate reports per-unit estimates in fixed unit order (QID
// through LMU), so the payload bytes are deterministic.
func executeEstimate(s JobSpec) (json.RawMessage, error) {
	kind, err := tech.ParseKind(s.Tech)
	if err != nil {
		return nil, err
	}
	scale := estimator.ScaleFor(s.NPhys, s.D)
	ests := estimator.EstimateAll(scale, kind, estimator.DefaultOptions(s.D))
	type unitOut struct {
		Unit     string  `json:"unit"`
		FreqGHz  float64 `json:"freq_ghz"`
		StaticW  float64 `json:"static_w"`
		DynamicW float64 `json:"dynamic_w"`
		TotalW   float64 `json:"total_w"`
		AreaCm2  float64 `json:"area_cm2"`
	}
	var units []unitOut
	var totW, totA float64
	for u := microarch.UnitQID; u <= microarch.UnitLMU; u++ {
		e := ests[u]
		units = append(units, unitOut{u.String(), e.FreqGHz, e.StaticW, e.DynamicW, e.TotalW(), e.AreaCm2})
		totW += e.TotalW()
		totA += e.AreaCm2
	}
	out := struct {
		Tech    string    `json:"tech"`
		NPhys   int       `json:"nphys"`
		D       int       `json:"d"`
		Units   []unitOut `json:"units"`
		TotalW  float64   `json:"total_w"`
		AreaCm2 float64   `json:"area_cm2"`
	}{s.Tech, s.NPhys, s.D, units, totW, totA}
	return json.Marshal(out)
}
