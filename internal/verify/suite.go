package verify

import (
	"context"
	"fmt"
	"hash/fnv"
	"sort"

	"xqsim/internal/xrand"
)

// Depth scales the differential suite: how many generated scenarios each
// check sees and how large they are.
type Depth struct {
	Name string
	// LockstepTrials is the number of co-simulated circuits (complete
	// state comparison after every op; cheap, so run at high volume).
	LockstepTrials int
	LockstepShape  CircuitShape
	// TableauTrials/FrameTrials are circuits per run; Shots is the batch
	// size behind each chi-square.
	TableauTrials int
	FrameTrials   int
	Shots         int
	TableauShape  CircuitShape
	FrameShape    CircuitShape
	// PauliTrials/ISATrials are property-test iterations.
	PauliTrials int
	ISATrials   int
	// DecoderTrials runs per distance in DecoderDistances.
	DecoderTrials    int
	DecoderDistances []int
}

// Quick is the default pre-commit / CI depth (~1s).
var Quick = Depth{
	Name:             "quick",
	LockstepTrials:   300,
	LockstepShape:    CircuitShape{MaxQubits: 6, MaxGates: 48, MaxMeasure: 6, MaxNoise: 3},
	TableauTrials:    24,
	FrameTrials:      16,
	Shots:            2048,
	TableauShape:     CircuitShape{MaxQubits: 4, MaxGates: 12, MaxMeasure: 4, MaxNoise: 2},
	FrameShape:       CircuitShape{MaxQubits: 4, MaxGates: 10, MaxMeasure: 4, MaxNoise: 3},
	PauliTrials:      300,
	ISATrials:        300,
	DecoderTrials:    300,
	DecoderDistances: []int{3, 5, 7},
}

// Standard is the nightly depth.
var Standard = Depth{
	Name:             "standard",
	LockstepTrials:   2000,
	LockstepShape:    CircuitShape{MaxQubits: 7, MaxGates: 64, MaxMeasure: 8, MaxNoise: 4},
	TableauTrials:    128,
	FrameTrials:      64,
	Shots:            4096,
	TableauShape:     CircuitShape{MaxQubits: 5, MaxGates: 24, MaxMeasure: 6, MaxNoise: 3},
	FrameShape:       CircuitShape{MaxQubits: 5, MaxGates: 16, MaxMeasure: 5, MaxNoise: 4},
	PauliTrials:      2000,
	ISATrials:        2000,
	DecoderTrials:    1000,
	DecoderDistances: []int{3, 5, 7, 9, 11},
}

// Deep is the release / post-refactor depth.
var Deep = Depth{
	Name:             "deep",
	LockstepTrials:   10000,
	LockstepShape:    CircuitShape{MaxQubits: 8, MaxGates: 96, MaxMeasure: 10, MaxNoise: 5},
	TableauTrials:    512,
	FrameTrials:      256,
	Shots:            8192,
	TableauShape:     CircuitShape{MaxQubits: 6, MaxGates: 40, MaxMeasure: 8, MaxNoise: 4},
	FrameShape:       CircuitShape{MaxQubits: 6, MaxGates: 24, MaxMeasure: 6, MaxNoise: 5},
	PauliTrials:      10000,
	ISATrials:        10000,
	DecoderTrials:    3000,
	DecoderDistances: []int{3, 5, 7, 9, 11, 13, 15},
}

// DepthByName resolves quick|standard|deep.
func DepthByName(name string) (Depth, error) {
	switch name {
	case "quick":
		return Quick, nil
	case "standard":
		return Standard, nil
	case "deep":
		return Deep, nil
	}
	return Depth{}, fmt.Errorf("verify: unknown depth %q (want quick|standard|deep)", name)
}

// CheckSpec names one differential check. Trials is the number of
// independently-seeded runs at a given depth; Run executes one of them.
type CheckSpec struct {
	Name   string
	Trials func(d Depth) int
	Run    func(seed int64, d Depth) *Failure
}

// AllChecks lists the suite in execution order.
func AllChecks() []CheckSpec {
	return []CheckSpec{
		{
			Name:   "lockstep",
			Trials: func(d Depth) int { return d.LockstepTrials },
			Run: func(seed int64, d Depth) *Failure {
				return CheckLockstep(seed, d.LockstepShape)
			},
		},
		{
			Name:   "tableau",
			Trials: func(d Depth) int { return d.TableauTrials },
			Run: func(seed int64, d Depth) *Failure {
				return CheckTableau(seed, d.TableauShape, d.Shots)
			},
		},
		{
			Name:   "frame",
			Trials: func(d Depth) int { return d.FrameTrials },
			Run: func(seed int64, d Depth) *Failure {
				return CheckFrameSampler(seed, d.FrameShape, d.Shots)
			},
		},
		{
			Name:   "pauli",
			Trials: func(Depth) int { return 1 },
			Run: func(seed int64, d Depth) *Failure {
				return CheckPauli(seed, d.PauliTrials)
			},
		},
		{
			Name:   "isa",
			Trials: func(Depth) int { return 1 },
			Run: func(seed int64, d Depth) *Failure {
				return CheckISA(seed, d.ISATrials)
			},
		},
		{
			Name:   "decoder",
			Trials: func(d Depth) int { return len(d.DecoderDistances) },
			Run:    runDecoderTrial,
		},
		{
			Name:   "backends",
			Trials: func(d Depth) int { return len(d.DecoderDistances) },
			Run:    runBackendsTrial,
		},
	}
}

// decoderDepthTrial maps a trial index to its distance; the seed alone
// cannot carry the distance, so Run recovers it from the trial counter
// embedded by the suite (see Run) or defaults to the first distance.
func runDecoderTrial(seed int64, d Depth) *Failure {
	// The distance is folded into the seed's low bits by the suite
	// (seed = base<<4 | distanceIndex), so a bare replayed seed still
	// selects the same distance.
	idx := int(seed & 0xf)
	if idx >= len(d.DecoderDistances) {
		idx = len(d.DecoderDistances) - 1
	}
	return CheckDecoder(seed, d.DecoderDistances[idx], d.DecoderTrials)
}

// runBackendsTrial mirrors runDecoderTrial's seed-folded distance
// selection for the pluggable-backend differential check.
func runBackendsTrial(seed int64, d Depth) *Failure {
	idx := int(seed & 0xf)
	if idx >= len(d.DecoderDistances) {
		idx = len(d.DecoderDistances) - 1
	}
	return CheckBackends(seed, d.DecoderDistances[idx], d.DecoderTrials)
}

// CheckNames returns the suite's check names in order.
func CheckNames() []string {
	specs := AllChecks()
	names := make([]string, len(specs))
	for i, s := range specs {
		names[i] = s.Name
	}
	return names
}

// Report is the outcome of one suite run.
type Report struct {
	Depth string
	// TrialsRun counts completed trials per check (failing trial included).
	TrialsRun map[string]int
	Failures  []*Failure
}

// OK reports whether every check passed.
func (r Report) OK() bool { return len(r.Failures) == 0 }

// Summary renders a per-check line protocol.
func (r Report) Summary() string {
	names := make([]string, 0, len(r.TrialsRun))
	for n := range r.TrialsRun {
		names = append(names, n)
	}
	sort.Strings(names)
	out := ""
	failed := make(map[string]bool)
	for _, f := range r.Failures {
		failed[f.Check] = true
	}
	for _, n := range names {
		status := "ok"
		if failed[n] {
			status = "FAIL"
		}
		out += fmt.Sprintf("%-8s %4d trials  %s\n", n, r.TrialsRun[n], status)
	}
	return out
}

// checkSeedStream derives the deterministic per-check seed stream: a
// pure function of (baseSeed, check name), so any trial replays from its
// printed seed regardless of which other checks ran.
func checkSeedStream(baseSeed int64, name string) *xrand.Rand {
	h := fnv.New64a()
	_, _ = h.Write([]byte(name)) // hash.Hash documents that Write never fails
	return xrand.New(baseSeed ^ int64(h.Sum64()))
}

// RunCtx executes the suite at the given depth. only restricts it to the
// named checks when non-empty. The first failure of each check stops
// that check (later trials of a broken layer add noise, not signal) but
// the remaining checks still run. The context is checked between
// trials, so an interrupted suite returns the partial report (every
// trial completed so far) instead of dying mid-check. Completed trials
// are unaffected by where the cancellation lands — each trial's seed is
// a pure function of (baseSeed, check, index).
func RunCtx(ctx context.Context, d Depth, baseSeed int64, only map[string]bool) Report {
	rep := Report{Depth: d.Name, TrialsRun: make(map[string]int)}
	for _, spec := range AllChecks() {
		if len(only) > 0 && !only[spec.Name] {
			continue
		}
		seeds := checkSeedStream(baseSeed, spec.Name)
		trials := spec.Trials(d)
		for k := 0; k < trials; k++ {
			if ctx.Err() != nil {
				return rep
			}
			seed := seeds.Int63()
			if spec.Name == "decoder" || spec.Name == "backends" {
				seed = seed&^0xf | int64(k%len(d.DecoderDistances))
			}
			rep.TrialsRun[spec.Name]++
			if f := spec.Run(seed, d); f != nil {
				f.Depth = d.Name
				rep.Failures = append(rep.Failures, f)
				break
			}
		}
	}
	return rep
}

// Replay re-runs exactly one trial of one check from its reported seed.
// It returns nil when the trial passes (e.g. after a fix) and the
// reproduced failure otherwise.
func Replay(check string, seed int64, d Depth) (*Failure, error) {
	for _, spec := range AllChecks() {
		if spec.Name == check {
			f := spec.Run(seed, d)
			if f != nil {
				f.Depth = d.Name
			}
			return f, nil
		}
	}
	return nil, fmt.Errorf("verify: unknown check %q (have %v)", check, CheckNames())
}
