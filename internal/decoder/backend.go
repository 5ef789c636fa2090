package decoder

import (
	"fmt"
	"sort"

	"xqsim/internal/pauli"
	"xqsim/internal/surface"
)

// Backend is one EDU decode implementation behind a common interface: it
// consumes the bit-packed syndrome of one patch window and produces the
// correction plus a modeled cycle cost, so alternative decoders (the
// exact spike/token matcher, union-find, ...) can be raced against each
// other on accuracy and latency in the streaming decoder.
//
// Contract, pinned by verify.CheckBackends and FuzzUnionFind:
//
//   - the correction's own syndrome must equal the input syndrome exactly
//     (error + correction is syndrome-free), for every input — physically
//     realizable or not;
//   - decoding is a pure function of the syndrome: identical inputs give
//     identical Results on the same backend, on a fresh backend, and on a
//     Clone;
//   - when every cluster fits the exact matcher (FitsExactMatcher: at
//     most 20 syndromes), the total correction weight is never below
//     ReferenceDecodePatch's, which is then minimum-weight. A larger
//     cluster falls back to greedy matching, and a backend may beat it.
//
// A Backend owns private scratch and is single-goroutine; Clone gives
// each worker its own.
type Backend interface {
	// Name is the registry key ("matching", "union-find", ...).
	Name() string
	// Decode writes the correction for one window's syndrome into res
	// (whose slices are truncated and reused) and returns the modeled
	// EDU cycle cost of producing it.
	Decode(c surface.Code, basis pauli.Pauli, syn *SyndromeBitmap, res *Result) uint64
	// Clone returns a backend of the same kind with its own scratch.
	Clone() Backend
}

// backendFactories is the registry; construction stays behind factories
// so every caller gets private scratch.
var backendFactories = map[string]func() Backend{
	"matching":   func() Backend { return NewMatchingBackend() },
	"union-find": func() Backend { return NewUnionFindBackend() },
}

// BackendNames lists the registered backends in deterministic order.
func BackendNames() []string {
	names := make([]string, 0, len(backendFactories))
	for name := range backendFactories {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// NewBackendByName constructs a registered backend.
func NewBackendByName(name string) (Backend, error) {
	if f, ok := backendFactories[name]; ok {
		return f(), nil
	}
	return nil, fmt.Errorf("decoder: unknown backend %q (have %v)", name, BackendNames())
}

// MatchingBackend adapts the production spike/token matcher
// (DecodePatchInto: exact memoized matching per cluster) to the Backend
// interface. Its corrections are bit-identical to ReferenceDecodePatch.
type MatchingBackend struct {
	sc Scratch
}

// NewMatchingBackend returns the exact matcher with fresh scratch.
func NewMatchingBackend() *MatchingBackend { return &MatchingBackend{} }

// Name implements Backend.
func (b *MatchingBackend) Name() string { return "matching" }

// Clone implements Backend.
func (b *MatchingBackend) Clone() Backend { return NewMatchingBackend() }

// Decode implements Backend via DecodePatchInto. Its cost is the
// priority-encoder window price of the one basis decoded, so the
// tournament and the pipeline charge the same cycles for the same
// matches.
func (b *MatchingBackend) Decode(c surface.Code, basis pauli.Pauli, syn *SyndromeBitmap, res *Result) uint64 {
	DecodePatchInto(c, basis, syn, &b.sc, res)
	return WindowCycles(SchemePriority, c.D, res.Matches, nil, 0, 0)
}
