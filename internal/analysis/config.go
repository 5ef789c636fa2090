package analysis

import "strings"

// Config is the analyzer suite's small allowlist configuration. Paths in
// the prefix/exempt lists are module-relative ("internal/stab"); an entry
// matches a package when it equals the package's relative path or is a
// prefix of it at a path boundary.
type Config struct {
	// ModulePath is the module's import-path prefix ("xqsim").
	ModulePath string

	// SimPackages lists the package trees held to the determinism
	// invariant: a seed must fully determine a run.
	SimPackages []string
	// DeterminismExempt lists packages excused from the determinism
	// analyzer. internal/xrand is the sanctioned randomness wrapper;
	// internal/server and internal/store are the xqd daemon's service
	// layer, which legitimately reads wall clocks (watchdogs, retry
	// backoff, Retry-After). The simulation they schedule stays under
	// the invariant — jobs are pure functions of (config, seed, shots).
	DeterminismExempt []string
	// DeterminismBannedImports are import paths simulation packages may
	// not depend on directly.
	DeterminismBannedImports []string
	// DeterminismBannedCalls are fully-qualified functions (in
	// types.Func.FullName form) that read nondeterministic state.
	DeterminismBannedCalls []string

	// LibraryPackages lists the package trees held to the nopanic
	// invariant. cmd/* and examples/* are deliberately absent: a CLI's
	// main is the right place for os.Exit.
	LibraryPackages []string

	// ErrignoreAllow lists callee name prefixes (types.Func.FullName
	// form) whose error results may be dropped: writers that are
	// documented to never fail, and terminal-print helpers whose error
	// has no actionable handler.
	ErrignoreAllow []string

	// ExhaustiveSentinelPrefixes marks constants that are counting
	// sentinels rather than enum members ("numOpcodes").
	ExhaustiveSentinelPrefixes []string
	// ExhaustiveMinMembers is the smallest constant set treated as an
	// enum; types with fewer declared constants are ignored.
	ExhaustiveMinMembers int
}

// DefaultConfig returns the repo's enforced configuration for the module
// rooted at modulePath.
func DefaultConfig(modulePath string) *Config {
	return &Config{
		ModulePath:        modulePath,
		SimPackages:       []string{"internal"},
		DeterminismExempt: []string{"internal/xrand", "internal/server", "internal/store"},
		DeterminismBannedImports: []string{
			"math/rand",
			"math/rand/v2",
			"crypto/rand",
		},
		DeterminismBannedCalls: []string{
			"time.Now",
			"time.Since",
			"time.Until",
			"time.Tick",
			"time.After",
			"time.AfterFunc",
			"time.NewTimer",
			"time.NewTicker",
		},
		LibraryPackages: []string{"internal"},
		ErrignoreAllow: []string{
			// Documented to never return a non-nil error.
			"(*strings.Builder).",
			"(*bytes.Buffer).",
			// Terminal prints in CLI tools: no actionable handler.
			"fmt.Print",
			"fmt.Printf",
			"fmt.Println",
		},
		// numOpcodes, NumKinds, NumUnits: counting sentinels, not members.
		ExhaustiveSentinelPrefixes: []string{"num", "Num"},
		ExhaustiveMinMembers:       2,
	}
}

// relPath strips the module prefix from an import path; the module root
// package maps to "".
func (c *Config) relPath(importPath string) string {
	if importPath == c.ModulePath {
		return ""
	}
	return strings.TrimPrefix(importPath, c.ModulePath+"/")
}

// pathMatches reports whether rel equals entry or sits below it.
func pathMatches(rel, entry string) bool {
	return rel == entry || strings.HasPrefix(rel, entry+"/")
}

func matchesAny(rel string, entries []string) bool {
	for _, e := range entries {
		if pathMatches(rel, e) {
			return true
		}
	}
	return false
}

// isSimPackage reports whether the package is held to the determinism
// invariant.
func (c *Config) isSimPackage(rel string) bool {
	return matchesAny(rel, c.SimPackages) && !matchesAny(rel, c.DeterminismExempt)
}

// isLibraryPackage reports whether the package is held to the nopanic
// invariant.
func (c *Config) isLibraryPackage(rel string) bool {
	return matchesAny(rel, c.LibraryPackages)
}

// errignoreAllowed reports whether the named callee's error result may be
// discarded.
func (c *Config) errignoreAllowed(fullName string) bool {
	for _, p := range c.ErrignoreAllow {
		if strings.HasPrefix(fullName, p) {
			return true
		}
	}
	return false
}

// isSentinelConst reports whether a constant name is a counting sentinel
// excluded from exhaustiveness.
func (c *Config) isSentinelConst(name string) bool {
	for _, p := range c.ExhaustiveSentinelPrefixes {
		if strings.HasPrefix(name, p) {
			return true
		}
	}
	return false
}
