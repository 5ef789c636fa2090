package config

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Params is the runtime-tunable subset of the scalability-analysis
// constants. The package-level constants stay the paper's Table 4
// defaults; Params lets a sweep or a command override them from a small
// "key = value" text format without recompiling.
type Params struct {
	PhysErrorRate float64 // physical error rate per operation
	CodeDistance  int     // surface-code distance
	T1QNs         float64 // single-qubit gate latency (ns)
	T2QNs         float64 // two-qubit gate latency (ns)
	TMeasNs       float64 // measurement latency (ns)
	Power4KW      float64 // 4 K cooling budget (W)
	CableGbps     float64 // per-cable bandwidth (Gbps)
	CableHeatW    float64 // per-cable 4 K heat load (W)
	CodewordBits  int     // per-qubit codeword width (bits)
}

// DefaultParams returns the paper's Table 4 values.
func DefaultParams() Params {
	return Params{
		PhysErrorRate: PhysErrorRate,
		CodeDistance:  CodeDistance,
		T1QNs:         T1QNs,
		T2QNs:         T2QNs,
		TMeasNs:       TMeasNs,
		Power4KW:      Power4KBudgetW,
		CableGbps:     CableGbps,
		CableHeatW:    CableHeatW,
		CodewordBits:  CodewordBits,
	}
}

// paramFields maps the textual key of every parameter to its accessors.
// Keys are the struct field names; the format is case-sensitive.
var paramFields = map[string]struct {
	get func(*Params) string
	set func(*Params, string) error
}{
	"phys_error_rate": floatField(func(p *Params) *float64 { return &p.PhysErrorRate }),
	"code_distance":   intField(func(p *Params) *int { return &p.CodeDistance }),
	"t_1q_ns":         floatField(func(p *Params) *float64 { return &p.T1QNs }),
	"t_2q_ns":         floatField(func(p *Params) *float64 { return &p.T2QNs }),
	"t_meas_ns":       floatField(func(p *Params) *float64 { return &p.TMeasNs }),
	"power_4k_w":      floatField(func(p *Params) *float64 { return &p.Power4KW }),
	"cable_gbps":      floatField(func(p *Params) *float64 { return &p.CableGbps }),
	"cable_heat_w":    floatField(func(p *Params) *float64 { return &p.CableHeatW }),
	"codeword_bits":   intField(func(p *Params) *int { return &p.CodewordBits }),
}

func floatField(f func(*Params) *float64) struct {
	get func(*Params) string
	set func(*Params, string) error
} {
	return struct {
		get func(*Params) string
		set func(*Params, string) error
	}{
		get: func(p *Params) string { return strconv.FormatFloat(*f(p), 'g', -1, 64) },
		set: func(p *Params, s string) error {
			v, err := strconv.ParseFloat(s, 64)
			if err != nil {
				return err
			}
			*f(p) = v
			return nil
		},
	}
}

func intField(f func(*Params) *int) struct {
	get func(*Params) string
	set func(*Params, string) error
} {
	return struct {
		get func(*Params) string
		set func(*Params, string) error
	}{
		get: func(p *Params) string { return strconv.Itoa(*f(p)) },
		set: func(p *Params, s string) error {
			v, err := strconv.Atoi(s)
			if err != nil {
				return err
			}
			*f(p) = v
			return nil
		},
	}
}

// ParseParams reads "key = value" lines over the Table 4 defaults. Blank
// lines and '#' comments are ignored; unknown keys, malformed values,
// and duplicate keys are errors. The result is validated before return.
func ParseParams(src string) (Params, error) {
	p := DefaultParams()
	seen := make(map[string]bool)
	for lineNo, raw := range strings.Split(src, "\n") {
		line := strings.TrimSpace(raw)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		key, val, ok := strings.Cut(line, "=")
		if !ok {
			return Params{}, fmt.Errorf("config: line %d: expected \"key = value\", got %q", lineNo+1, line)
		}
		key, val = strings.TrimSpace(key), strings.TrimSpace(val)
		field, known := paramFields[key]
		if !known {
			return Params{}, fmt.Errorf("config: line %d: unknown parameter %q", lineNo+1, key)
		}
		if seen[key] {
			return Params{}, fmt.Errorf("config: line %d: duplicate parameter %q", lineNo+1, key)
		}
		seen[key] = true
		if err := field.set(&p, val); err != nil {
			return Params{}, fmt.Errorf("config: line %d: bad value %q for %q: %v", lineNo+1, val, key, err)
		}
	}
	if err := p.Validate(); err != nil {
		return Params{}, err
	}
	return p, nil
}

// String renders every parameter in the ParseParams format, keys sorted,
// so ParseParams(p.String()) == p for any valid Params.
func (p Params) String() string {
	keys := make([]string, 0, len(paramFields))
	for k := range paramFields {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var sb strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&sb, "%s = %s\n", k, paramFields[k].get(&p))
	}
	return sb.String()
}

// Validate checks physical plausibility: probabilities in (0,1), an odd
// code distance >= 3, and strictly positive latencies and budgets.
func (p Params) Validate() error {
	switch {
	case !(p.PhysErrorRate > 0 && p.PhysErrorRate < 1):
		return fmt.Errorf("config: phys_error_rate %g outside (0,1)", p.PhysErrorRate)
	case p.CodeDistance < 3 || p.CodeDistance%2 == 0:
		return fmt.Errorf("config: code_distance %d must be odd and >= 3", p.CodeDistance)
	case !(p.T1QNs > 0) || !(p.T2QNs > 0) || !(p.TMeasNs > 0):
		return fmt.Errorf("config: gate latencies must be positive (t_1q=%g t_2q=%g t_meas=%g)", p.T1QNs, p.T2QNs, p.TMeasNs)
	case !(p.Power4KW > 0):
		return fmt.Errorf("config: power_4k_w %g must be positive", p.Power4KW)
	case !(p.CableGbps > 0) || !(p.CableHeatW > 0):
		return fmt.Errorf("config: cable parameters must be positive (gbps=%g heat=%g)", p.CableGbps, p.CableHeatW)
	case p.CodewordBits < 1 || p.CodewordBits > 256:
		return fmt.Errorf("config: codeword_bits %d outside [1,256]", p.CodewordBits)
	}
	return nil
}
