// Package tech models the four temperature/device candidates of the
// XQ-estimator: 300 K CMOS, 4 K CMOS, 4 K RSFQ, and 4 K ERSFQ.
//
// The RSFQ-family library follows the MITLL-process magnitudes: per-gate
// timing (setup/hold, fanout-dependent skew) feeds the paper's Eq. (1)
// fmax model; power is per-junction, with a static bias term (zero for
// ERSFQ) and an effective switching energy that includes bias-network and
// interconnect overhead. The CMOS model implements the CC-Model-style
// cryogenic extensions: phonon-scattering mobility gain, threshold-voltage
// design shift, and leakage collapse at 4 K, which together enable the
// power-oriented voltage scaling of Section 5.4.4.
//
// Absolute per-junction/per-gate constants are calibration points tied to
// the paper's reported scaling anchors (see DESIGN.md §2); the relative
// behaviour — frequency ratios, optimization factors, voltage-scaling
// gain — emerges from the models.
package tech

import (
	"fmt"
	"math"
	"strings"
	"sync"
)

// Kind identifies a temperature/device candidate.
type Kind int

// Technology candidates.
const (
	CMOS300K Kind = iota
	CMOS4K
	RSFQ
	ERSFQ
)

var kindNames = [...]string{"300K-CMOS", "4K-CMOS", "RSFQ", "ERSFQ"}

// String names the candidate.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "?"
}

// ParseKind resolves a candidate's lowercase name (300k-cmos, 4k-cmos,
// rsfq, ersfq): the names xqestimate's -tech flag and xqd's estimate
// specs take.
func ParseKind(name string) (Kind, error) {
	names := make([]string, len(kindNames))
	for k, n := range kindNames {
		names[k] = strings.ToLower(n)
		if names[k] == name {
			return Kind(k), nil
		}
	}
	return 0, fmt.Errorf("unknown technology %q (have %s)", name, strings.Join(names, ", "))
}

// Cryogenic reports whether the technology lives at the 4 K stage.
func (k Kind) Cryogenic() bool { return k != CMOS300K }

// RSFQLib is an RSFQ-family cell library.
type RSFQLib struct {
	Name string
	// Timing (per gate): CCT_min = Setup + max(Hold, skew), and skew
	// grows with the clock-tree fanout depth.
	SetupPs        float64
	HoldPs         float64
	SkewPerLevelPs float64
	// StaticWPerJJ is the bias-network dissipation per junction
	// (zero for ERSFQ).
	StaticWPerJJ float64
	// SwitchEnergyJ is the effective energy per junction switching event,
	// including bias-network and PTL overhead (ERSFQ doubles it).
	SwitchEnergyJ float64
	// AreaUm2PerJJ includes PTL routing overhead.
	AreaUm2PerJJ float64
}

// MITLL returns the MITLL-SFQ5ee-magnitude library used for the
// scalability study (the paper's open-source library choice).
func MITLL() RSFQLib {
	return RSFQLib{
		Name:           "MITLL-SFQ5ee",
		SetupPs:        30.0,
		HoldPs:         8.0,
		SkewPerLevelPs: 0.55,
		StaticWPerJJ:   0.136e-6, // calibrated: Fig 17(a) 970-qubit anchor
		SwitchEnergyJ:  1.9e-18,  // calibrated: Fig 19(a) 102K-qubit anchor
		AreaUm2PerJJ:   270,
	}
}

// AIST returns the AIST 10 kA/cm^2 process magnitudes used for the
// post-layout validation circuits (slightly faster, denser process).
func AIST() RSFQLib {
	return RSFQLib{
		Name:           "AIST-ADP",
		SetupPs:        26.0,
		HoldPs:         7.0,
		SkewPerLevelPs: 0.50,
		StaticWPerJJ:   0.150e-6,
		SwitchEnergyJ:  1.7e-18,
		AreaUm2PerJJ:   210,
	}
}

// FmaxGHz evaluates the paper's Eq. (1) for a converted circuit: after the
// timing-adjustment step minimizes the clock/data skew, the residual
// per-gate skew grows with the clock splitter-tree depth (log2 of the
// clocked-gate count) and with the data-pipeline depth (accumulated PTL
// jitter along the longest path).
func (l RSFQLib) FmaxGHz(clockedGates, pipelineDepth int) float64 {
	levels := 1.0
	if clockedGates > 1 {
		levels = math.Log2(float64(clockedGates))
	}
	skew := l.SkewPerLevelPs*levels + 0.45*l.SkewPerLevelPs*float64(pipelineDepth)
	cct := l.SetupPs + math.Max(l.HoldPs, skew)
	return 1000.0 / cct
}

// RSFQPower evaluates one unit's power.
//
//	static  = StaticWPerJJ * JJ                   (RSFQ only)
//	dynamic = E * f * (uLogic*(JJ-mem) + uMem*mem + clockFrac*JJ)
//
// where uLogic/uMem are the unit's duty cycles and clockFrac accounts for
// the always-switching clock distribution network. ERSFQ doubles the
// switching energy and eliminates static power.
type RSFQPowerParams struct {
	JJ        int
	MemJJ     int
	FreqGHz   float64
	UtilLogic float64
	UtilMem   float64
	ERSFQ     bool
}

// ClockNetworkFraction is the share of junctions toggling every cycle as
// part of clock distribution regardless of data activity.
const ClockNetworkFraction = 0.035

// Power returns (static, dynamic) watts for the unit.
func (l RSFQLib) Power(p RSFQPowerParams) (staticW, dynamicW float64) {
	if !p.ERSFQ {
		staticW = l.StaticWPerJJ * float64(p.JJ)
	}
	e := l.SwitchEnergyJ
	if p.ERSFQ {
		e *= 2
	}
	logicJJ := float64(p.JJ - p.MemJJ)
	eff := p.UtilLogic*logicJJ + p.UtilMem*float64(p.MemJJ) + ClockNetworkFraction*float64(p.JJ)
	dynamicW = e * p.FreqGHz * 1e9 * eff
	return staticW, dynamicW
}

// AreaCm2 returns the unit's area.
func (l RSFQLib) AreaCm2(jj int) float64 { return float64(jj) * l.AreaUm2PerJJ * 1e-8 }

// CMOSModel is the cryo-extended FreePDK45-style device model.
type CMOSModel struct {
	Name  string
	TempK float64
	// Device point.
	VddV float64
	VthV float64
	// MobilityFactor is the carrier-mobility gain relative to 300 K
	// (phonon scattering frozen out at 4 K).
	MobilityFactor float64
	// LeakFracAt300K is leakage power as a fraction of dynamic power at
	// the 300 K design point; leakage is negligible at 4 K.
	LeakFracAt300K float64
	// DynWPerGateGHz is the dynamic power per gate per GHz at the 300 K
	// design voltage (effective C * Vdd0^2), the calibration constant
	// anchored to Fig. 17(b)'s 1,400-qubit limit.
	DynWPerGateGHz float64
	// AreaUm2PerGate at 45 nm.
	AreaUm2PerGate float64
}

// FreePDK45 returns the 300 K design point.
func FreePDK45(tempK float64) CMOSModel {
	m := CMOSModel{
		Name:           "FreePDK45",
		TempK:          tempK,
		VddV:           1.1,
		VthV:           0.46,
		MobilityFactor: 1.0,
		LeakFracAt300K: 0.0625,
		DynWPerGateGHz: 3.96e-6, // calibrated: Fig 17(b) 1,400-qubit anchor
		AreaUm2PerGate: 1.9,
	}
	if tempK <= 77 {
		// Cryogenic extension: mobility gain and the design-enabled
		// threshold shift (leakage collapse permits a low-Vth corner).
		m.MobilityFactor = 2.4
		m.VthV = 0.17
	}
	return m
}

// delayModel is the alpha-power-law gate delay (relative units).
func delayModel(vdd, vth, mobility float64) float64 {
	const alpha = 1.3
	return vdd / (mobility * math.Pow(vdd-vth, alpha))
}

// PowerOrientedVddV returns the minimum supply voltage at which the 4 K
// device matches the 300 K design point's gate delay (i.e. no performance
// loss), found by bisection. At 300 K it returns the nominal Vdd.
//
// The bisection depends only on VddV, VthV and MobilityFactor, and every
// voltage-scaled unit estimate asks for it, so each parameter set is
// solved once per process (vddMemo).
func (m CMOSModel) PowerOrientedVddV() float64 {
	if m.TempK > 77 {
		return m.VddV
	}
	k := vddKey{math.Float64bits(m.VddV), math.Float64bits(m.VthV), math.Float64bits(m.MobilityFactor)}
	if v, ok := vddMemo.Load(k); ok {
		return v.(float64)
	}
	v := bisectVddV(m.VddV, m.VthV, m.MobilityFactor)
	vddMemo.Store(k, v)
	return v
}

// vddKey is the bit pattern of PowerOrientedVddV's three inputs, so that
// equal inputs always hit, NaN included.
type vddKey struct{ vdd, vth, mobility uint64 }

var vddMemo sync.Map // vddKey -> float64

// bisectVddV finds the lowest Vdd in (vth+0.01, vdd] whose gate delay at
// the given mobility is no worse than the 300 K design point's.
func bisectVddV(vdd, vth, mobility float64) float64 {
	ref := delayModel(1.1, 0.46, 1.0)
	lo, hi := vth+0.01, vdd
	for i := 0; i < 60; i++ {
		mid := (lo + hi) / 2
		if delayModel(mid, vth, mobility) <= ref {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi
}

// VoltageScalingPowerFactor is the total power reduction of
// power-oriented voltage scaling at 4 K relative to the 300 K design
// point: the dynamic CV^2 gain plus the eliminated leakage. This is the
// paper's 15.3x (Section 5.4.4).
func (m CMOSModel) VoltageScalingPowerFactor() float64 {
	if m.TempK > 77 {
		return 1.0
	}
	v := m.PowerOrientedVddV()
	dynGain := (m.VddV / v) * (m.VddV / v)
	return dynGain * (1 + m.LeakFracAt300K)
}

// CMOSPowerParams evaluates a unit built in CMOS.
type CMOSPowerParams struct {
	Gates         int
	FreqGHz       float64
	Util          float64
	VoltageScaled bool // apply power-oriented voltage scaling (4 K only)
}

// Power returns (static, dynamic) watts. Static is leakage.
func (m CMOSModel) Power(p CMOSPowerParams) (staticW, dynamicW float64) {
	dyn := m.DynWPerGateGHz * float64(p.Gates) * p.FreqGHz * (0.3 + 0.7*p.Util)
	leak := 0.0
	if m.TempK > 77 {
		leak = dyn * m.LeakFracAt300K
	}
	if p.VoltageScaled && m.TempK <= 77 {
		dyn /= m.VoltageScalingPowerFactor() / (1 + m.LeakFracAt300K) // pure CV^2 part
	}
	return leak, dyn
}

// AreaCm2 returns the unit area in CMOS.
func (m CMOSModel) AreaCm2(gates int) float64 {
	return float64(gates) * m.AreaUm2PerGate * 1e-8
}
