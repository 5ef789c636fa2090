// Package estimator implements XQ-estimator: for a target hardware unit,
// system scale, device technology and temperature, it derives the unit's
// clock frequency, power, and area (Fig. 7, left half).
//
// The flow mirrors the paper's: the unit's gate-level structure comes from
// internal/synth (the Verilog substitute), the RSFQ conversion from
// internal/netlist, and the device costing from internal/tech. Validation
// against the paper's MITLL RTL-simulation and AIST post-layout anchors
// lives in validation.go.
package estimator

import (
	"fmt"

	"xqsim/internal/config"
	"xqsim/internal/microarch"
	"xqsim/internal/synth"
	"xqsim/internal/tech"
)

// Scale describes the system size an estimate is produced for.
type Scale struct {
	NPhys    int
	NPatches int
	NData    int
	NAnc     int
	NLQ      int
	D        int
}

// ScaleFor derives the standard accounting for nPhys physical qubits at
// code distance d: patches of 2*(d+1)^2 qubits, half data / half ancilla.
func ScaleFor(nPhys, d int) Scale {
	per := 2 * (d + 1) * (d + 1)
	patches := nPhys / per
	if patches < 1 {
		patches = 1
	}
	return Scale{
		NPhys:    nPhys,
		NPatches: patches,
		NData:    nPhys / 2,
		NAnc:     nPhys / 2,
		NLQ:      patches / 2,
		D:        d,
	}
}

// Options select the microarchitectural variants under estimation.
type Options struct {
	PSU synth.PSUOptions
	TCU synth.TCUOptions
	EDU synth.EDUOptions
	// VoltageScaling applies power-oriented voltage scaling (4 K CMOS).
	VoltageScaling bool
}

// DefaultOptions is the baseline microarchitecture at distance d.
func DefaultOptions(d int) Options {
	return Options{
		PSU: synth.DefaultPSUOptions(),
		EDU: synth.EDUOptions{D: d},
	}
}

// Estimate is the estimator's output for one unit.
type Estimate struct {
	Unit     microarch.Unit
	Tech     tech.Kind
	FreqGHz  float64
	StaticW  float64
	DynamicW float64
	AreaCm2  float64
	JJ       int // RSFQ family only
	Gates    int // CMOS gate count
}

// TotalW returns static plus dynamic power.
func (e Estimate) TotalW() float64 { return e.StaticW + e.DynamicW }

// unitStats sizes a unit at the given scale.
func unitStats(u microarch.Unit, s Scale, o Options) synth.UnitStats {
	switch u {
	case microarch.UnitQID:
		return synth.QID()
	case microarch.UnitPDU:
		return synth.PDU(s.NLQ)
	case microarch.UnitPIU:
		return synth.PIU(s.NPatches)
	case microarch.UnitPSU:
		return synth.PSU(s.NPhys, s.NPatches, o.PSU)
	case microarch.UnitTCU:
		return synth.TCU(s.NPhys, o.TCU)
	case microarch.UnitEDU:
		edu := o.EDU
		if edu.D == 0 {
			edu.D = s.D
		}
		return synth.EDU(s.NAnc, s.NPatches, edu)
	case microarch.UnitPFU:
		return synth.PFU(s.NData)
	case microarch.UnitLMU:
		return synth.LMU(s.NPatches)
	default:
		// The QCI is a passive interface endpoint with no synthesized
		// logic; EstimateAll iterates QID..LMU only, so reaching this is
		// API misuse, not an input condition.
		//xqlint:ignore nopanic unreachable guard: no caller passes UnitQCI or an out-of-range unit
		panic(fmt.Sprintf("estimator: unit %v has no model", u))
	}
}

// utilization returns (logic, memory) duty cycles per unit. These mirror
// the pipeline's cycle accounting: the PSU/TCU stream duty follows from
// the mask-generator sharing degree and the ESM round time; the EDU cell
// array works nearly every cycle during decoding; storage arrays shift at
// the memory activity factor.
func utilization(u microarch.Unit, o Options, freqGHz float64) (logic, mem float64) {
	const memActivity = 0.10
	switch u {
	case microarch.UnitPSU, microarch.UnitTCU:
		cyclesPerRound := float64(config.ESMStepsPerRound * o.PSU.QubitsPerMaskGen)
		avail := freqGHz * config.ESMRoundNs()
		util := cyclesPerRound / avail
		if util > 1 {
			util = 1
		}
		return util, memActivity
	case microarch.UnitEDU:
		if o.EDU.PatchSliding {
			// Window cells serve one patch neighborhood at a time.
			return 0.10, memActivity
		}
		return 0.80, memActivity
	case microarch.UnitPFU:
		return 0.30, memActivity
	case microarch.UnitLMU, microarch.UnitPIU:
		return 0.20, memActivity
	default:
		return 0.10, memActivity
	}
}

// EstimateUnit produces the frequency/power/area estimate of one unit in
// one technology at the given scale.
func EstimateUnit(u microarch.Unit, s Scale, k tech.Kind, o Options) Estimate {
	stats := unitStats(u, s, o)
	est := Estimate{Unit: u, Tech: k, JJ: stats.JJ, Gates: stats.CMOSGates}

	switch k {
	case tech.RSFQ, tech.ERSFQ:
		lib := tech.MITLL()
		est.FreqGHz = lib.FmaxGHz(stats.JJ/8, stats.Depth)
		ul, um := utilization(u, o, est.FreqGHz)
		est.StaticW, est.DynamicW = lib.Power(tech.RSFQPowerParams{
			JJ: stats.JJ, MemJJ: stats.MemJJ, FreqGHz: est.FreqGHz,
			UtilLogic: ul, UtilMem: um, ERSFQ: k == tech.ERSFQ,
		})
		est.AreaCm2 = lib.AreaCm2(stats.JJ)
	case tech.CMOS300K, tech.CMOS4K:
		temp := 300.0
		if k == tech.CMOS4K {
			temp = 4.0
		}
		m := tech.FreePDK45(temp)
		est.FreqGHz = config.Freq300KCMOSGHz
		ul, _ := utilization(u, o, est.FreqGHz)
		est.StaticW, est.DynamicW = m.Power(tech.CMOSPowerParams{
			Gates: stats.CMOSGates, FreqGHz: est.FreqGHz, Util: ul,
			VoltageScaled: o.VoltageScaling && k == tech.CMOS4K,
		})
		est.AreaCm2 = m.AreaCm2(stats.CMOSGates)
	default:
		//xqlint:ignore nopanic unreachable guard: tech.Kind is validated by every cmd flag parser before reaching the estimator
		panic("estimator: unknown technology")
	}
	return est
}

// EstimateAll estimates every hardware unit (QID..LMU) in the given
// technology.
func EstimateAll(s Scale, k tech.Kind, o Options) map[microarch.Unit]Estimate {
	out := make(map[microarch.Unit]Estimate, 8)
	for u := microarch.UnitQID; u <= microarch.UnitLMU; u++ {
		out[u] = EstimateUnit(u, s, k, o)
	}
	return out
}
