package tech

import (
	"math"
	"strings"
	"testing"
)

func TestFmaxMatchesTable4(t *testing.T) {
	// The MITLL library must give ~21 GHz (Table 4) across realistic
	// circuit sizes.
	l := MITLL()
	for _, gates := range []int{100, 10000, 1000000} {
		f := l.FmaxGHz(gates, 30)
		if f < 19.0 || f > 27.0 {
			t.Errorf("fmax(%d gates) = %.2f GHz, want ~21", gates, f)
		}
	}
	// Deep clock trees eventually limit fmax through skew.
	huge := l.FmaxGHz(1<<62, 20)
	if huge >= l.FmaxGHz(1000, 20) {
		t.Error("skew must reduce fmax for enormous clock trees")
	}
}

func TestRSFQPowerStaticAndDynamic(t *testing.T) {
	l := MITLL()
	st, dyn := l.Power(RSFQPowerParams{JJ: 1000, MemJJ: 0, FreqGHz: 21, UtilLogic: 1})
	if st <= 0 || dyn <= 0 {
		t.Fatal("RSFQ power must be positive")
	}
	if math.Abs(st-1000*l.StaticWPerJJ) > 1e-12 {
		t.Errorf("static = %v", st)
	}
	// Static dominates at these utilizations (the RSFQ limitation the
	// paper highlights).
	if dyn > st {
		t.Errorf("RSFQ dynamic (%v) should be below static (%v)", dyn, st)
	}
}

func TestERSFQZeroStaticDoubleDynamic(t *testing.T) {
	l := MITLL()
	p := RSFQPowerParams{JJ: 5000, MemJJ: 1000, FreqGHz: 21, UtilLogic: 0.5, UtilMem: 0.1}
	_, dynR := l.Power(p)
	p.ERSFQ = true
	st, dynE := l.Power(p)
	if st != 0 {
		t.Errorf("ERSFQ static = %v, want 0", st)
	}
	if math.Abs(dynE-2*dynR) > 1e-15 {
		t.Errorf("ERSFQ dynamic %v != 2x RSFQ %v", dynE, dynR)
	}
}

func TestMemVsLogicActivity(t *testing.T) {
	l := MITLL()
	_, allLogic := l.Power(RSFQPowerParams{JJ: 1000, MemJJ: 0, FreqGHz: 21, UtilLogic: 1, UtilMem: 0.1})
	_, allMem := l.Power(RSFQPowerParams{JJ: 1000, MemJJ: 1000, FreqGHz: 21, UtilLogic: 1, UtilMem: 0.1})
	if allMem >= allLogic {
		t.Error("memory junctions must dissipate less dynamic power")
	}
}

// TestPowerOrientedVddMemo pins the memoized supply voltage to a direct
// bisection, bit for bit, on the 4 K design point and on a second
// parameter set, and checks a memo hit allocates nothing.
func TestPowerOrientedVddMemo(t *testing.T) {
	other := FreePDK45(4)
	other.VddV, other.VthV, other.MobilityFactor = 0.9, 0.25, 1.7
	for _, m := range []CMOSModel{FreePDK45(4), other} {
		want := bisectVddV(m.VddV, m.VthV, m.MobilityFactor)
		for i := 0; i < 2; i++ { // the first call fills the memo, the second reads it
			if got := m.PowerOrientedVddV(); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("Vdd=%g Vth=%g mobility=%g: call %d = %v, direct bisection %v",
					m.VddV, m.VthV, m.MobilityFactor, i, got, want)
			}
		}
		if allocs := testing.AllocsPerRun(100, func() { _ = m.PowerOrientedVddV() }); allocs != 0 {
			t.Fatalf("memo hit allocates %.1f/op, want 0", allocs)
		}
	}
	if FreePDK45(4).PowerOrientedVddV() == other.PowerOrientedVddV() {
		t.Fatal("distinct parameter sets share a memo entry")
	}
}

func TestVoltageScalingFactor(t *testing.T) {
	m := FreePDK45(4)
	f := m.VoltageScalingPowerFactor()
	// The paper reports 15.3x; the model must land close.
	if f < 13.5 || f < 0 || f > 17.5 {
		t.Fatalf("voltage scaling factor = %.2f, want ~15.3", f)
	}
	v := m.PowerOrientedVddV()
	if v <= m.VthV || v >= m.VddV {
		t.Fatalf("scaled Vdd = %.3f out of range", v)
	}
	// 300 K: no scaling.
	if FreePDK45(300).VoltageScalingPowerFactor() != 1.0 {
		t.Error("300 K must not scale")
	}
}

func TestCMOSLeakageOnlyAt300K(t *testing.T) {
	hot := FreePDK45(300)
	cold := FreePDK45(4)
	leakH, _ := hot.Power(CMOSPowerParams{Gates: 1000, FreqGHz: 1.5, Util: 0.5})
	leakC, _ := cold.Power(CMOSPowerParams{Gates: 1000, FreqGHz: 1.5, Util: 0.5})
	if leakH <= 0 {
		t.Error("300 K leakage missing")
	}
	if leakC != 0 {
		t.Error("4 K leakage should vanish")
	}
}

func TestVoltageScaledPowerReduced(t *testing.T) {
	cold := FreePDK45(4)
	_, base := cold.Power(CMOSPowerParams{Gates: 1000, FreqGHz: 1.5, Util: 0.5})
	_, scaled := cold.Power(CMOSPowerParams{Gates: 1000, FreqGHz: 1.5, Util: 0.5, VoltageScaled: true})
	ratio := base / scaled
	if ratio < 13 || ratio > 16.5 {
		t.Fatalf("voltage-scaled dynamic reduction = %.2f", ratio)
	}
}

func TestAreaModels(t *testing.T) {
	if MITLL().AreaCm2(1000) <= 0 {
		t.Error("area must be positive")
	}
	if a := MITLL().AreaCm2(1000000); math.Abs(a-1000000*270e-8) > 1e-9 {
		t.Errorf("RSFQ area = %v", a)
	}
	if a := FreePDK45(300).AreaCm2(1000); math.Abs(a-1000*1.9e-8) > 1e-12 {
		t.Errorf("CMOS area = %v", a)
	}
}

func TestKindProperties(t *testing.T) {
	if CMOS300K.Cryogenic() {
		t.Error("300K CMOS is not cryogenic")
	}
	for _, k := range []Kind{CMOS4K, RSFQ, ERSFQ} {
		if !k.Cryogenic() {
			t.Errorf("%v should be cryogenic", k)
		}
	}
	if RSFQ.String() != "RSFQ" || ERSFQ.String() != "ERSFQ" {
		t.Error("names wrong")
	}
}

// TestParseKind pins the names xqestimate and xqd accept: each
// candidate's lowercase String, and nothing else.
func TestParseKind(t *testing.T) {
	for name, want := range map[string]Kind{"300k-cmos": CMOS300K, "4k-cmos": CMOS4K, "rsfq": RSFQ, "ersfq": ERSFQ} {
		if got, err := ParseKind(name); err != nil || got != want {
			t.Errorf("ParseKind(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	for _, name := range []string{"", "RSFQ", "duct-tape"} {
		if _, err := ParseKind(name); err == nil || !strings.Contains(err.Error(), "(have 300k-cmos, 4k-cmos, rsfq, ersfq)") {
			t.Errorf("ParseKind(%q) error = %v", name, err)
		}
	}
}
