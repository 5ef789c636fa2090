package core

import (
	"testing"

	"xqsim/internal/config"
	"xqsim/internal/decoder"
	"xqsim/internal/microarch"
)

// within checks x against the paper's anchor with a relative tolerance.
func within(t *testing.T, name string, got, paper, tol float64) {
	t.Helper()
	lo, hi := paper*(1-tol), paper*(1+tol)
	if float64(got) < lo || float64(got) > hi {
		t.Errorf("%s = %.0f, paper %.0f (tolerance %.0f%%)", name, got, paper, tol*100)
	}
}

var (
	ratesRR  Rates
	ratesPr  Rates
	ratesPS  Rates
	ratesSet bool
)

func rates(t *testing.T) (Rates, Rates, Rates) {
	t.Helper()
	if !ratesSet {
		d := config.CodeDistance
		ratesRR = MeasureRates(d, config.PhysErrorRate, decoder.SchemeRoundRobin, 1)
		ratesPr = MeasureRates(d, config.PhysErrorRate, decoder.SchemePriority, 1)
		ratesPS = MeasureRates(d, config.PhysErrorRate, decoder.SchemePatchSliding, 1)
		ratesSet = true
	}
	return ratesRR, ratesPr, ratesPS
}

func TestMeasuredRates(t *testing.T) {
	_, r, _ := rates(t)
	// Codeword stream: 26 bits x 8 steps per round for every qubit.
	if r.BitsPerQubitPerRound < 208 || r.BitsPerQubitPerRound > 215 {
		t.Errorf("bits/qubit/round = %.1f", r.BitsPerQubitPerRound)
	}
	if r.SyndromesPerQubitPerWindow <= 0 || r.SyndromesPerQubitPerWindow > 0.1 {
		t.Errorf("syndrome density = %v", r.SyndromesPerQubitPerWindow)
	}
	if r.MatchesPerSyndrome <= 0.4 || r.MatchesPerSyndrome > 1.01 {
		t.Errorf("matches/syndrome = %v", r.MatchesPerSyndrome)
	}
}

func TestCurrentSystemLimits(t *testing.T) {
	// Fig. 14: baseline decode limit ~250, transfer limit ~1,700, and
	// Optimization #1 extends decoding to ~9,800 (>7x improvement).
	rRR, rPr, _ := rates(t)
	d := config.CodeDistance
	decodeOK := func(r Report) bool { return r.DecodeOK }
	transferOK := func(r Report) bool { return r.TransferOK && r.BWOK }

	cur := CurrentSystem(d, false)
	within(t, "current decode limit", float64(cur.ConstraintLimit(rRR, decodeOK)), 250, 0.35)
	within(t, "current transfer limit", float64(cur.ConstraintLimit(rRR, transferOK)), 1700, 0.15)

	opt := CurrentSystem(d, true)
	dec := opt.ConstraintLimit(rPr, decodeOK)
	within(t, "opt1 decode limit", float64(dec), 9800, 0.30)
	if float64(dec)/250 < 7 {
		t.Errorf("Optimization #1 improvement %.1fx, paper reports >7x", float64(dec)/250)
	}
	// Overall limited by the 300K-4K transfer.
	within(t, "current+opt1 overall", float64(opt.MaxQubits(rPr)), 1700, 0.15)
}

func TestNearFutureLimits(t *testing.T) {
	// Fig. 17: RSFQ 970 -> 4,600 with Opts #2/#3; 4K CMOS 1,400 -> 9,800
	// (decode-capped) with voltage scaling.
	_, rPr, _ := rates(t)
	d := config.CodeDistance
	powerOK := func(r Report) bool { return r.PowerOK }

	within(t, "nf-RSFQ base", float64(NearFutureRSFQ(d, false).ConstraintLimit(rPr, powerOK)), 970, 0.15)
	within(t, "nf-RSFQ opt", float64(NearFutureRSFQ(d, true).ConstraintLimit(rPr, powerOK)), 4600, 0.25)
	within(t, "nf-4KCMOS base", float64(NearFutureCMOS4K(d, false).ConstraintLimit(rPr, powerOK)), 1400, 0.15)
	within(t, "nf-4KCMOS vs overall", float64(NearFutureCMOS4K(d, true).MaxQubits(rPr)), 9800, 0.30)
}

func TestFutureLimits(t *testing.T) {
	// Fig. 19: ERSFQ power limit ~102,000; moving the EDU to 4 K drops the
	// power limit to ~8,100 while decoding reaches ~105,000; patch-sliding
	// recovers the final ~59,000-qubit design.
	_, rPr, rPS := rates(t)
	d := config.CodeDistance
	powerOK := func(r Report) bool { return r.PowerOK }
	decodeOK := func(r Report) bool { return r.DecodeOK }

	within(t, "future power", float64(FutureSystem(d, false, false).ConstraintLimit(rPr, powerOK)), 102000, 0.15)
	fe := FutureSystem(d, true, false)
	within(t, "future+EDU4K power", float64(fe.ConstraintLimit(rPr, powerOK)), 8100, 0.15)
	within(t, "future+EDU4K decode", float64(fe.ConstraintLimit(rPr, decodeOK)), 105000, 0.20)
	final := FutureSystem(d, true, true)
	within(t, "final 59K design", float64(final.MaxQubits(rPS)), 59000, 0.15)
	// The final design must also fit the 4 K area budget.
	rep := final.Evaluate(final.MaxQubits(rPS), rPS)
	if !rep.AreaOK {
		t.Errorf("final design violates the area budget: %.1f cm^2", rep.Area4KCm2)
	}
}

// TestFinalDesignAcrossDistances: the final ERSFQ design (Opt #4's
// patch-sliding EDU at 4 K) sustains at least 5,000 physical qubits at
// every code distance from 7 to 19, not only at Table 4's d=15.
func TestFinalDesignAcrossDistances(t *testing.T) {
	if testing.Short() {
		t.Skip("measures rates with a pipeline run per distance")
	}
	for _, d := range []int{7, 9, 11, 15, 19} {
		r := MeasureRates(d, config.PhysErrorRate, decoder.SchemePatchSliding, 1)
		if n := FutureSystem(d, true, true).MaxQubits(r); n < 5000 {
			t.Errorf("final design collapsed at d=%d: %d qubits", d, n)
		}
	}
}

func TestReportViolations(t *testing.T) {
	_, rPr, _ := rates(t)
	cur := CurrentSystem(config.CodeDistance, true)
	rep := cur.Evaluate(1_000_000, rPr)
	if rep.OK() {
		t.Fatal("a megaqubit current system should violate constraints")
	}
	if len(rep.Violations()) == 0 {
		t.Fatal("violations missing")
	}
	ok := cur.Evaluate(500, rPr)
	if !ok.OK() || len(ok.Violations()) != 0 {
		t.Fatalf("500 qubits should be fine: %v", ok)
	}
}

func TestSuccessRateCollapse(t *testing.T) {
	// Fig. 5 shape: success stays high below the constraint point and
	// collapses beyond it.
	_, rPr, _ := rates(t)
	cur := CurrentSystem(7, true) // d=7 toy workload as in Section 2.3
	low := cur.SuccessRate(500, 300, rPr)
	high := cur.SuccessRate(20000, 300, rPr)
	if low < 0.5 {
		t.Errorf("success at 500 qubits = %v, want high", low)
	}
	if high > 0.1 {
		t.Errorf("success at 20000 qubits = %v, want collapsed", high)
	}
	if high >= low {
		t.Error("success must decrease past the violation point")
	}
}

func TestTemperatureAssignments(t *testing.T) {
	d := config.CodeDistance
	cur := CurrentSystem(d, false)
	if cur.TempOf(microarch.UnitPSU) != T300K || cur.TempOf(microarch.UnitQCI) != T4K {
		t.Error("current system temperatures wrong")
	}
	nf := NearFutureRSFQ(d, false)
	if nf.TempOf(microarch.UnitPSU) != T4K || nf.TempOf(microarch.UnitEDU) != T300K {
		t.Error("near-future system temperatures wrong")
	}
	fut := FutureSystem(d, true, true)
	if fut.TempOf(microarch.UnitEDU) != T4K {
		t.Error("future system EDU should be at 4K")
	}
}

func TestGuideline1TransferElimination(t *testing.T) {
	// Moving PSU/TCU to 4 K must eliminate the dominant codeword stream
	// from the 300K-4K boundary.
	_, rPr, _ := rates(t)
	d := config.CodeDistance
	cur := CurrentSystem(d, true)
	nf := NearFutureRSFQ(d, false)
	n := 5000
	curRep := cur.Evaluate(n, rPr)
	nfRep := nf.Evaluate(n, rPr)
	if nfRep.CrossTransferGbps > 0.05*curRep.CrossTransferGbps {
		t.Errorf("guideline #1 did not eliminate cross traffic: %v vs %v",
			nfRep.CrossTransferGbps, curRep.CrossTransferGbps)
	}
}
