package decoder

import (
	"math/rand"
	"testing"

	"xqsim/internal/faults"
	"xqsim/internal/pauli"
	"xqsim/internal/surface"
)

// randomRounds builds a shot of per-round detection-event bitmaps by
// exciting each basis plaquette with probability p per round.
func randomRounds(r *rand.Rand, c surface.Code, basis pauli.Pauli, rounds int, p float64) []*SyndromeBitmap {
	out := make([]*SyndromeBitmap, rounds)
	for i := range out {
		bm := NewSyndromeBitmap(c)
		for _, st := range c.Stabilizers() {
			if st.Basis == basis && r.Float64() < p {
				bm.Set(st.Anc)
			}
		}
		out[i] = bm
	}
	return out
}

// wholeShot XORs every round's events and decodes the result with the
// exact matcher — the oracle every no-pressure stream must reproduce.
func wholeShot(c surface.Code, basis pauli.Pauli, rounds []*SyndromeBitmap) Result {
	cum := NewSyndromeBitmap(c)
	for _, bm := range rounds {
		cum.Xor(bm)
	}
	var sc Scratch
	var res Result
	DecodePatchInto(c, basis, cum, &sc, &res)
	return res
}

func TestNewStreamDecoderValidation(t *testing.T) {
	good := StreamConfig{Code: surface.NewCode(5), Basis: pauli.Z}
	if _, err := NewStreamDecoder(good); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := []StreamConfig{
		{Code: surface.Code{D: 2}, Basis: pauli.Z},
		{Code: surface.Code{D: 1}, Basis: pauli.Z},
		{Code: surface.NewCode(5), Basis: pauli.Y},
		{Code: surface.NewCode(5), Basis: pauli.Z, BufferRounds: -1},
	}
	for i, cfg := range bad {
		if _, err := NewStreamDecoder(cfg); err == nil {
			t.Fatalf("bad config %d accepted", i)
		}
	}
}

// TestStreamWindowInvariance is the tentpole property: splitting a shot
// across decode windows never changes the final correction. Every window
// cadence (including one decode per round and one whole-shot decode) and
// every backend must return the same Result as the whole-shot oracle.
// Run under -race in CI.
func TestStreamWindowInvariance(t *testing.T) {
	r := rand.New(rand.NewSource(81))
	for _, d := range []int{3, 5, 7} {
		c := surface.NewCode(d)
		for _, basis := range []pauli.Pauli{pauli.Z, pauli.X} {
			for trial := 0; trial < 20; trial++ {
				rounds := randomRounds(r, c, basis, 2*d+r.Intn(d), 0.08)
				want := wholeShot(c, basis, rounds)
				for _, name := range BackendNames() {
					b, err := NewBackendByName(name)
					if err != nil {
						t.Fatal(err)
					}
					var ufWant *Result
					for _, win := range []int{1, 2, d, len(rounds), len(rounds) + 5} {
						sd, err := NewStreamDecoder(StreamConfig{
							Code: c, Basis: basis, Backend: b.Clone(), WindowRounds: win,
						})
						if err != nil {
							t.Fatal(err)
						}
						for _, bm := range rounds {
							if !sd.Round(bm) {
								t.Fatalf("%s d=%d win=%d: round dropped with no pressure", name, d, win)
							}
						}
						got := sd.Finish()
						switch name {
						case "matching":
							// The exact matcher must equal the whole-shot
							// oracle bit-for-bit at every cadence.
							if !resultsEqual(want, *got) {
								t.Fatalf("matching d=%d basis=%v win=%d diverged from whole-shot:\nwant %+v\ngot  %+v", d, basis, win, want, *got)
							}
						default:
							// Other backends must be cadence-invariant
							// against themselves.
							if ufWant == nil {
								cp := Result{
									Flips:   append([]surface.Coord(nil), got.Flips...),
									Matches: append([]Match(nil), got.Matches...),
								}
								ufWant = &cp
							} else if !resultsEqual(*ufWant, *got) {
								t.Fatalf("%s d=%d basis=%v win=%d not cadence-invariant:\nwant %+v\ngot  %+v", name, d, basis, win, *ufWant, *got)
							}
						}
						st := sd.Stats()
						if st.Rounds != len(rounds) || st.DroppedRounds != 0 || st.BackpressureRounds != 0 {
							t.Fatalf("%s d=%d win=%d stats = %+v", name, d, win, st)
						}
					}
				}
			}
		}
	}
}

// TestStreamDeterminism replays one shot twice through reset decoders and
// demands identical Results and Stats (the property -shuffle=on stresses:
// no hidden global state).
func TestStreamDeterminism(t *testing.T) {
	c := surface.NewCode(5)
	r := rand.New(rand.NewSource(83))
	rounds := randomRounds(r, c, pauli.Z, 15, 0.1)
	run := func() (Result, StreamStats) {
		sd, err := NewStreamDecoder(StreamConfig{
			Code: c, Basis: pauli.Z, Backend: NewUnionFindBackend(),
			WindowRounds: 5, BudgetCycles: 10, BufferRounds: 4, Policy: faults.PolicyDropOldest,
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, bm := range rounds {
			sd.Round(bm)
		}
		res := *sd.Finish()
		res.Flips = append([]surface.Coord(nil), res.Flips...)
		res.Matches = append([]Match(nil), res.Matches...)
		return res, sd.Stats()
	}
	r1, s1 := run()
	r2, s2 := run()
	if !resultsEqual(r1, r2) || s1 != s2 {
		t.Fatalf("replayed shot diverged:\n%+v %+v\n%+v %+v", r1, s1, r2, s2)
	}
}

// TestStreamBudgetPressureDropsRounds drives a stream whose every window
// overruns a tiny budget: drop-oldest must lose rounds (degrading the
// correction's inputs), backpressure must stall instead and lose nothing.
func TestStreamBudgetPressureDropsRounds(t *testing.T) {
	c := surface.NewCode(7)
	r := rand.New(rand.NewSource(87))
	rounds := randomRounds(r, c, pauli.Z, 70, 0.15)

	for _, policy := range []faults.Policy{faults.PolicyDropOldest, faults.PolicyBackpressure} {
		sd, err := NewStreamDecoder(StreamConfig{
			Code: c, Basis: pauli.Z, WindowRounds: 7,
			BudgetCycles: 1, // every nonempty window overruns
			BufferRounds: 3, Policy: policy,
		})
		if err != nil {
			t.Fatal(err)
		}
		accepted := 0
		for _, bm := range rounds {
			if sd.Round(bm) {
				accepted++
			}
		}
		sd.Finish()
		st := sd.Stats()
		if st.OverBudgetWindows == 0 || st.PeakBacklog == 0 {
			t.Fatalf("%v: no pressure registered: %+v", policy, st)
		}
		switch policy {
		case faults.PolicyDropOldest:
			if st.DroppedRounds == 0 || accepted == len(rounds) {
				t.Fatalf("drop-oldest lost nothing under overload: %+v", st)
			}
			if st.BackpressureRounds != 0 {
				t.Fatalf("drop-oldest backpressured: %+v", st)
			}
		case faults.PolicyBackpressure:
			if st.BackpressureRounds == 0 {
				t.Fatalf("backpressure registered no stall rounds: %+v", st)
			}
			if st.DroppedRounds != 0 || accepted != len(rounds) {
				t.Fatalf("backpressure dropped rounds: %+v", st)
			}
		}
	}
}

// TestStreamDropChangesCorrection pins that dropped rounds actually
// degrade the decode: a dropped round's events must be absent from the
// final correction's syndrome.
func TestStreamDropChangesCorrection(t *testing.T) {
	c := surface.NewCode(5)
	// One isolated event per round so every drop visibly removes a defect.
	mk := func(row, col int) *SyndromeBitmap {
		bm := NewSyndromeBitmap(c)
		bm.Set(surface.Coord{Row: row, Col: col})
		return bm
	}
	sd, err := NewStreamDecoder(StreamConfig{
		Code: c, Basis: pauli.Z, WindowRounds: 1,
		BudgetCycles: 1, BufferRounds: 1, Policy: faults.PolicyDropOldest,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Window 1 overruns its 1-cycle budget by a whole boundary chain; the
	// slip overflows the 1-round buffer immediately and the next round is
	// dropped.
	if !sd.Round(mk(2, 2)) {
		t.Fatal("first round dropped")
	}
	dropped := false
	for i := 0; i < 4; i++ {
		if !sd.Round(mk(1, 1)) {
			dropped = true
			break
		}
	}
	if !dropped {
		t.Fatal("overloaded zero-buffer stream never dropped a round")
	}
	if sd.Stats().DroppedRounds == 0 {
		t.Fatalf("stats = %+v", sd.Stats())
	}
}

// TestStreamQuietRounds asserts nil (quiet) rounds are accepted, cost no
// decode work beyond the window close, and leave the correction empty.
func TestStreamQuietRounds(t *testing.T) {
	c := surface.NewCode(5)
	sd, err := NewStreamDecoder(StreamConfig{Code: c, Basis: pauli.Z, BudgetCycles: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if !sd.Round(nil) {
			t.Fatal("quiet round dropped")
		}
	}
	res := sd.Finish()
	if len(res.Flips) != 0 || len(res.Matches) != 0 {
		t.Fatalf("quiet shot produced a correction %+v", res)
	}
	st := sd.Stats()
	if st.DecodeCycles != 0 || st.OverBudgetWindows != 0 || st.DroppedRounds != 0 {
		t.Fatalf("quiet shot stats = %+v", st)
	}
	if st.Windows != 4 {
		t.Fatalf("20 rounds at cadence 5 closed %d windows, want 4", st.Windows)
	}
}

// TestStreamResetReuses pins that Reset rewinds a stream for the next
// shot and that the steady-state shot loop is allocation-free.
func TestStreamResetReuses(t *testing.T) {
	c := surface.NewCode(7)
	r := rand.New(rand.NewSource(89))
	rounds := randomRounds(r, c, pauli.Z, 21, 0.1)
	want := wholeShot(c, pauli.Z, rounds)

	sd, err := NewStreamDecoder(StreamConfig{Code: c, Basis: pauli.Z})
	if err != nil {
		t.Fatal(err)
	}
	for shot := 0; shot < 3; shot++ {
		for _, bm := range rounds {
			sd.Round(bm)
		}
		if got := sd.Finish(); !resultsEqual(want, *got) {
			t.Fatalf("shot %d diverged after Reset", shot)
		}
		if st := sd.Stats(); st.Rounds != len(rounds) {
			t.Fatalf("shot %d stats = %+v", shot, st)
		}
		sd.Reset()
	}
}

// TestStreamSteadyStateAllocs pins the zero-allocation steady state of
// the full Round/Finish/Reset shot loop for both backends.
func TestStreamSteadyStateAllocs(t *testing.T) {
	c := surface.NewCode(7)
	r := rand.New(rand.NewSource(91))
	rounds := randomRounds(r, c, pauli.Z, 14, 0.1)
	for _, name := range BackendNames() {
		b, err := NewBackendByName(name)
		if err != nil {
			t.Fatal(err)
		}
		sd, err := NewStreamDecoder(StreamConfig{Code: c, Basis: pauli.Z, Backend: b, BudgetCycles: 200})
		if err != nil {
			t.Fatal(err)
		}
		// Warm one shot so every scratch slice reaches its high-water mark.
		for _, bm := range rounds {
			sd.Round(bm)
		}
		sd.Finish()
		sd.Reset()
		allocs := testing.AllocsPerRun(50, func() {
			for _, bm := range rounds {
				sd.Round(bm)
			}
			sd.Finish()
			sd.Reset()
		})
		if allocs != 0 {
			t.Fatalf("%s stream steady state allocates %.1f/shot, want 0", name, allocs)
		}
	}
}

// TestStreamStatsAdd pins the merge rule the parallel stream experiments
// rely on: counts sum, MaxWindowCycles and PeakBacklog take the maximum.
func TestStreamStatsAdd(t *testing.T) {
	a := StreamStats{Rounds: 1, Windows: 2, DecodeCycles: 3, MaxWindowCycles: 9, OverBudgetWindows: 4, PeakBacklog: 2, DroppedRounds: 5, BackpressureRounds: 6}
	b := StreamStats{Rounds: 10, Windows: 20, DecodeCycles: 30, MaxWindowCycles: 7, OverBudgetWindows: 40, PeakBacklog: 8, DroppedRounds: 50, BackpressureRounds: 60}
	want := StreamStats{Rounds: 11, Windows: 22, DecodeCycles: 33, MaxWindowCycles: 9, OverBudgetWindows: 44, PeakBacklog: 8, DroppedRounds: 55, BackpressureRounds: 66}
	ab, ba := a, b
	ab.Add(b)
	ba.Add(a)
	if ab != want || ba != want {
		t.Fatalf("Add: a+b = %+v, b+a = %+v, want %+v", ab, ba, want)
	}
}
