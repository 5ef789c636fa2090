package surface

import (
	"testing"

	"xqsim/internal/pauli"
	"xqsim/internal/stab"
)

func TestESMCircuitNoiselessDeterministic(t *testing.T) {
	// With no noise, detection events never fire after the first round:
	// stabilizer outcomes repeat exactly.
	c := NewCode(3)
	if density := scalarSyndromeDensity(c.ESMCircuit(4, 0, 0), 4, len(c.Stabilizers()), 20, 1); density != 0 {
		t.Fatalf("noiseless detection density = %v, want 0", density)
	}
}

func TestESMCircuitStructure(t *testing.T) {
	c := NewCode(3)
	rounds := 3
	circ := c.ESMCircuit(rounds, 0.001, 0.001)
	stabs := len(c.Stabilizers())
	if circ.Measurements() != rounds*stabs {
		t.Fatalf("measurements = %d, want %d", circ.Measurements(), rounds*stabs)
	}
	if circ.N != c.DataQubits()+stabs {
		t.Fatalf("qubits = %d", circ.N)
	}
}

func TestESMCircuitNoiseBridge(t *testing.T) {
	// Circuit-level depolarizing noise must produce detection-event
	// densities of the same order as the phenomenological rate the
	// backend uses: with p per CX endpoint and per measurement, each
	// ancilla sees O(10) fault locations per round, so the density should
	// sit within [2p, 30p] (Tomita & Svore's regime).
	c := NewCode(5)
	p := 0.002
	density := scalarSyndromeDensity(c.ESMCircuit(6, p, p), 6, len(c.Stabilizers()), 150, 7)
	if density < 2*p || density > 30*p {
		t.Fatalf("circuit-level detection density %v out of the phenomenological regime for p=%v", density, p)
	}
}

func TestESMCircuitDetectsInjectedError(t *testing.T) {
	// A deterministic X error on a data qubit between rounds must flip
	// the adjacent Z-plaquette outcomes from the next round on. Build two
	// rounds, injecting via a certain X-flip channel placed mid-circuit:
	// easiest construction — run one noiseless round, then append X and a
	// second round.
	c := NewCode(3)
	stabs := c.Stabilizers()
	one := c.ESMCircuit(1, 0, 0)
	// Append: X on data (1,1), then round 2 operations (rebuild manually
	// by generating a fresh 2-round circuit with a flip channel at p=1 in
	// between is not expressible; instead compare two 2-round circuits).
	_ = one
	base := c.ESMCircuit(2, 0, 0)
	rec0 := stab.NewFrameSampler(base, 3).Sample()

	injected := c.ESMCircuit(1, 0, 0)
	injected.X(c.DataIndex(Coord{Row: 1, Col: 1}))
	// Second round: regenerate by appending the ops of a 1-round circuit.
	second := c.ESMCircuit(1, 0, 0)
	injected.Ops = append(injected.Ops, second.Ops...)
	rec1 := stab.NewFrameSampler(injected, 3).Sample()

	flipped := 0
	for i, st := range stabs {
		if rec0[len(stabs)+i] == rec1[len(stabs)+i] {
			continue
		}
		flipped++
		// Only plaquettes adjacent to (1,1) may flip.
		adjacent := false
		for _, q := range st.Data {
			if q == (Coord{Row: 1, Col: 1}) {
				adjacent = true
			}
		}
		if !adjacent {
			t.Fatalf("non-adjacent plaquette %v flipped", st.Anc)
		}
	}
	// An X error flips exactly the adjacent Z-plaquettes (two of them for
	// the interior qubit (1,1) at d=3).
	if flipped != 2 {
		t.Fatalf("flipped plaquettes = %d, want 2", flipped)
	}
}

// TestMemoryCircuitStructure pins the memory experiment's record
// layout and its noise placement: the final ESM round and the data
// readout are noise-free.
func TestMemoryCircuitStructure(t *testing.T) {
	c := NewCode(3)
	const rounds = 3
	stabs := len(c.Stabilizers())
	circ := c.MemoryCircuit(rounds, 0.01, 0.01)
	if want := rounds*stabs + c.DataQubits(); circ.Measurements() != want {
		t.Fatalf("measurements = %d, want %d", circ.Measurements(), want)
	}
	// No noise op may appear after the last noisy round's measurements:
	// walk ops and record the index of the last noise channel and the
	// index of the first measurement of round rounds-1.
	lastNoise, measSeen, finalRoundStart := -1, 0, -1
	for i, op := range circ.Ops {
		switch op.Kind {
		case stab.OpDepolarize1, stab.OpFlipX, stab.OpFlipZ:
			lastNoise = i
		case stab.OpMeasureZ:
			if measSeen == (rounds-1)*stabs {
				finalRoundStart = i
			}
			measSeen++
		}
	}
	if finalRoundStart < 0 || lastNoise > finalRoundStart {
		t.Fatalf("noise op at %d after the last noisy round's measurements (final round starts at op %d)", lastNoise, finalRoundStart)
	}
}

// TestMemoryCircuitReadoutConsistency: the transversal data readout
// happens with no noise after the final ESM round, so per shot each
// Z-plaquette's data-bit parity must equal its final-round ancilla
// outcome, and with zero noise the logical-Z parity is exactly 0
// (|0...0> is a +1 eigenstate of the logical Z).
func TestMemoryCircuitReadoutConsistency(t *testing.T) {
	c := NewCode(3)
	const rounds = 3
	stabs := c.Stabilizers()
	dataBase := rounds * len(stabs)
	check := func(p float64, shots int) {
		t.Helper()
		circ := c.MemoryCircuit(rounds, p, p)
		bs, err := stab.NewBatchFrameSampler(circ, 9)
		if err != nil {
			t.Fatal(err)
		}
		bs.SampleInto(shots, func(shot int, rec []bool) {
			for i, st := range stabs {
				if st.Basis != pauli.Z {
					continue
				}
				parity := false
				for _, q := range st.Data {
					if rec[dataBase+c.DataIndex(q)] {
						parity = !parity
					}
				}
				if parity != rec[(rounds-1)*len(stabs)+i] {
					t.Fatalf("p=%v shot %d: Z-plaquette %d data parity %v != final-round outcome %v",
						p, shot, i, parity, rec[(rounds-1)*len(stabs)+i])
				}
			}
			if p == 0 {
				parity := false
				for _, q := range c.LogicalZ() {
					if rec[dataBase+c.DataIndex(q)] {
						parity = !parity
					}
				}
				if parity {
					t.Fatalf("noiseless shot %d: logical-Z parity flipped", shot)
				}
			}
		})
	}
	check(0, 70)
	check(0.02, 192)
}

// scalarSyndromeDensity samples shots of an ESM circuit of the given
// rounds one at a time and returns the fraction of non-trivial detection
// events (outcome changes between consecutive rounds) per ancilla per
// round after the first.
func scalarSyndromeDensity(circ *stab.Circuit, rounds, stabs, shots int, seed int64) float64 {
	fs := stab.NewFrameSampler(circ, seed)
	events, total := 0, 0
	for s := 0; s < shots; s++ {
		rec := fs.Sample()
		for r := 1; r < rounds; r++ {
			for i := 0; i < stabs; i++ {
				if rec[r*stabs+i] != rec[(r-1)*stabs+i] {
					events++
				}
				total++
			}
		}
	}
	if total == 0 {
		return 0
	}
	return float64(events) / float64(total)
}
