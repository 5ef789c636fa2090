package netlist

import (
	"math/rand"
	"testing"
)

// fullAdder builds a 1-bit full adder: 2 XOR, 2 AND, 1 OR.
func fullAdder() *Netlist {
	n := New("fa", 3) // a, b, cin
	axb := n.Add(XOR, 0, 1)
	sum := n.Add(XOR, axb, 2)
	c1 := n.Add(AND, 0, 1)
	c2 := n.Add(AND, axb, 2)
	cout := n.Add(OR, c1, c2)
	n.MarkOutput(sum)
	n.MarkOutput(cout)
	return n
}

func TestCountsAndNets(t *testing.T) {
	n := fullAdder()
	c := n.Counts()
	if c[XOR] != 2 || c[AND] != 2 || c[OR] != 1 {
		t.Fatalf("counts = %v", c)
	}
	if n.NumNets() != 3+5 {
		t.Fatalf("nets = %d", n.NumNets())
	}
}

func TestDepths(t *testing.T) {
	n := fullAdder()
	d := n.Depths()
	// Gate order: axb(1), sum(2), c1(1), c2(2), cout(3).
	want := []int{1, 2, 1, 2, 3}
	for i, w := range want {
		if d[i] != w {
			t.Fatalf("depth[%d] = %d, want %d (%v)", i, d[i], w, d)
		}
	}
	if n.PipelineDepth() != 3 {
		t.Fatalf("pipeline depth = %d", n.PipelineDepth())
	}
}

func TestFanouts(t *testing.T) {
	n := New("fan", 1)
	var outs []int
	for i := 0; i < 5; i++ {
		outs = append(outs, n.Add(NOT, 0))
	}
	f := n.Fanouts()
	if f[0] != 5 {
		t.Fatalf("fanout of input = %d", f[0])
	}
	for _, o := range outs {
		if f[o] != 0 {
			t.Fatalf("unused output has fanout %d", f[o])
		}
	}
}

func TestUndefinedNetPanics(t *testing.T) {
	n := New("bad", 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on undefined net")
		}
	}()
	n.Add(AND, 0, 99)
}

func TestConvertSFQFullAdder(t *testing.T) {
	n := fullAdder()
	s := n.ConvertSFQ()
	if s.LogicGates != 5 {
		t.Fatalf("logic gates = %d", s.LogicGates)
	}
	// Balancing: sum reads axb(d1) and cin(d0) at depth 2: cin needs 1 DFF.
	// c2 reads axb(d1), cin(d0): cin needs 1. cout reads c1(d1), c2(d2):
	// c1 needs 1. Total 3 DFFs.
	if s.BalanceDFFs != 3 {
		t.Fatalf("balance DFFs = %d, want 3", s.BalanceDFFs)
	}
	// Data splitters: nets with fanout>1: a(2), b(2), cin(2), axb(2) ->
	// 1 splitter each = 4.
	if s.DataSplitters != 4 {
		t.Fatalf("data splitters = %d, want 4", s.DataSplitters)
	}
	// Clock tree spans 5 logic + 3 DFFs = 8 clocked -> 7 splitters.
	if s.ClockSplitters != 7 {
		t.Fatalf("clock splitters = %d, want 7", s.ClockSplitters)
	}
	if s.PipelineDepth != 3 {
		t.Fatalf("depth = %d", s.PipelineDepth)
	}
	if s.TotalGates() != 5+3+4+7+s.PTLBuffers {
		t.Fatal("total mismatch")
	}
}

func TestConvertSFQBalancedCircuitNeedsNoDFFs(t *testing.T) {
	// A tree where all inputs arrive at the same depth needs no balancing.
	n := New("tree", 4)
	a := n.Add(AND, 0, 1)
	b := n.Add(AND, 2, 3)
	n.MarkOutput(n.Add(OR, a, b))
	s := n.ConvertSFQ()
	if s.BalanceDFFs != 0 {
		t.Fatalf("balanced tree got %d DFFs", s.BalanceDFFs)
	}
}

func TestConvertSFQRandomInvariants(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		n := New("rand", 4+r.Intn(4))
		for g := 0; g < 30; g++ {
			a := r.Intn(n.NumNets())
			b := r.Intn(n.NumNets())
			n.Add([]Kind{AND, OR, XOR}[r.Intn(3)], a, b)
		}
		s := n.ConvertSFQ()
		if s.LogicGates != 30 {
			t.Fatalf("logic gates = %d", s.LogicGates)
		}
		if s.BalanceDFFs < 0 || s.ClockSplitters < 29 {
			t.Fatalf("suspicious conversion: %+v", s)
		}
		if s.PipelineDepth < 1 || s.PipelineDepth > 30 {
			t.Fatalf("depth out of range: %d", s.PipelineDepth)
		}
		if s.TotalGates() < 30 {
			t.Fatal("total too small")
		}
	}
}

func TestStorageGatesCounted(t *testing.T) {
	n := New("mem", 2)
	d := n.Add(DFF, 0)
	nd := n.Add(NDRO, 1)
	n.MarkOutput(n.Add(AND, d, nd))
	s := n.ConvertSFQ()
	if s.StorageGates != 2 {
		t.Fatalf("storage gates = %d", s.StorageGates)
	}
}

func BenchmarkConvertSFQ(b *testing.B) {
	// A mask-generator-sized circuit.
	n := New("bench", 64)
	r := rand.New(rand.NewSource(1))
	for g := 0; g < 5000; g++ {
		a := r.Intn(n.NumNets())
		c := r.Intn(n.NumNets())
		n.Add([]Kind{AND, OR, XOR}[r.Intn(3)], a, c)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.ConvertSFQ()
	}
}

// NumNets returns the total net count.
func (n *Netlist) NumNets() int { return n.nextNet }

// TotalGates is every element in the converted netlist.
func (s SFQStats) TotalGates() int {
	return s.LogicGates + s.StorageGates + s.BalanceDFFs + s.DataSplitters + s.ClockSplitters + s.PTLBuffers
}
