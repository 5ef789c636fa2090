// Package netlist provides the gate-level intermediate representation the
// XQ-estimator synthesizes and analyzes. It substitutes for the paper's
// Verilog + Yosys/Design Compiler flow (Fig. 9): circuits are built as
// gate graphs, then transformed for the RSFQ logic family by
//
//  1. DFS depth analysis and D-flip-flop insertion to balance every
//     gate's input path depths (RSFQ logic is gate-level pipelined);
//  2. fanout-2 splitter-tree insertion for both data nets and the clock
//     distribution (RSFQ gates drive a single output pulse);
//  3. timing adjustment, modeled as clock/data skew elimination, after
//     which fmax = 1 / max(CCT_min,gate) per the paper's Eq. (1).
package netlist

import "fmt"

// Kind enumerates gate types. The RSFQ family shares the CMOS-like
// combinational set and adds DFF/NDRO storage and SPLIT fan-out elements.
type Kind int

// Gate kinds.
const (
	AND Kind = iota
	OR
	XOR
	NOT
	MUX  // 2:1 multiplexer (3 inputs)
	DFF  // clocked D flip-flop
	NDRO // non-destructive readout cell (RSFQ storage)
	SPLIT
	BUF // PTL driver / buffer
	NumKinds
)

var kindNames = [...]string{"AND", "OR", "XOR", "NOT", "MUX", "DFF", "NDRO", "SPLIT", "BUF"}

// String names the kind.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("K%d", int(k))
}

// clocked reports whether the RSFQ implementation of the gate is clocked
// (participates in the gate-level pipeline and the clock tree).
func (k Kind) clocked() bool {
	switch k {
	case AND, OR, XOR, NOT, MUX, DFF, NDRO:
		return true
	case SPLIT, BUF:
		// Passive fanout/repeater elements sit outside the clock tree.
		return false
	}
	return false
}

// Gate is one node of the netlist graph.
type Gate struct {
	Kind   Kind
	Inputs []int // net ids
	Output int   // net id
}

// Netlist is a combinational/sequential gate graph. Nets 0..NumInputs-1
// are primary inputs; every gate output allocates a fresh net.
type Netlist struct {
	Name      string
	NumInputs int
	Gates     []Gate
	Outputs   []int // primary output nets
	nextNet   int
}

// New creates an empty netlist with n primary inputs.
func New(name string, inputs int) *Netlist {
	return &Netlist{Name: name, NumInputs: inputs, nextNet: inputs}
}

// Add appends a gate reading the given nets and returns its output net.
func (n *Netlist) Add(k Kind, inputs ...int) int {
	for _, in := range inputs {
		if in < 0 || in >= n.nextNet {
			//xqlint:ignore nopanic API-misuse guard: nets are only produced by Add/Input on the same netlist
			panic(fmt.Sprintf("netlist: gate %v reads undefined net %d", k, in))
		}
	}
	out := n.nextNet
	n.nextNet++
	n.Gates = append(n.Gates, Gate{Kind: k, Inputs: append([]int(nil), inputs...), Output: out})
	return out
}

// MarkOutput declares a primary output.
func (n *Netlist) MarkOutput(net int) { n.Outputs = append(n.Outputs, net) }

// Counts tallies gates by kind.
func (n *Netlist) Counts() [NumKinds]int {
	var out [NumKinds]int
	for _, g := range n.Gates {
		out[g.Kind]++
	}
	return out
}

// driverOf maps each net to the index of the gate driving it (-1 for
// primary inputs).
func (n *Netlist) driverOf() []int {
	out := make([]int, n.nextNet)
	for i := range out {
		out[i] = -1
	}
	for gi, g := range n.Gates {
		out[g.Output] = gi
	}
	return out
}

// Depths computes each gate's pipeline depth: one plus the maximum depth
// of its input drivers (primary inputs have depth 0). This is the DFS
// step of the paper's SFQ-specific gate insertion.
func (n *Netlist) Depths() []int {
	drivers := n.driverOf()
	depth := make([]int, len(n.Gates))
	for i := range depth {
		depth[i] = -1
	}
	var visit func(gi int) int
	visit = func(gi int) int {
		if depth[gi] >= 0 {
			return depth[gi]
		}
		depth[gi] = 0 // break cycles defensively (latch loops)
		max := 0
		for _, in := range n.Gates[gi].Inputs {
			if d := drivers[in]; d >= 0 {
				if v := visit(d) + 1; v > max {
					max = v
				}
			} else if 1 > max {
				max = 1
			}
		}
		depth[gi] = max
		return max
	}
	for gi := range n.Gates {
		visit(gi)
	}
	return depth
}

// PipelineDepth is the maximum gate depth (the number of RSFQ pipeline
// stages after balancing).
func (n *Netlist) PipelineDepth() int {
	max := 0
	for _, d := range n.Depths() {
		if d > max {
			max = d
		}
	}
	return max
}

// Fanouts returns the number of sinks per net (gate inputs plus primary
// outputs).
func (n *Netlist) Fanouts() []int {
	out := make([]int, n.nextNet)
	for _, g := range n.Gates {
		for _, in := range g.Inputs {
			out[in]++
		}
	}
	for _, o := range n.Outputs {
		out[o]++
	}
	return out
}

// SFQStats summarizes the RSFQ-converted circuit.
type SFQStats struct {
	// Gate counts after conversion.
	LogicGates     int // clocked logic (AND/OR/XOR/NOT/MUX)
	StorageGates   int // DFF/NDRO present before balancing
	BalanceDFFs    int // DFFs inserted for path balancing
	DataSplitters  int // fanout-2 splitters on data nets
	ClockSplitters int // fanout-2 splitters in the clock tree
	PTLBuffers     int // timing-adjustment wire elements
	PipelineDepth  int
}

// ConvertSFQ performs the paper's SFQ-specific gate insertion on the
// netlist and returns the resulting element counts:
//
//   - balancing DFFs: for every gate input whose driver is shallower than
//     the gate's deepest input, one DFF per missing pipeline stage;
//   - data splitter trees: a net with fanout f needs f-1 fanout-2
//     splitters;
//   - clock tree: every clocked element receives the clock through a
//     fanout-2 splitter tree (count-1 splitters), with one PTL buffer per
//     pipeline stage for skew alignment;
//   - PTL buffers: one per balancing DFF chain for the timing adjustment
//     step.
func (n *Netlist) ConvertSFQ() SFQStats {
	var s SFQStats
	depths := n.Depths()
	drivers := n.driverOf()

	clocked := 0
	for gi, g := range n.Gates {
		switch g.Kind {
		case DFF, NDRO:
			s.StorageGates++
		case SPLIT:
			s.DataSplitters++
		case BUF:
			s.PTLBuffers++
		default:
			s.LogicGates++
		}
		if g.Kind.clocked() {
			clocked++
		}
		// Path balancing: each input must arrive at depth[gi]-1.
		want := depths[gi] - 1
		for _, in := range g.Inputs {
			have := 0
			if d := drivers[in]; d >= 0 {
				have = depths[d]
			}
			if want > have {
				s.BalanceDFFs += want - have
				s.PTLBuffers++
			}
		}
	}
	clocked += s.BalanceDFFs // inserted DFFs are clocked too

	// Data splitter trees.
	for _, f := range n.Fanouts() {
		if f > 1 {
			s.DataSplitters += f - 1
		}
	}
	// Clock splitter tree over all clocked elements, plus per-stage skew
	// buffers.
	if clocked > 1 {
		s.ClockSplitters = clocked - 1
	}
	s.PipelineDepth = n.PipelineDepth()
	s.PTLBuffers += s.PipelineDepth
	return s
}
