// Package circuit provides the quantum circuit intermediate
// representation used by the transpiler: a flat list of gate
// applications over qubit wires, a dependency DAG, weighted
// critical-path depth, small-circuit unitary evaluation, 2Q block
// consolidation (paper Fig. 13a) and the streaming depth of the
// consolidated circuit (BlockDepth), a minimal OpenQASM 2
// reader/writer and 3-qubit gate unrolling.
package circuit

import (
	"fmt"
	"strings"

	"repro/internal/gates"
	"repro/internal/weyl"
)

// Op is a single gate application. Ops earlier in Circuit.Ops are
// applied first (so the circuit unitary is Ops[n-1] ... Ops[1] Ops[0]).
type Op struct {
	Gate   gates.Gate
	Qubits []int

	// RouterSwap marks SWAP gates inserted by routing (counted by the
	// SWAP metrics; algorithm SWAPs are cleaned before routing).
	RouterSwap bool
	// Mirrored marks a gate that was replaced by its mirror during
	// MIRAGE routing (a mirage SWAP was absorbed into it).
	Mirrored bool
	// Coord caches the Weyl coordinate of a 2Q gate (annotated by
	// consolidation or by the router; nil when not yet computed).
	Coord *weyl.Coordinate
}

// Is2Q reports whether the op acts on two qubits.
func (o Op) Is2Q() bool { return len(o.Qubits) == 2 }

// String renders the op compactly.
func (o Op) String() string {
	qs := make([]string, len(o.Qubits))
	for i, q := range o.Qubits {
		qs[i] = fmt.Sprintf("q%d", q)
	}
	return fmt.Sprintf("%s %s", o.Gate.String(), strings.Join(qs, ","))
}

// Circuit is a gate list over NumQubits wires.
type Circuit struct {
	Name      string
	NumQubits int
	Ops       []Op
}

// New returns an empty circuit.
func New(name string, numQubits int) *Circuit {
	if numQubits <= 0 {
		panic("circuit: NumQubits must be positive")
	}
	return &Circuit{Name: name, NumQubits: numQubits}
}

// Append adds an op after validating its qubit indices.
func (c *Circuit) Append(op Op) {
	if len(op.Qubits) == 0 || len(op.Qubits) != op.Gate.Qubits {
		panic(fmt.Sprintf("circuit: op %s has %d qubits, gate expects %d",
			op.Gate.String(), len(op.Qubits), op.Gate.Qubits))
	}
	seen := map[int]bool{}
	for _, q := range op.Qubits {
		if q < 0 || q >= c.NumQubits {
			panic(fmt.Sprintf("circuit: qubit %d out of range [0, %d)", q, c.NumQubits))
		}
		if seen[q] {
			panic(fmt.Sprintf("circuit: duplicate qubit %d in op %s", q, op.Gate.String()))
		}
		seen[q] = true
	}
	c.Ops = append(c.Ops, op)
}

// Add appends a gate on the given qubits.
func (c *Circuit) Add(g gates.Gate, qubits ...int) {
	c.Append(Op{Gate: g, Qubits: qubits})
}

// Copy returns a deep-enough copy (ops are value-copied; gate matrices
// are immutable by convention).
func (c *Circuit) Copy() *Circuit {
	out := New(c.Name, c.NumQubits)
	out.Ops = make([]Op, len(c.Ops))
	for i, op := range c.Ops {
		op.Qubits = append([]int(nil), op.Qubits...)
		out.Ops[i] = op
	}
	return out
}

// Reversed returns the circuit with the op order reversed (used by
// SABRE's backward layout passes; gates are not inverted because only
// the interaction pattern matters for routing).
func (c *Circuit) Reversed() *Circuit {
	out := New(c.Name+"_rev", c.NumQubits)
	out.Ops = make([]Op, len(c.Ops))
	for i, op := range c.Ops {
		op.Qubits = append([]int(nil), op.Qubits...)
		out.Ops[len(c.Ops)-1-i] = op
	}
	return out
}

// CountGates returns the total op count.
func (c *Circuit) CountGates() int { return len(c.Ops) }

// Count2Q returns the number of two-qubit ops.
func (c *Circuit) Count2Q() int {
	n := 0
	for _, op := range c.Ops {
		if op.Is2Q() {
			n++
		}
	}
	return n
}

// CountRouterSwaps returns the number of router-inserted SWAPs.
func (c *Circuit) CountRouterSwaps() int {
	n := 0
	for _, op := range c.Ops {
		if op.RouterSwap {
			n++
		}
	}
	return n
}

// CountMirrored returns the number of mirror-substituted gates.
func (c *Circuit) CountMirrored() int {
	n := 0
	for _, op := range c.Ops {
		if op.Mirrored {
			n++
		}
	}
	return n
}

// WeightFunc assigns a duration to an op; see Depth.
type WeightFunc func(Op) float64

// UnitWeight2Q counts every 2Q op as 1 and 1Q ops as 0.
func UnitWeight2Q(op Op) float64 {
	if op.Is2Q() {
		return 1
	}
	return 0
}

// Depth returns the weighted critical-path length: ops on a wire are
// sequential, ops on disjoint wires run in parallel.
func (c *Circuit) Depth(w WeightFunc) float64 {
	wire := make([]float64, c.NumQubits)
	var depth float64
	for _, op := range c.Ops {
		start := 0.0
		for _, q := range op.Qubits {
			if wire[q] > start {
				start = wire[q]
			}
		}
		end := start + w(op)
		for _, q := range op.Qubits {
			wire[q] = end
		}
		if end > depth {
			depth = end
		}
	}
	return depth
}

// TotalCost sums the weights of all ops.
func (c *Circuit) TotalCost(w WeightFunc) float64 {
	var s float64
	for _, op := range c.Ops {
		s += w(op)
	}
	return s
}

// InteractionPairs returns the set of qubit pairs with at least one 2Q
// gate, as canonical (lo, hi) pairs.
func (c *Circuit) InteractionPairs() map[[2]int]int {
	out := map[[2]int]int{}
	for _, op := range c.Ops {
		if !op.Is2Q() {
			continue
		}
		a, b := op.Qubits[0], op.Qubits[1]
		if a > b {
			a, b = b, a
		}
		out[[2]int{a, b}]++
	}
	return out
}

// String renders the circuit one op per line.
func (c *Circuit) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s (%d qubits, %d ops)\n", c.Name, c.NumQubits, len(c.Ops))
	for _, op := range c.Ops {
		b.WriteString("  " + op.String() + "\n")
	}
	return b.String()
}
