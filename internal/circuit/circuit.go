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
	// Class is the slot of the op's Weyl class in the class list of
	// the circuit holding it (Circuit.Classes), stamped by the router;
	// 0 when it has none.
	Class int32
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
	// Classes is the class list the ops' Class slots index: set on a
	// routed circuit whose router stamped slots, nil otherwise.
	Classes *Classes
}

// New returns an empty circuit.
func New(name string, numQubits int) *Circuit {
	if numQubits <= 0 {
		panic("circuit: NumQubits must be positive")
	}
	return &Circuit{Name: name, NumQubits: numQubits}
}

// Append adds an op after validating its qubit indices; an invalid op
// is a programming error and panics (see checkOp).
func (c *Circuit) Append(op Op) {
	if err := c.checkOp(op); err != nil {
		panic(err.Error())
	}
	c.Ops = append(c.Ops, op)
}

// checkOp reports why op cannot act on c: an operand count that does
// not match the gate, a qubit out of range, or a repeated qubit.
func (c *Circuit) checkOp(op Op) error {
	if len(op.Qubits) == 0 || len(op.Qubits) != op.Gate.Qubits {
		return fmt.Errorf("circuit: op %s has %d qubits, gate expects %d",
			op.Gate.String(), len(op.Qubits), op.Gate.Qubits)
	}
	for i, q := range op.Qubits {
		if q < 0 || q >= c.NumQubits {
			return fmt.Errorf("circuit: qubit %d out of range [0, %d)", q, c.NumQubits)
		}
		for _, p := range op.Qubits[:i] {
			if p == q {
				return fmt.Errorf("circuit: duplicate qubit %d in op %s", q, op.Gate.String())
			}
		}
	}
	return nil
}

// Add appends a gate on the given qubits.
func (c *Circuit) Add(g gates.Gate, qubits ...int) {
	c.Append(Op{Gate: g, Qubits: qubits})
}

// Copy returns a deep-enough copy (ops are value-copied; gate matrices
// are immutable by convention). The copied ops' qubits are cut from
// one slice, each with a capacity of its own length.
func (c *Circuit) Copy() *Circuit {
	out := New(c.Name, c.NumQubits)
	out.Classes = c.Classes
	out.Ops = make([]Op, len(c.Ops))
	n := 0
	for _, op := range c.Ops {
		n += len(op.Qubits)
	}
	qubits := make([]int, 0, n)
	for i, op := range c.Ops {
		lo := len(qubits)
		qubits = append(qubits, op.Qubits...)
		op.Qubits = qubits[lo:len(qubits):len(qubits)]
		out.Ops[i] = op
	}
	return out
}

// Reversed returns the circuit with the op order reversed (used by
// SABRE's backward layout passes; gates are not inverted because only
// the interaction pattern matters for routing). Ops are immutable by
// convention, so the reversed ops share their qubit slices with c.
func (c *Circuit) Reversed() *Circuit {
	out := New(c.Name+"_rev", c.NumQubits)
	out.Ops = make([]Op, len(c.Ops))
	for i, op := range c.Ops {
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
