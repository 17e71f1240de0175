package sabre

import (
	"sync"

	"repro/internal/circuit"
	"repro/internal/gates"
)

// mirrorTable is the per-circuit data a route reads to price and emit
// mirrors, built lazily, each part on its first use, from the circuit
// alone, and immutable afterwards: every trial and every Result shares
// it read-only.
//
//   - The class list (circuit.Classes) and each op's slot in it: the
//     classes a decision and an accepted mirror carry and a cost table
//     prices. It is built on the first route under a policy or a depth
//     bound, or on the first Classes call, and only those routes stamp
//     their ops with slots; baseline SABRE under the SWAP-count metric
//     never pays for it.
//   - The mirror gates, SWAP · U for every 2Q op U, built only for
//     the routes whose Results leave the package arena-backed
//     (TrialRunner.Run and GridTrial) and for circuits where a routed
//     run can hold two payload ops (multi), whose depth pass multiplies
//     out mirrored ops' matrices. Every other route emits an accepted
//     mirror as its source gate with Mirrored set and the mirror's
//     class, and only the Result that leaves the package builds SWAP ·
//     U, for its own accepted mirrors (finishMirrors).
type mirrorTable struct {
	circ *circuit.Circuit
	name string // the routed circuit's name

	classOnce sync.Once
	classes   *circuit.Classes
	slot      []int32 // slot[i] is op i's class slot
	multi     bool    // a routed run can hold two payload ops (multiPayloadPossible)

	gateOnce sync.Once
	gate     []gates.Gate
}

// routerSwapMatrix is the shared SWAP unitary mirror gates are built
// against (SWAP · U); matrices are immutable by convention.
var routerSwapMatrix = routerSwapGate.Matrix()

func newMirrorTable(c *circuit.Circuit) *mirrorTable {
	return &mirrorTable{circ: c, name: c.Name + "_routed"}
}

// getClasses returns the class list, building it and the ops' slots
// on first use. Safe for concurrent use.
func (m *mirrorTable) getClasses() *circuit.Classes {
	m.classOnce.Do(func() {
		m.multi = multiPayloadPossible(m.circ)
		m.classes, m.slot = circuit.NewClasses(m.circ)
	})
	return m.classes
}

// gates returns the mirror gate of every 2Q op, building them on first
// use. Safe for concurrent use.
func (m *mirrorTable) gates() []gates.Gate {
	m.gateOnce.Do(func() {
		m.gate = make([]gates.Gate, len(m.circ.Ops))
		for i, op := range m.circ.Ops {
			if op.Is2Q() {
				m.gate[i] = mirrorGate(op)
			}
		}
	})
	return m.gate
}

// mirrorGate is the mirror of a 2Q op: SWAP · U, the op's gate
// followed by the mirage SWAP its wires absorb.
func mirrorGate(op circuit.Op) gates.Gate {
	return gates.NewCustom(op.Gate.Name+"'", 2, routerSwapMatrix.Mul(op.Gate.Matrix()))
}

// finishMirrors turns the mirrored ops of a route that emitted source
// gates into their mirror gates.
func finishMirrors(ops []circuit.Op) {
	for i := range ops {
		if ops[i].Mirrored {
			ops[i].Gate = mirrorGate(ops[i])
		}
	}
}

// multiPayloadPossible reports whether some 2Q op's next 2Q op on both
// of its wires is one op — the only way a routed same-pair run can
// hold two payload gates.
func multiPayloadPossible(c *circuit.Circuit) bool {
	next := make([]int, c.NumQubits) // next 2Q op on each wire, scanning backward
	for q := range next {
		next[q] = -1
	}
	for i := len(c.Ops) - 1; i >= 0; i-- {
		op := c.Ops[i]
		if !op.Is2Q() {
			continue
		}
		a, b := op.Qubits[0], op.Qubits[1]
		if next[a] >= 0 && next[a] == next[b] {
			return true
		}
		next[a], next[b] = i, i
	}
	return false
}
