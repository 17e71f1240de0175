package sabre

import (
	"sync"

	"repro/internal/circuit"
	"repro/internal/gates"
)

// mirrorTable is the per-circuit data a route reads to price and emit
// mirrors: the circuit's class list (circuit.Classes) and each op's
// slot in it, the classes a decision and an accepted mirror carry and
// a cost table prices. It is built from the circuit alone on the first
// route under a policy or a depth bound, or on the first Classes call,
// and is immutable afterwards: every trial and every Result shares it
// read-only. Only those routes stamp their ops with slots; baseline
// SABRE under the SWAP-count metric never pays for it.
//
// A route emits an accepted mirror as its source gate with Mirrored
// set and the mirror's class and coordinate. Only a Result that leaves
// the package builds SWAP · U, for its own accepted mirrors
// (finishMirrors).
type mirrorTable struct {
	circ *circuit.Circuit
	name string // the routed circuit's name

	classOnce sync.Once
	classes   *circuit.Classes
	slot      []int32 // slot[i] is op i's class slot
}

// routerSwapMatrix is the shared SWAP unitary mirror gates are built
// against (SWAP · U); matrices are immutable by convention.
var routerSwapMatrix = routerSwapGate.Matrix()

// getClasses returns the class list, building it and the ops' slots
// on first use. Safe for concurrent use.
func (m *mirrorTable) getClasses() *circuit.Classes {
	m.classOnce.Do(func() {
		m.classes, m.slot = circuit.NewClasses(m.circ)
	})
	return m.classes
}

// mirrorGate is the mirror of a 2Q op: SWAP · U, the op's gate
// followed by the mirage SWAP its wires absorb.
func mirrorGate(op circuit.Op) gates.Gate {
	return gates.NewCustom(op.Gate.Name+"'", 2, routerSwapMatrix.Mul(op.Gate.Matrix()))
}

// finishMirrors turns the mirrored ops of a route, which carry their
// source gates, into their mirror gates.
func finishMirrors(ops []circuit.Op) {
	for i := range ops {
		if ops[i].Mirrored {
			ops[i].Gate = mirrorGate(ops[i])
		}
	}
}
