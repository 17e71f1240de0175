package sabre

import (
	"sync"

	"repro/internal/circuit"
	"repro/internal/gates"
	"repro/internal/weyl"
)

// mirrorTable is the per-op mirror data of one circuit: for every 2Q
// op, the gate the router emits when a policy accepts the op's mirror
// and that gate's Weyl coordinate — the coordinate the policy prices
// the mirror at. Both depend on the op alone, so they are computed
// once per circuit instead of once per decision or per accepted
// mirror. The table is built on the first route that carries a policy
// (baseline SABRE never pays for it) and is immutable afterwards:
// every trial, and every Result, shares the same gates and
// coordinates read-only.
type mirrorTable struct {
	circ  *circuit.Circuit
	once  sync.Once
	gate  []gates.Gate
	coord []weyl.Coordinate
}

// routerSwapMatrix is the shared SWAP unitary mirror gates are built
// against (SWAP · U); matrices are immutable by convention.
var routerSwapMatrix = routerSwapGate.Matrix()

func newMirrorTable(c *circuit.Circuit) *mirrorTable { return &mirrorTable{circ: c} }

// get returns the table, building it on first use. Safe for concurrent
// use.
func (m *mirrorTable) get() *mirrorTable {
	m.once.Do(func() {
		m.gate = make([]gates.Gate, len(m.circ.Ops))
		m.coord = make([]weyl.Coordinate, len(m.circ.Ops))
		for i, op := range m.circ.Ops {
			if op.Is2Q() {
				m.gate[i] = mirrorGate(op)
				m.coord[i] = mirrorCoord(op)
			}
		}
	})
	return m
}

// mirrorGate is the mirror of a 2Q op: SWAP · U, the op followed by the
// mirage SWAP its wires absorb.
func mirrorGate(op circuit.Op) gates.Gate {
	return gates.NewCustom(op.Gate.Name+"'", 2, routerSwapMatrix.Mul(op.Gate.Matrix()))
}

// mirrorCoord is the Weyl coordinate of mirrorGate(op): the mirror of
// the op's own coordinate (paper Eq. 1).
func mirrorCoord(op circuit.Op) weyl.Coordinate {
	return weyl.Mirror(circuit.OpCoordinate(op))
}
