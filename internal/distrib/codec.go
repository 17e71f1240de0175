package distrib

import (
	"fmt"

	"repro/internal/circuit"
	"repro/internal/gates"
	"repro/internal/linalg"
	"repro/internal/sabre"
	"repro/internal/topology"
	"repro/internal/weyl"
)

// The wire representation of the IR. Gates travel as (name, params,
// matrix) triples and are reconstructed as custom gates: the matrix is
// the part routing and metrics actually compute on, and gob transmits
// complex128 exactly, so a decoded circuit transpiles bit-identically
// to the original. Coordinates are inlined (not pointers) because gob
// cannot round-trip nil-vs-zero through pointer fields reliably.

type wireOp struct {
	Name       string
	GateQubits int
	Params     []float64
	Mat        []complex128 // row-major, 2^GateQubits square
	Qubits     []int
	RouterSwap bool
	Mirrored   bool
	HasCoord   bool
	Coord      weyl.Coordinate
}

type wireCircuit struct {
	Name      string
	NumQubits int
	Ops       []wireOp
}

type wireTopology struct {
	Name      string
	NumQubits int
	Edges     [][2]int
}

func circuitToWire(c *circuit.Circuit) wireCircuit {
	w := wireCircuit{Name: c.Name, NumQubits: c.NumQubits, Ops: make([]wireOp, len(c.Ops))}
	for i, op := range c.Ops {
		m := op.Gate.Matrix()
		wo := wireOp{
			Name:       op.Gate.Name,
			GateQubits: op.Gate.Qubits,
			Params:     op.Gate.Params,
			Mat:        m.Data,
			Qubits:     op.Qubits,
			RouterSwap: op.RouterSwap,
			Mirrored:   op.Mirrored,
		}
		if op.Coord != nil {
			wo.HasCoord = true
			wo.Coord = *op.Coord
		}
		w.Ops[i] = wo
	}
	return w
}

func circuitFromWire(w wireCircuit) (*circuit.Circuit, error) {
	if w.NumQubits <= 0 {
		return nil, fmt.Errorf("distrib: circuit %q has %d qubits", w.Name, w.NumQubits)
	}
	c := circuit.New(w.Name, w.NumQubits)
	for i, wo := range w.Ops {
		// Workers route what they decode, and routing takes ops of at
		// most two qubits (sabre.PrepareCircuit).
		if wo.GateQubits < 1 || wo.GateQubits > 2 {
			return nil, fmt.Errorf("distrib: op %d (%s) acts on %d qubits", i, wo.Name, wo.GateQubits)
		}
		side := 1 << wo.GateQubits
		if len(wo.Mat) != side*side {
			return nil, fmt.Errorf("distrib: op %d (%s) has a %d-element matrix for %d qubits",
				i, wo.Name, len(wo.Mat), wo.GateQubits)
		}
		g := gates.NewCustomWithParams(wo.Name, wo.GateQubits, wo.Params,
			linalg.FromSlice(side, side, wo.Mat))
		op := circuit.Op{
			Gate:       g,
			Qubits:     wo.Qubits,
			RouterSwap: wo.RouterSwap,
			Mirrored:   wo.Mirrored,
		}
		if wo.HasCoord {
			coord := wo.Coord
			op.Coord = &coord
		}
		if err := validOp(c, op); err != nil {
			return nil, fmt.Errorf("distrib: op %d: %w", i, err)
		}
		c.Append(op)
	}
	return c, nil
}

// validOp pre-checks what circuit.Append would panic on, so a
// malformed wire circuit declines the job instead of crashing the
// worker's serve loop.
func validOp(c *circuit.Circuit, op circuit.Op) error {
	if len(op.Qubits) == 0 || len(op.Qubits) != op.Gate.Qubits {
		return fmt.Errorf("op %s has %d qubits, gate expects %d", op.Gate.Name, len(op.Qubits), op.Gate.Qubits)
	}
	seen := map[int]bool{}
	for _, q := range op.Qubits {
		if q < 0 || q >= c.NumQubits {
			return fmt.Errorf("qubit %d out of range [0, %d)", q, c.NumQubits)
		}
		if seen[q] {
			return fmt.Errorf("duplicate qubit %d", q)
		}
		seen[q] = true
	}
	return nil
}

func topologyToWire(t *topology.Topology) wireTopology {
	return wireTopology{Name: t.Name, NumQubits: t.NumQubits, Edges: t.Edges()}
}

func topologyFromWire(w wireTopology) (t *topology.Topology, err error) {
	defer func() {
		if r := recover(); r != nil {
			t, err = nil, fmt.Errorf("distrib: rebuilding topology %q: %v", w.Name, r)
		}
	}()
	if w.NumQubits <= 0 {
		return nil, fmt.Errorf("distrib: topology %q has %d qubits", w.Name, w.NumQubits)
	}
	t = topology.New(w.Name, w.NumQubits, w.Edges)
	return t, nil
}

// rowLayoutFromWire decodes the refined layout of row lt that the
// row's first trial ships, and checks it before the coordinator uses
// it: the layout places each of pc's logical qubits on a distinct
// physical qubit of pc's topology.
func rowLayoutFromWire(b []byte, lt int, pc *sabre.PreparedCircuit) (*topology.Layout, error) {
	if b == nil {
		return nil, fmt.Errorf("distrib: row %d: its first trial ships no layout", lt)
	}
	var l2p []int
	if err := decodeSpec(b, &l2p); err != nil {
		return nil, fmt.Errorf("distrib: row %d: undecodable layout: %w", lt, err)
	}
	if err := checkLayout(l2p, pc.Circ.NumQubits, pc.Topo.NumQubits); err != nil {
		return nil, fmt.Errorf("distrib: row %d: %w", lt, err)
	}
	return topology.NewLayout(l2p, pc.Topo.NumQubits), nil
}

func checkLayout(l2p []int, numLogical, numPhysical int) error {
	if len(l2p) != numLogical {
		return fmt.Errorf("layout places %d qubits, the circuit has %d", len(l2p), numLogical)
	}
	used := make([]bool, numPhysical)
	for l, p := range l2p {
		if p < 0 || p >= numPhysical {
			return fmt.Errorf("layout maps qubit %d onto physical qubit %d of %d", l, p, numPhysical)
		}
		if used[p] {
			return fmt.Errorf("layout maps two qubits onto physical qubit %d", p)
		}
		used[p] = true
	}
	return nil
}
