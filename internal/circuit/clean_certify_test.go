package circuit_test

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/bench"
	"repro/internal/circuit"
	"repro/internal/gates"
	"repro/internal/linalg"
)

// cleanCases counts how certifyClean accounted for each source op.
type cleanCases struct {
	kept, unrolled, dropped, elided int
}

var swapMatrix = gates.SWAP().Matrix()

// certifyClean checks that clean and pi, circuit.Clean's output for
// src, account for every source op, without a unitary of the whole
// circuit, so it runs at any width. It walks src with a running map
// from source wires to output wires:
//
//   - a kept op is the next output op, with the same gate and flags on
//     the mapped wires;
//   - a 3Q op is followed by as many output ops as UnrollTo2Q gives it
//     alone, on its mapped wires, whose product is its 8×8 matrix;
//   - a dropped op's matrix is the identity;
//   - an elided op is an algorithm SWAP, and the map swaps its wires.
//
// At the end the map must be pi and every output op consumed.
func certifyClean(src, clean *circuit.Circuit, pi []int) (cleanCases, error) {
	var n cleanCases
	wire := make([]int, src.NumQubits)
	for q := range wire {
		wire[q] = q
	}
	mapped := func(qs []int) []int {
		out := make([]int, len(qs))
		for i, q := range qs {
			out[i] = wire[q]
		}
		return out
	}
	j := 0
	for i, op := range src.Ops {
		qs := mapped(op.Qubits)
		if len(qs) == 3 {
			alone := &circuit.Circuit{NumQubits: 3, Ops: []circuit.Op{{Gate: op.Gate, Qubits: []int{0, 1, 2}}}}
			k := len(circuit.UnrollTo2Q(alone).Ops)
			if j+k > len(clean.Ops) {
				return n, fmt.Errorf("op %d (%s): %d output ops left, want %d", i, op, len(clean.Ops)-j, k)
			}
			local := circuit.New("unrolled", 3)
			for _, u := range clean.Ops[j : j+k] {
				lq := make([]int, len(u.Qubits))
				for x, q := range u.Qubits {
					if lq[x] = slices.Index(qs, q); lq[x] < 0 {
						return n, fmt.Errorf("op %d (%s): unrolled op %s leaves its wires %v", i, op, u, qs)
					}
				}
				local.Append(circuit.Op{Gate: u.Gate, Qubits: lq})
			}
			u, err := local.Unitary()
			if err != nil {
				return n, err
			}
			if !u.EqualApprox(op.Gate.Matrix(), 1e-9) {
				return n, fmt.Errorf("op %d (%s): its %d unrolled ops multiply to another unitary", i, op, k)
			}
			j += k
			n.unrolled++
			continue
		}
		if j < len(clean.Ops) {
			out := clean.Ops[j]
			if out.Gate.Name == op.Gate.Name && out.Gate.Matrix() == op.Gate.Matrix() &&
				out.RouterSwap == op.RouterSwap && out.Mirrored == op.Mirrored && slices.Equal(out.Qubits, qs) {
				j++
				n.kept++
				continue
			}
		}
		m := op.Gate.Matrix()
		switch {
		case !op.RouterSwap && len(qs) == 2 && m.EqualApprox(swapMatrix, 0):
			a, b := op.Qubits[0], op.Qubits[1]
			wire[a], wire[b] = wire[b], wire[a]
			n.elided++
		case m.EqualApprox(linalg.Identity(m.Rows), 1e-12):
			n.dropped++
		default:
			return n, fmt.Errorf("op %d (%s on %v) is neither kept, unrolled, dropped nor an elided SWAP", i, op, qs)
		}
	}
	if j != len(clean.Ops) {
		return n, fmt.Errorf("%d output ops match no source op", len(clean.Ops)-j)
	}
	if !slices.Equal(wire, pi) {
		return n, fmt.Errorf("wire map %v, Clean returned %v", wire, pi)
	}
	return n, nil
}

// TestCleanCertifiedOnSuite certifies circuit.Clean on every suite
// circuit (11-30 qubits, plus the mirror rows), which a unitary check
// cannot reach. The suite holds kept and dropped ops but no 3Q gate
// and no algorithm SWAP, so a synthetic input adds both, on wires
// earlier SWAPs moved. Each case must occur at least once.
func TestCleanCertifiedOnSuite(t *testing.T) {
	var inputs []*circuit.Circuit
	for _, e := range bench.Suite() {
		inputs = append(inputs, e.Build())
	}
	syn := circuit.New("synthetic", 4)
	syn.Add(gates.SWAP(), 0, 2)
	syn.Add(gates.I(), 1)
	syn.Add(circuit.Toffoli(), 0, 1, 3)
	syn.Add(gates.RZ(0), 2)
	syn.Add(gates.CPhase(0), 2, 3)
	syn.Add(circuit.Fredkin(), 2, 0, 1)
	syn.Add(gates.SWAP(), 1, 3)
	syn.Add(gates.CX(), 3, 0)
	syn.Append(circuit.Op{Gate: gates.SWAP(), Qubits: []int{0, 1}, RouterSwap: true})
	inputs = append(inputs, syn)
	var total cleanCases
	for _, c := range inputs {
		clean, pi := circuit.Clean(c)
		n, err := certifyClean(c, clean, pi)
		if err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		total.kept += n.kept
		total.unrolled += n.unrolled
		total.dropped += n.dropped
		total.elided += n.elided
	}
	if total.kept == 0 || total.unrolled == 0 || total.dropped == 0 || total.elided == 0 {
		t.Fatalf("cases not all covered: %+v", total)
	}
	t.Logf("%d circuits: %+v", len(inputs), total)
}
