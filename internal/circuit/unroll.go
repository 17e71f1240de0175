package circuit

import (
	"math"

	"repro/internal/gates"
	"repro/internal/linalg"
)

// UnrollTo2Q rewrites 3-qubit gates (Toffoli "ccx", Fredkin "cswap")
// into the standard 1Q/2Q decompositions, leaving everything else
// untouched. Returns a new circuit, whose op slice is sized from the
// input once; untouched ops share their qubit slices with c.
func UnrollTo2Q(c *Circuit) *Circuit {
	n := len(c.Ops)
	for _, op := range c.Ops {
		switch op.Gate.Name {
		case "ccx":
			n += toffoliOps - 1
		case "cswap":
			n += fredkinOps - 1
		}
	}
	out := New(c.Name, c.NumQubits)
	out.Ops = make([]Op, 0, n)
	for _, op := range c.Ops {
		switch op.Gate.Name {
		case "ccx":
			appendToffoli(out, op.Qubits[0], op.Qubits[1], op.Qubits[2])
		case "cswap":
			appendFredkin(out, op.Qubits[0], op.Qubits[1], op.Qubits[2])
		default:
			out.Append(op)
		}
	}
	return out
}

// toffoliOps and fredkinOps are the op counts of appendToffoli's and
// appendFredkin's decompositions.
const (
	toffoliOps = 15
	fredkinOps = toffoliOps + 2
)

// appendToffoli emits the textbook 6-CNOT Toffoli decomposition with
// controls a, b and target c.
func appendToffoli(out *Circuit, a, b, c int) {
	out.Add(gates.H(), c)
	out.Add(gates.CX(), b, c)
	out.Add(gates.Tdg(), c)
	out.Add(gates.CX(), a, c)
	out.Add(gates.T(), c)
	out.Add(gates.CX(), b, c)
	out.Add(gates.Tdg(), c)
	out.Add(gates.CX(), a, c)
	out.Add(gates.T(), b)
	out.Add(gates.T(), c)
	out.Add(gates.H(), c)
	out.Add(gates.CX(), a, b)
	out.Add(gates.T(), a)
	out.Add(gates.Tdg(), b)
	out.Add(gates.CX(), a, b)
}

// appendFredkin emits controlled-SWAP with control a, swapping b and c.
func appendFredkin(out *Circuit, a, b, c int) {
	out.Add(gates.CX(), c, b)
	appendToffoli(out, a, b, c)
	out.Add(gates.CX(), c, b)
}

// Toffoli returns the 3Q CCX gate (control, control, target).
func Toffoli() gates.Gate {
	m := make([]complex128, 64)
	for i := 0; i < 8; i++ {
		j := i
		if i == 6 {
			j = 7
		} else if i == 7 {
			j = 6
		}
		m[j*8+i] = 1
	}
	return newGate3("ccx", m)
}

// Fredkin returns the 3Q CSWAP gate (control, target, target).
func Fredkin() gates.Gate {
	m := make([]complex128, 64)
	for i := 0; i < 8; i++ {
		j := i
		if i == 5 {
			j = 6
		} else if i == 6 {
			j = 5
		}
		m[j*8+i] = 1
	}
	return newGate3("cswap", m)
}

func newGate3(name string, data []complex128) gates.Gate {
	return gates.NewCustom(name, 3, linalg.FromSlice(8, 8, data))
}

// RemoveIdentities drops identity gates and zero-angle rotations. The
// kept ops share their qubit slices with c.
func RemoveIdentities(c *Circuit) *Circuit {
	out := New(c.Name, c.NumQubits)
	out.Ops = make([]Op, 0, len(c.Ops))
	for _, op := range c.Ops {
		if op.Gate.Name == "id" {
			continue
		}
		if isZeroRotation(op) {
			continue
		}
		out.Append(op)
	}
	return out
}

func isZeroRotation(op Op) bool {
	switch op.Gate.Name {
	case "rx", "ry", "rz", "p", "cp", "crz", "rxx", "rzz":
		for _, p := range op.Gate.Params {
			if math.Abs(math.Remainder(p, 4*math.Pi)) > 1e-12 {
				return false
			}
		}
		return true
	}
	return false
}

// ElideSwaps removes explicit SWAP gates from the input circuit by
// relabelling downstream wires (the paper's input cleaning step).
//
// The returned permutation pi maps each original wire w to the elided
// wire pi[w] that carries the same state at the end of the circuit:
//
//	U(c) = PermutationMatrix(inverse(pi)) * U(elided)
//
// Router-inserted SWAPs (RouterSwap) are preserved. An op whose wires
// no elided SWAP has moved shares its qubit slice with c.
func ElideSwaps(c *Circuit) (*Circuit, []int) {
	out := New(c.Name, c.NumQubits)
	out.Ops = make([]Op, 0, len(c.Ops))
	pi := make([]int, c.NumQubits) // original wire -> elided wire
	for i := range pi {
		pi[i] = i
	}
	for _, op := range c.Ops {
		if op.Gate.Name == "swap" && !op.RouterSwap {
			a, b := op.Qubits[0], op.Qubits[1]
			pi[a], pi[b] = pi[b], pi[a]
			continue
		}
		if moved(op.Qubits, pi) {
			qs := make([]int, len(op.Qubits))
			for i, q := range op.Qubits {
				qs[i] = pi[q]
			}
			op.Qubits = qs
		}
		out.Append(op)
	}
	return out, pi
}

// moved reports whether pi maps any of qs to another wire.
func moved(qs, pi []int) bool {
	for _, q := range qs {
		if pi[q] != q {
			return true
		}
	}
	return false
}

// InversePermutation returns q such that q[p[i]] = i.
func InversePermutation(p []int) []int {
	inv := make([]int, len(p))
	for i, v := range p {
		inv[v] = i
	}
	return inv
}
