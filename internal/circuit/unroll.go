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

// Clean is the paper's input cleaning, in one pass over c: it unrolls
// 3-qubit gates as UnrollTo2Q does, drops identity gates and zero-angle
// rotations, and removes explicit SWAP gates by relabelling the wires
// downstream of them. The output's op slice is sized from c and
// allocated once; an op whose wires no elided SWAP has moved shares its
// qubit slice with c.
//
// The returned permutation pi maps each wire w of c to the wire pi[w]
// of the output that carries the same state at the end of the circuit:
//
//	U(c) = PermutationMatrix(inverse(pi)) * U(clean)
//
// Router-inserted SWAPs (RouterSwap) are kept.
func Clean(c *Circuit) (*Circuit, []int) {
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
	pi := make([]int, c.NumQubits) // wire of c -> wire of out
	for i := range pi {
		pi[i] = i
	}
	for _, op := range c.Ops {
		qs := op.Qubits
		switch {
		case op.Gate.Name == "ccx":
			appendToffoli(out, pi[qs[0]], pi[qs[1]], pi[qs[2]])
		case op.Gate.Name == "cswap":
			appendFredkin(out, pi[qs[0]], pi[qs[1]], pi[qs[2]])
		case op.Gate.Name == "id" || isZeroRotation(op):
		case op.Gate.Name == "swap" && !op.RouterSwap:
			pi[qs[0]], pi[qs[1]] = pi[qs[1]], pi[qs[0]]
		default:
			if moved(qs, pi) {
				op.Qubits = make([]int, len(qs))
				for i, q := range qs {
					op.Qubits[i] = pi[q]
				}
			}
			out.Append(op)
		}
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
