package circuit

import (
	"fmt"

	"repro/internal/linalg"
)

// MaxUnitaryQubits bounds full-unitary evaluation (2^n x 2^n dense
// matrices); 10 qubits means 1024x1024, which is still fast enough for
// verification tests.
const MaxUnitaryQubits = 10

// Unitary computes the full 2^n x 2^n unitary of the circuit. Qubit 0
// is the most significant bit of the state index, matching the 2Q gate
// convention (row = q0*2 + q1). One- and two-qubit circuits — the
// dominant case for synthesis verification — accumulate on the
// fixed-size Mat2/Mat4 kernels with a single allocation for the
// result.
func (c *Circuit) Unitary() (*linalg.Matrix, error) {
	if c.NumQubits > MaxUnitaryQubits {
		return nil, fmt.Errorf("circuit: %d qubits exceeds unitary limit %d", c.NumQubits, MaxUnitaryQubits)
	}
	if c.NumQubits == 2 {
		if u, ok := c.unitary2Q(); ok {
			return u, nil
		}
	}
	if c.NumQubits == 1 {
		u := linalg.IdentityMat2()
		for _, op := range c.Ops {
			u = linalg.Mat2From(op.Gate.Matrix()).Mul(u)
		}
		return u.ToMatrix(), nil
	}
	dim := 1 << c.NumQubits
	u := linalg.Identity(dim)
	for _, op := range c.Ops {
		full := embedOp(op, c.NumQubits)
		u = full.Mul(u)
	}
	return u, nil
}

// unitary2Q accumulates a two-qubit circuit on the Mat4 kernel. It
// reports ok = false for op shapes it does not handle (which then take
// the generic embedOp path).
func (c *Circuit) unitary2Q() (*linalg.Matrix, bool) {
	u := linalg.IdentityMat4()
	sw := swapMat4()
	for _, op := range c.Ops {
		switch len(op.Qubits) {
		case 1:
			g := linalg.Mat2From(op.Gate.Matrix())
			if op.Qubits[0] == 0 {
				u = g.KronI().Mul(u)
			} else {
				u = g.IKron().Mul(u)
			}
		case 2:
			g := linalg.Mat4From(op.Gate.Matrix())
			if op.Qubits[0] == 0 {
				u = g.Mul(u)
			} else {
				u = sw.Mul(g).Mul(sw).Mul(u)
			}
		default:
			return nil, false
		}
	}
	return u.ToMatrix(), true
}

// swapMat4 returns the SWAP matrix used to reverse 2Q wire order.
func swapMat4() linalg.Mat4 {
	return linalg.Mat4{
		1, 0, 0, 0,
		0, 0, 1, 0,
		0, 1, 0, 0,
		0, 0, 0, 1,
	}
}

// embedOp expands an op's gate matrix to the full register.
func embedOp(op Op, n int) *linalg.Matrix {
	dim := 1 << n
	g := op.Gate.Matrix()
	out := linalg.New(dim, dim)
	k := len(op.Qubits)
	gd := 1 << k

	// bit position of qubit q in the state index (qubit 0 = MSB).
	bitPos := func(q int) uint { return uint(n - 1 - q) }

	for col := 0; col < dim; col++ {
		// Extract the gate-local input index from col.
		var gin int
		for i, q := range op.Qubits {
			bit := (col >> bitPos(q)) & 1
			gin |= bit << uint(k-1-i)
		}
		// Bits of col outside the gate's qubits stay fixed.
		base := col
		for _, q := range op.Qubits {
			base &^= 1 << bitPos(q)
		}
		for gout := 0; gout < gd; gout++ {
			v := g.At(gout, gin)
			if v == 0 {
				continue
			}
			row := base
			for i, q := range op.Qubits {
				bit := (gout >> uint(k-1-i)) & 1
				row |= bit << bitPos(q)
			}
			out.Set(row, col, v)
		}
	}
	return out
}

// PermutationMatrix returns the 2^n unitary that maps logical qubit q
// to position perm[q] (used to verify routed circuits: the output of a
// routed circuit equals the input circuit up to the final layout
// permutation).
func PermutationMatrix(perm []int) *linalg.Matrix {
	n := len(perm)
	dim := 1 << n
	out := linalg.New(dim, dim)
	bitPos := func(q int) uint { return uint(n - 1 - q) }
	for col := 0; col < dim; col++ {
		row := 0
		for q := 0; q < n; q++ {
			bit := (col >> bitPos(q)) & 1
			row |= bit << bitPos(perm[q])
		}
		out.Set(row, col, 1)
	}
	return out
}
