// Package gates defines the quantum gate library: named 1Q and 2Q gates
// with their unitary matrices and parameters. It covers the standard
// Clifford+T set, parameterised rotations, and the iSWAP family that
// MIRAGE targets (iSWAP^t for fractional t), together with the
// canonical two-qubit gate CAN(x, y, z).
package gates

import (
	"fmt"
	"math"
	"math/cmplx"

	"repro/internal/linalg"
)

// Gate is an immutable named gate with an explicit matrix.
type Gate struct {
	Name   string
	Qubits int // number of qubits the gate acts on (1 or 2)
	Params []float64
	matrix *linalg.Matrix
}

// Matrix returns the unitary matrix of the gate. Callers must not
// mutate the result.
func (g Gate) Matrix() *linalg.Matrix { return g.matrix }

// String renders the gate with its parameters.
func (g Gate) String() string {
	if len(g.Params) == 0 {
		return g.Name
	}
	return fmt.Sprintf("%s%v", g.Name, g.Params)
}

// NewCustom wraps an arbitrary unitary as a Gate. The matrix must be
// 2^qubits on a side.
func NewCustom(name string, qubits int, m *linalg.Matrix) Gate {
	want := 1 << qubits
	if m.Rows != want || m.Cols != want {
		panic(fmt.Sprintf("gates: %s matrix is %dx%d, want %dx%d", name, m.Rows, m.Cols, want, want))
	}
	return Gate{Name: name, Qubits: qubits, matrix: m}
}

// NewCustomWithParams is NewCustom keeping the gate's parameter list —
// the reconstruction entry point of the wire codec (internal/distrib),
// which ships gates as (name, params, matrix) triples. The params
// slice is retained, not copied; callers must treat it as immutable
// like the matrix.
func NewCustomWithParams(name string, qubits int, params []float64, m *linalg.Matrix) Gate {
	g := NewCustom(name, qubits, m)
	g.Params = params
	return g
}

func mat2(a, b, c, d complex128) *linalg.Matrix {
	return linalg.FromSlice(2, 2, []complex128{a, b, c, d})
}

// --- Single-qubit gates ---

// I returns the 1Q identity gate.
func I() Gate { return Gate{Name: "id", Qubits: 1, matrix: linalg.Identity(2)} }

// X returns the Pauli-X gate.
func X() Gate { return Gate{Name: "x", Qubits: 1, matrix: mat2(0, 1, 1, 0)} }

// Y returns the Pauli-Y gate.
func Y() Gate { return Gate{Name: "y", Qubits: 1, matrix: mat2(0, -1i, 1i, 0)} }

// Z returns the Pauli-Z gate.
func Z() Gate { return Gate{Name: "z", Qubits: 1, matrix: mat2(1, 0, 0, -1)} }

// H returns the Hadamard gate.
func H() Gate {
	s := complex(1/math.Sqrt2, 0)
	return Gate{Name: "h", Qubits: 1, matrix: mat2(s, s, s, -s)}
}

// S returns the phase gate diag(1, i).
func S() Gate { return Gate{Name: "s", Qubits: 1, matrix: mat2(1, 0, 0, 1i)} }

// Sdg returns the inverse phase gate diag(1, -i).
func Sdg() Gate { return Gate{Name: "sdg", Qubits: 1, matrix: mat2(1, 0, 0, -1i)} }

// T returns the T gate diag(1, e^{i pi/4}).
func T() Gate {
	return Gate{Name: "t", Qubits: 1, matrix: mat2(1, 0, 0, cmplx.Exp(1i*math.Pi/4))}
}

// Tdg returns the inverse T gate.
func Tdg() Gate {
	return Gate{Name: "tdg", Qubits: 1, matrix: mat2(1, 0, 0, cmplx.Exp(-1i*math.Pi/4))}
}

// SX returns the square root of X.
func SX() Gate {
	return Gate{Name: "sx", Qubits: 1, matrix: mat2(
		complex(0.5, 0.5), complex(0.5, -0.5),
		complex(0.5, -0.5), complex(0.5, 0.5))}
}

// RX returns a rotation about the X axis by theta.
func RX(theta float64) Gate {
	c := complex(math.Cos(theta/2), 0)
	s := complex(0, -math.Sin(theta/2))
	return Gate{Name: "rx", Qubits: 1, Params: []float64{theta}, matrix: mat2(c, s, s, c)}
}

// RY returns a rotation about the Y axis by theta.
func RY(theta float64) Gate {
	c := complex(math.Cos(theta/2), 0)
	s := complex(math.Sin(theta/2), 0)
	return Gate{Name: "ry", Qubits: 1, Params: []float64{theta}, matrix: mat2(c, -s, s, c)}
}

// RZ returns a rotation about the Z axis by theta.
func RZ(theta float64) Gate {
	return Gate{Name: "rz", Qubits: 1, Params: []float64{theta}, matrix: mat2(
		cmplx.Exp(complex(0, -theta/2)), 0,
		0, cmplx.Exp(complex(0, theta/2)))}
}

// P returns the phase gate diag(1, e^{i lambda}).
func P(lambda float64) Gate {
	return Gate{Name: "p", Qubits: 1, Params: []float64{lambda}, matrix: mat2(
		1, 0, 0, cmplx.Exp(complex(0, lambda)))}
}

// U3 returns the generic single-qubit gate with Euler angles
// (theta, phi, lambda) in the Qiskit convention.
func U3(theta, phi, lambda float64) Gate {
	ct := complex(math.Cos(theta/2), 0)
	st := complex(math.Sin(theta/2), 0)
	return Gate{Name: "u3", Qubits: 1, Params: []float64{theta, phi, lambda}, matrix: mat2(
		ct, -cmplx.Exp(complex(0, lambda))*st,
		cmplx.Exp(complex(0, phi))*st, cmplx.Exp(complex(0, phi+lambda))*ct)}
}

// --- Two-qubit gates ---
//
// Qubit ordering convention: for a 2Q gate on (q0, q1), q0 is the most
// significant bit of the 4x4 matrix index (row = q0*2 + q1). CX(q0,q1)
// has q0 as control.

func mat4(rows ...[]complex128) *linalg.Matrix { return linalg.FromRows(rows) }

// CX returns the controlled-X (CNOT) gate; first qubit is the control.
func CX() Gate {
	return Gate{Name: "cx", Qubits: 2, matrix: mat4(
		[]complex128{1, 0, 0, 0},
		[]complex128{0, 1, 0, 0},
		[]complex128{0, 0, 0, 1},
		[]complex128{0, 0, 1, 0})}
}

// CZ returns the controlled-Z gate.
func CZ() Gate {
	return Gate{Name: "cz", Qubits: 2, matrix: mat4(
		[]complex128{1, 0, 0, 0},
		[]complex128{0, 1, 0, 0},
		[]complex128{0, 0, 1, 0},
		[]complex128{0, 0, 0, -1})}
}

// SWAP returns the SWAP gate.
func SWAP() Gate {
	return Gate{Name: "swap", Qubits: 2, matrix: mat4(
		[]complex128{1, 0, 0, 0},
		[]complex128{0, 0, 1, 0},
		[]complex128{0, 1, 0, 0},
		[]complex128{0, 0, 0, 1})}
}

// ISwap returns the iSWAP gate.
func ISwap() Gate {
	return Gate{Name: "iswap", Qubits: 2, matrix: mat4(
		[]complex128{1, 0, 0, 0},
		[]complex128{0, 0, 1i, 0},
		[]complex128{0, 1i, 0, 0},
		[]complex128{0, 0, 0, 1})}
}

// ISwapPow returns iSWAP^t, the XY-interaction gate
// exp(i t pi/4 (XX+YY)). ISwapPow(1) equals ISwap, ISwapPow(0.5) is
// the square-root iSWAP.
func ISwapPow(t float64) Gate {
	// iSWAP^t acts on the {|01>,|10>} block as
	// [[cos(t pi/2), i sin(t pi/2)], [i sin(t pi/2), cos(t pi/2)]].
	cc := complex(math.Cos(t*math.Pi/2), 0)
	ss := complex(0, math.Sin(t*math.Pi/2))
	return Gate{Name: "iswappow", Qubits: 2, Params: []float64{t}, matrix: mat4(
		[]complex128{1, 0, 0, 0},
		[]complex128{0, cc, ss, 0},
		[]complex128{0, ss, cc, 0},
		[]complex128{0, 0, 0, 1})}
}

// SqrtISwap returns the square root of iSWAP.
func SqrtISwap() Gate {
	g := ISwapPow(0.5)
	g.Name = "siswap"
	g.Params = nil
	return g
}

// SqrtISwapN returns the n-th root of iSWAP (e.g. n=2 is SqrtISwap).
func SqrtISwapN(n int) Gate {
	g := ISwapPow(1 / float64(n))
	g.Name = fmt.Sprintf("iswap_r%d", n)
	g.Params = nil
	return g
}

// CPhase returns the controlled-phase gate diag(1,1,1,e^{i theta}).
func CPhase(theta float64) Gate {
	return Gate{Name: "cp", Qubits: 2, Params: []float64{theta}, matrix: mat4(
		[]complex128{1, 0, 0, 0},
		[]complex128{0, 1, 0, 0},
		[]complex128{0, 0, 1, 0},
		[]complex128{0, 0, 0, cmplx.Exp(complex(0, theta))})}
}

// CRY returns the controlled-RY gate (first qubit controls).
func CRY(theta float64) Gate {
	c := complex(math.Cos(theta/2), 0)
	s := complex(math.Sin(theta/2), 0)
	return Gate{Name: "cry", Qubits: 2, Params: []float64{theta}, matrix: mat4(
		[]complex128{1, 0, 0, 0},
		[]complex128{0, 1, 0, 0},
		[]complex128{0, 0, c, -s},
		[]complex128{0, 0, s, c})}
}

// CRZ returns the controlled-RZ gate.
func CRZ(theta float64) Gate {
	return Gate{Name: "crz", Qubits: 2, Params: []float64{theta}, matrix: mat4(
		[]complex128{1, 0, 0, 0},
		[]complex128{0, 1, 0, 0},
		[]complex128{0, 0, cmplx.Exp(complex(0, -theta/2)), 0},
		[]complex128{0, 0, 0, cmplx.Exp(complex(0, theta/2))})}
}

// RXX returns exp(-i theta/2 XX).
func RXX(theta float64) Gate {
	c := complex(math.Cos(theta/2), 0)
	s := complex(0, -math.Sin(theta/2))
	return Gate{Name: "rxx", Qubits: 2, Params: []float64{theta}, matrix: mat4(
		[]complex128{c, 0, 0, s},
		[]complex128{0, c, s, 0},
		[]complex128{0, s, c, 0},
		[]complex128{s, 0, 0, c})}
}

// RZZ returns exp(-i theta/2 ZZ).
func RZZ(theta float64) Gate {
	em := cmplx.Exp(complex(0, -theta/2))
	ep := cmplx.Exp(complex(0, theta/2))
	return Gate{Name: "rzz", Qubits: 2, Params: []float64{theta}, matrix: mat4(
		[]complex128{em, 0, 0, 0},
		[]complex128{0, ep, 0, 0},
		[]complex128{0, 0, ep, 0},
		[]complex128{0, 0, 0, em})}
}

// PSwap returns the parametric SWAP gate: a SWAP on the {|01>,|10>}
// block with a tunable phase, pSWAP(theta) = SWAP . CPhase-like
// interaction. pSWAP(0) = SWAP and pSWAP(pi) = iSWAP-like.
func PSwap(theta float64) Gate {
	return Gate{Name: "pswap", Qubits: 2, Params: []float64{theta}, matrix: mat4(
		[]complex128{1, 0, 0, 0},
		[]complex128{0, 0, cmplx.Exp(complex(0, theta)), 0},
		[]complex128{0, cmplx.Exp(complex(0, theta)), 0, 0},
		[]complex128{0, 0, 0, 1})}
}

// CNS returns the CNOT+SWAP composite (SWAP applied after CX); it is
// locally equivalent to iSWAP (see paper Fig. 1b).
func CNS() Gate {
	m := SWAP().Matrix().Mul(CX().Matrix())
	return Gate{Name: "cns", Qubits: 2, matrix: m}
}

// Pauli matrices used to build canonical gates.
var (
	pauliX = mat2(0, 1, 1, 0)
	pauliY = mat2(0, -1i, 1i, 0)
	pauliZ = mat2(1, 0, 0, -1)
)

// Canonical returns the canonical two-qubit gate
// CAN(x, y, z) = exp(i (x XX + y YY + z ZZ)).
// In this convention CNOT ~ CAN(pi/4, 0, 0), iSWAP ~ CAN(pi/4, pi/4, 0)
// and SWAP ~ CAN(pi/4, pi/4, pi/4), all up to single-qubit gates and
// global phase.
func Canonical(x, y, z float64) Gate {
	xx := pauliX.Kron(pauliX)
	yy := pauliY.Kron(pauliY)
	zz := pauliZ.Kron(pauliZ)
	// XX, YY, ZZ commute, so exp(i(xXX+yYY+zZZ)) factors into the
	// product of the three exponentials. Each satisfies P^2 = I, so
	// exp(i a P) = cos(a) I + i sin(a) P.
	expP := func(a float64, p *linalg.Matrix) *linalg.Matrix {
		return linalg.Identity(4).Scale(complex(math.Cos(a), 0)).
			Add(p.Scale(complex(0, math.Sin(a))))
	}
	m := expP(x, xx).Mul(expP(y, yy)).Mul(expP(z, zz))
	return Gate{Name: "can", Qubits: 2, Params: []float64{x, y, z}, matrix: m}
}

// --- Fixed-size kernel constructors ---
//
// The numeric hot paths (ansatz fitting, block consolidation, Weyl
// coordinates) rebuild parameterised gates inside inner loops; the
// variants below produce linalg.Mat2/Mat4 values directly, with no
// heap traffic.

// Mat2 returns the 1Q gate matrix as a fixed-size value.
func (g Gate) Mat2() linalg.Mat2 { return linalg.Mat2From(g.matrix) }

// Mat4 returns the 2Q gate matrix as a fixed-size value.
func (g Gate) Mat4() linalg.Mat4 { return linalg.Mat4From(g.matrix) }

// U3Mat2 returns the U3(theta, phi, lambda) matrix as a Mat2 value
// (the inner-loop form of U3: same convention, no allocation).
func U3Mat2(theta, phi, lambda float64) linalg.Mat2 {
	ct := complex(math.Cos(theta/2), 0)
	st := complex(math.Sin(theta/2), 0)
	return linalg.Mat2{
		ct, -cmplx.Exp(complex(0, lambda)) * st,
		cmplx.Exp(complex(0, phi)) * st, cmplx.Exp(complex(0, phi+lambda)) * ct,
	}
}
