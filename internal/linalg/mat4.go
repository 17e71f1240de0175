package linalg

// Fixed-size value-type kernels for the 2x2 / 4x4 matrices that
// dominate two-qubit work: Weyl-coordinate extraction, block
// consolidation and ansatz fitting all operate on small unitaries, and the generic *Matrix path allocates a fresh
// header + data slice per intermediate. Mat2 and Mat4 are plain arrays
// passed by value: every operation below is allocation-free and fully
// unrolled (or uses constant-bound loops the compiler unrolls), so hot
// loops keep their operands in registers / on the stack.
//
// Only the kernels those callers use are here. The generic Matrix type
// remains the reference implementation; the property tests in
// mat4_test.go pin every kernel to it.

import (
	"math"
	"math/cmplx"
	"math/rand"
)

// Mat2 is a 2x2 complex matrix stored row-major by value.
type Mat2 [4]complex128

// Mat4 is a 4x4 complex matrix stored row-major by value.
type Mat4 [16]complex128

// IdentityMat2 returns the 2x2 identity.
func IdentityMat2() Mat2 { return Mat2{1, 0, 0, 1} }

// IdentityMat4 returns the 4x4 identity.
func IdentityMat4() Mat4 {
	return Mat4{
		1, 0, 0, 0,
		0, 1, 0, 0,
		0, 0, 1, 0,
		0, 0, 0, 1,
	}
}

// Mat2From converts a 2x2 generic matrix to a Mat2.
func Mat2From(m *Matrix) Mat2 {
	if m.Rows != 2 || m.Cols != 2 {
		panic("linalg: Mat2From requires a 2x2 matrix")
	}
	return Mat2{m.Data[0], m.Data[1], m.Data[2], m.Data[3]}
}

// Mat4From converts a 4x4 generic matrix to a Mat4.
func Mat4From(m *Matrix) Mat4 {
	if m.Rows != 4 || m.Cols != 4 {
		panic("linalg: Mat4From requires a 4x4 matrix")
	}
	var out Mat4
	copy(out[:], m.Data)
	return out
}

// ToMatrix converts m to a generic matrix (one allocation).
func (m Mat2) ToMatrix() *Matrix { return FromSlice(2, 2, m[:]) }

// ToMatrix converts m to a generic matrix (one allocation).
func (m Mat4) ToMatrix() *Matrix { return FromSlice(4, 4, m[:]) }

// --- Mat2 arithmetic ---

// Mul returns m * o.
func (m Mat2) Mul(o Mat2) Mat2 {
	return Mat2{
		m[0]*o[0] + m[1]*o[2], m[0]*o[1] + m[1]*o[3],
		m[2]*o[0] + m[3]*o[2], m[2]*o[1] + m[3]*o[3],
	}
}

// Kron returns the Kronecker product m (x) o as a Mat4 (m indexes the
// most significant qubit, matching Matrix.Kron).
func (m Mat2) Kron(o Mat2) Mat4 {
	return Mat4{
		m[0] * o[0], m[0] * o[1], m[1] * o[0], m[1] * o[1],
		m[0] * o[2], m[0] * o[3], m[1] * o[2], m[1] * o[3],
		m[2] * o[0], m[2] * o[1], m[3] * o[0], m[3] * o[1],
		m[2] * o[2], m[2] * o[3], m[3] * o[2], m[3] * o[3],
	}
}

// KronI returns m (x) I2 without forming the identity.
func (m Mat2) KronI() Mat4 {
	return Mat4{
		m[0], 0, m[1], 0,
		0, m[0], 0, m[1],
		m[2], 0, m[3], 0,
		0, m[2], 0, m[3],
	}
}

// IKron returns I2 (x) m without forming the identity.
func (m Mat2) IKron() Mat4 {
	return Mat4{
		m[0], m[1], 0, 0,
		m[2], m[3], 0, 0,
		0, 0, m[0], m[1],
		0, 0, m[2], m[3],
	}
}

// --- Mat4 arithmetic ---

// Mul returns m * o. The inner products are unrolled; the row loop has
// a constant bound so every operand stays on the stack.
func (m Mat4) Mul(o Mat4) Mat4 {
	var r Mat4
	for i := 0; i < 4; i++ {
		ri := i * 4
		a0, a1, a2, a3 := m[ri], m[ri+1], m[ri+2], m[ri+3]
		r[ri+0] = a0*o[0] + a1*o[4] + a2*o[8] + a3*o[12]
		r[ri+1] = a0*o[1] + a1*o[5] + a2*o[9] + a3*o[13]
		r[ri+2] = a0*o[2] + a1*o[6] + a2*o[10] + a3*o[14]
		r[ri+3] = a0*o[3] + a1*o[7] + a2*o[11] + a3*o[15]
	}
	return r
}

// MulTranspose returns m * m^T without materialising the transpose.
// The product of a matrix with its own transpose is symmetric, so only
// the upper triangle is computed and mirrored.
func (m Mat4) MulTranspose() Mat4 {
	var r Mat4
	for i := 0; i < 4; i++ {
		ri := i * 4
		for j := i; j < 4; j++ {
			rj := j * 4
			v := m[ri]*m[rj] + m[ri+1]*m[rj+1] + m[ri+2]*m[rj+2] + m[ri+3]*m[rj+3]
			r[ri+j] = v
			r[rj+i] = v
		}
	}
	return r
}

// Scale returns s * m.
func (m Mat4) Scale(s complex128) Mat4 {
	var r Mat4
	for i := range m {
		r[i] = s * m[i]
	}
	return r
}

// Dagger returns the conjugate transpose.
func (m Mat4) Dagger() Mat4 {
	var r Mat4
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			r[j*4+i] = cmplx.Conj(m[i*4+j])
		}
	}
	return r
}

// Trace returns the sum of diagonal elements.
func (m Mat4) Trace() complex128 { return m[0] + m[5] + m[10] + m[15] }

// TraceMulDagger returns Tr(m^dagger o) = sum conj(m_ij) o_ij without
// forming the product (the inner product behind process fidelity).
func (m Mat4) TraceMulDagger(o Mat4) complex128 {
	var t complex128
	for i := range m {
		t += cmplx.Conj(m[i]) * o[i]
	}
	return t
}

// Det returns the determinant by cofactor expansion over 2x2 minors
// (the standard s/c split), exact in 30 multiplications.
func (m Mat4) Det() complex128 {
	s0 := m[0]*m[5] - m[1]*m[4]
	s1 := m[0]*m[6] - m[2]*m[4]
	s2 := m[0]*m[7] - m[3]*m[4]
	s3 := m[1]*m[6] - m[2]*m[5]
	s4 := m[1]*m[7] - m[3]*m[5]
	s5 := m[2]*m[7] - m[3]*m[6]

	c5 := m[10]*m[15] - m[11]*m[14]
	c4 := m[9]*m[15] - m[11]*m[13]
	c3 := m[9]*m[14] - m[10]*m[13]
	c2 := m[8]*m[15] - m[11]*m[12]
	c1 := m[8]*m[14] - m[10]*m[12]
	c0 := m[8]*m[13] - m[9]*m[12]

	return s0*c5 - s1*c4 + s2*c3 + s3*c2 - s4*c1 + s5*c0
}

// MaxAbsDiff returns the largest elementwise |m - o|.
func (m Mat4) MaxAbsDiff(o Mat4) float64 {
	var d float64
	for i := range m {
		if v := cmplx.Abs(m[i] - o[i]); v > d {
			d = v
		}
	}
	return d
}

// EqualApprox reports whether all elements differ by at most tol.
func (m Mat4) EqualApprox(o Mat4, tol float64) bool { return m.MaxAbsDiff(o) <= tol }

// IsUnitary reports whether m^dagger m = I within tol.
func (m Mat4) IsUnitary(tol float64) bool {
	return m.Dagger().Mul(m).EqualApprox(IdentityMat4(), tol)
}

// --- Haar sampling on the fixed-size path ---

// RandSU4 returns a Haar-random SU(4) matrix as a Mat4, allocation
// free: a complex Ginibre draw orthonormalised with two sweeps of
// modified Gram-Schmidt (Mezzadri's construction, matching RandSU(4))
// and det-normalised.
func RandSU4(rng *rand.Rand) Mat4 {
	var g Mat4
	for i := range g {
		g[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	// Column-wise modified Gram-Schmidt with re-orthogonalisation.
	for j := 0; j < 4; j++ {
		for sweep := 0; sweep < 2; sweep++ {
			for k := 0; k < j; k++ {
				var dot complex128
				for i := 0; i < 4; i++ {
					dot += cmplx.Conj(g[i*4+k]) * g[i*4+j]
				}
				for i := 0; i < 4; i++ {
					g[i*4+j] -= dot * g[i*4+k]
				}
			}
		}
		var norm float64
		for i := 0; i < 4; i++ {
			v := g[i*4+j]
			norm += real(v)*real(v) + imag(v)*imag(v)
		}
		norm = math.Sqrt(norm)
		if norm == 0 {
			// Astronomically unlikely; retry with fresh randomness.
			return RandSU4(rng)
		}
		inv := complex(1/norm, 0)
		for i := 0; i < 4; i++ {
			g[i*4+j] *= inv
		}
	}
	det := g.Det()
	return g.Scale(cmplx.Pow(det, complex(-0.25, 0)))
}
