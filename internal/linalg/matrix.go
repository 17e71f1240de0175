// Package linalg provides the dense complex linear algebra used by the
// rest of the repository: matrix arithmetic, Kronecker products,
// determinants, QR factorisation, a Jacobi eigensolver for real
// symmetric matrices, and Haar-random unitary sampling.
//
// Everything is built on complex128 and sized for the small (2x2 ..
// 64x64) matrices that two-qubit synthesis and small-circuit
// verification require. Matrices are stored row-major.
package linalg

import (
	"fmt"
	"math"
	"math/cmplx"
	"strings"
)

// Matrix is a dense, row-major complex matrix.
type Matrix struct {
	Rows, Cols int
	Data       []complex128
}

// New returns a zero matrix with the given shape.
func New(rows, cols int) *Matrix {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("linalg: invalid shape %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]complex128, rows*cols)}
}

// FromSlice builds a matrix from a row-major slice of length rows*cols.
// The slice is copied.
func FromSlice(rows, cols int, data []complex128) *Matrix {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("linalg: FromSlice got %d values for %dx%d", len(data), rows, cols))
	}
	m := New(rows, cols)
	copy(m.Data, data)
	return m
}

// FromRows builds a matrix from row slices, which must all have equal length.
func FromRows(rows [][]complex128) *Matrix {
	if len(rows) == 0 {
		panic("linalg: FromRows with no rows")
	}
	m := New(len(rows), len(rows[0]))
	for i, r := range rows {
		if len(r) != m.Cols {
			panic("linalg: FromRows with ragged rows")
		}
		copy(m.Data[i*m.Cols:(i+1)*m.Cols], r)
	}
	return m
}

// Identity returns the n x n identity matrix.
func Identity(n int) *Matrix {
	m := New(n, n)
	for i := 0; i < n; i++ {
		m.Data[i*n+i] = 1
	}
	return m
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) complex128 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v complex128) { m.Data[i*m.Cols+j] = v }

// Copy returns a deep copy of m.
func (m *Matrix) Copy() *Matrix {
	c := New(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// IsSquare reports whether m is square.
func (m *Matrix) IsSquare() bool { return m.Rows == m.Cols }

// Mul returns m * other.
func (m *Matrix) Mul(other *Matrix) *Matrix {
	if m.Cols != other.Rows {
		panic(fmt.Sprintf("linalg: Mul shape mismatch %dx%d * %dx%d", m.Rows, m.Cols, other.Rows, other.Cols))
	}
	out := New(m.Rows, other.Cols)
	for i := 0; i < m.Rows; i++ {
		mi := m.Data[i*m.Cols : (i+1)*m.Cols]
		oi := out.Data[i*out.Cols : (i+1)*out.Cols]
		for k, mik := range mi {
			if mik == 0 {
				continue
			}
			ok := other.Data[k*other.Cols : (k+1)*other.Cols]
			for j, okj := range ok {
				oi[j] += mik * okj
			}
		}
	}
	return out
}

// Add returns m + other.
func (m *Matrix) Add(other *Matrix) *Matrix {
	m.checkSameShape(other, "Add")
	out := m.Copy()
	for i := range out.Data {
		out.Data[i] += other.Data[i]
	}
	return out
}

// Scale returns s * m.
func (m *Matrix) Scale(s complex128) *Matrix {
	out := m.Copy()
	for i := range out.Data {
		out.Data[i] *= s
	}
	return out
}

// Transpose returns the transpose of m.
func (m *Matrix) Transpose() *Matrix {
	out := New(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			out.Set(j, i, m.At(i, j))
		}
	}
	return out
}

// Conj returns the elementwise complex conjugate of m.
func (m *Matrix) Conj() *Matrix {
	out := m.Copy()
	for i := range out.Data {
		out.Data[i] = cmplx.Conj(out.Data[i])
	}
	return out
}

// Dagger returns the conjugate transpose of m.
func (m *Matrix) Dagger() *Matrix { return m.Conj().Transpose() }

// Trace returns the sum of diagonal elements.
func (m *Matrix) Trace() complex128 {
	if !m.IsSquare() {
		panic("linalg: Trace of non-square matrix")
	}
	var t complex128
	for i := 0; i < m.Rows; i++ {
		t += m.At(i, i)
	}
	return t
}

// Kron returns the Kronecker product m ⊗ other.
func (m *Matrix) Kron(other *Matrix) *Matrix {
	out := New(m.Rows*other.Rows, m.Cols*other.Cols)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			a := m.At(i, j)
			if a == 0 {
				continue
			}
			for k := 0; k < other.Rows; k++ {
				for l := 0; l < other.Cols; l++ {
					out.Set(i*other.Rows+k, j*other.Cols+l, a*other.At(k, l))
				}
			}
		}
	}
	return out
}

// Det returns the determinant via LU decomposition with partial pivoting.
func (m *Matrix) Det() complex128 {
	if !m.IsSquare() {
		panic("linalg: Det of non-square matrix")
	}
	n := m.Rows
	a := m.Copy()
	det := complex128(1)
	for col := 0; col < n; col++ {
		// Partial pivot: pick the row with the largest magnitude entry.
		pivot := col
		best := cmplx.Abs(a.At(col, col))
		for r := col + 1; r < n; r++ {
			if v := cmplx.Abs(a.At(r, col)); v > best {
				best, pivot = v, r
			}
		}
		if best == 0 {
			return 0
		}
		if pivot != col {
			for j := 0; j < n; j++ {
				v := a.At(col, j)
				a.Set(col, j, a.At(pivot, j))
				a.Set(pivot, j, v)
			}
			det = -det
		}
		p := a.At(col, col)
		det *= p
		for r := col + 1; r < n; r++ {
			f := a.At(r, col) / p
			if f == 0 {
				continue
			}
			for j := col; j < n; j++ {
				a.Set(r, j, a.At(r, j)-f*a.At(col, j))
			}
		}
	}
	return det
}

// FrobeniusNorm returns sqrt(sum |m_ij|^2).
func (m *Matrix) FrobeniusNorm() float64 {
	var s float64
	for _, v := range m.Data {
		s += real(v)*real(v) + imag(v)*imag(v)
	}
	return math.Sqrt(s)
}

// MaxAbsDiff returns the largest elementwise |m - other|.
func (m *Matrix) MaxAbsDiff(other *Matrix) float64 {
	m.checkSameShape(other, "MaxAbsDiff")
	var d float64
	for i := range m.Data {
		if v := cmplx.Abs(m.Data[i] - other.Data[i]); v > d {
			d = v
		}
	}
	return d
}

// EqualApprox reports whether all elements of m and other differ by at
// most tol in magnitude.
func (m *Matrix) EqualApprox(other *Matrix, tol float64) bool {
	if m.Rows != other.Rows || m.Cols != other.Cols {
		return false
	}
	return m.MaxAbsDiff(other) <= tol
}

// EqualUpToGlobalPhase reports whether m = e^{i phi} * other for some
// real phi, within tol.
func (m *Matrix) EqualUpToGlobalPhase(other *Matrix, tol float64) bool {
	if m.Rows != other.Rows || m.Cols != other.Cols {
		return false
	}
	// Find the largest element of other to anchor the phase.
	idx, best := -1, 0.0
	for i, v := range other.Data {
		if a := cmplx.Abs(v); a > best {
			best, idx = a, i
		}
	}
	if idx < 0 { // other is zero
		return m.FrobeniusNorm() <= tol
	}
	if cmplx.Abs(m.Data[idx]) < tol/2 {
		return false
	}
	phase := m.Data[idx] / other.Data[idx]
	pa := cmplx.Abs(phase)
	if pa == 0 {
		return false
	}
	phase /= complex(pa, 0)
	return m.EqualApprox(other.Scale(phase), tol)
}

// IsUnitary reports whether m^dagger m = I within tol.
func (m *Matrix) IsUnitary(tol float64) bool {
	if !m.IsSquare() {
		return false
	}
	return m.Dagger().Mul(m).EqualApprox(Identity(m.Rows), tol)
}

// String renders the matrix for debugging.
func (m *Matrix) String() string {
	var b strings.Builder
	for i := 0; i < m.Rows; i++ {
		b.WriteString("[")
		for j := 0; j < m.Cols; j++ {
			v := m.At(i, j)
			fmt.Fprintf(&b, " %6.3f%+6.3fi", real(v), imag(v))
		}
		b.WriteString(" ]\n")
	}
	return b.String()
}

func (m *Matrix) checkSameShape(other *Matrix, op string) {
	if m.Rows != other.Rows || m.Cols != other.Cols {
		panic(fmt.Sprintf("linalg: %s shape mismatch %dx%d vs %dx%d", op, m.Rows, m.Cols, other.Rows, other.Cols))
	}
}

// RealPart returns the real part of m as a new matrix (imag parts zeroed).
func (m *Matrix) RealPart() *Matrix {
	out := New(m.Rows, m.Cols)
	for i, v := range m.Data {
		out.Data[i] = complex(real(v), 0)
	}
	return out
}

// ImagPart returns the imaginary part of m as a new matrix.
func (m *Matrix) ImagPart() *Matrix {
	out := New(m.Rows, m.Cols)
	for i, v := range m.Data {
		out.Data[i] = complex(imag(v), 0)
	}
	return out
}
