package linalg

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"
)

const tol = 1e-9

func TestIdentity(t *testing.T) {
	id := Identity(3)
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			want := complex128(0)
			if i == j {
				want = 1
			}
			if id.At(i, j) != want {
				t.Fatalf("Identity(3)[%d][%d] = %v, want %v", i, j, id.At(i, j), want)
			}
		}
	}
}

func TestMulAgainstHandComputed(t *testing.T) {
	a := FromRows([][]complex128{{1, 2}, {3, 4}})
	b := FromRows([][]complex128{{5, 6}, {7, 8}})
	got := a.Mul(b)
	want := FromRows([][]complex128{{19, 22}, {43, 50}})
	if !got.EqualApprox(want, tol) {
		t.Fatalf("Mul = %v, want %v", got, want)
	}
}

func TestMulIdentityIsNoop(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := RandGinibre(4, rng)
	if !m.Mul(Identity(4)).EqualApprox(m, tol) || !Identity(4).Mul(m).EqualApprox(m, tol) {
		t.Fatal("multiplying by identity changed the matrix")
	}
}

func TestDaggerInvolution(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := RandGinibre(4, rng)
	if !m.Dagger().Dagger().EqualApprox(m, tol) {
		t.Fatal("Dagger applied twice is not the identity operation")
	}
}

func TestKronDimensionsAndValues(t *testing.T) {
	a := FromRows([][]complex128{{1, 2}, {3, 4}})
	b := FromRows([][]complex128{{0, 5}, {6, 7}})
	k := a.Kron(b)
	if k.Rows != 4 || k.Cols != 4 {
		t.Fatalf("Kron shape = %dx%d, want 4x4", k.Rows, k.Cols)
	}
	// Spot check block (0,1): a[0][1]*b = 2*b.
	if k.At(0, 2) != 0 || k.At(0, 3) != 10 || k.At(1, 2) != 12 || k.At(1, 3) != 14 {
		t.Fatalf("Kron block (0,1) wrong: %v", k)
	}
}

func TestKronMixedProduct(t *testing.T) {
	// (A⊗B)(C⊗D) = (AC)⊗(BD)
	rng := rand.New(rand.NewSource(4))
	a, b, c, d := RandGinibre(2, rng), RandGinibre(2, rng), RandGinibre(2, rng), RandGinibre(2, rng)
	lhs := a.Kron(b).Mul(c.Kron(d))
	rhs := a.Mul(c).Kron(b.Mul(d))
	if !lhs.EqualApprox(rhs, 1e-8) {
		t.Fatal("Kronecker mixed-product identity violated")
	}
}

func TestDetKnownValues(t *testing.T) {
	m := FromRows([][]complex128{{1, 2}, {3, 4}})
	if d := m.Det(); cmplx.Abs(d-(-2)) > tol {
		t.Fatalf("Det = %v, want -2", d)
	}
	if d := Identity(5).Det(); cmplx.Abs(d-1) > tol {
		t.Fatalf("Det(I) = %v, want 1", d)
	}
	sing := FromRows([][]complex128{{1, 2}, {2, 4}})
	if d := sing.Det(); cmplx.Abs(d) > tol {
		t.Fatalf("Det of singular matrix = %v, want 0", d)
	}
}

func TestDetMultiplicative(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a, b := RandGinibre(4, rng), RandGinibre(4, rng)
	lhs := a.Mul(b).Det()
	rhs := a.Det() * b.Det()
	if cmplx.Abs(lhs-rhs) > 1e-6*(1+cmplx.Abs(rhs)) {
		t.Fatalf("det(AB)=%v but det(A)det(B)=%v", lhs, rhs)
	}
}

func TestTraceCyclic(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	a, b := RandGinibre(4, rng), RandGinibre(4, rng)
	if cmplx.Abs(a.Mul(b).Trace()-b.Mul(a).Trace()) > 1e-8 {
		t.Fatal("trace is not cyclic")
	}
}

func TestEqualUpToGlobalPhase(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m := RandUnitary(4, rng)
	phased := m.Scale(cmplx.Exp(complex(0, 1.234)))
	if !phased.EqualUpToGlobalPhase(m, tol) {
		t.Fatal("global-phase-equal matrices reported unequal")
	}
	other := RandUnitary(4, rng)
	if other.EqualUpToGlobalPhase(m, 1e-6) {
		t.Fatal("independent random unitaries reported phase-equal")
	}
}

func TestQRReconstructsAndQUnitary(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 20; trial++ {
		m := RandGinibre(4, rng)
		q, r := QR(m)
		if !q.IsUnitary(1e-8) {
			t.Fatal("Q from QR is not unitary")
		}
		if !q.Mul(r).EqualApprox(m, 1e-8) {
			t.Fatal("QR does not reconstruct input")
		}
		// R upper triangular with real non-negative diagonal.
		for i := 0; i < 4; i++ {
			for j := 0; j < i; j++ {
				if cmplx.Abs(r.At(i, j)) > 1e-8 {
					t.Fatal("R is not upper triangular")
				}
			}
			d := r.At(i, i)
			if imag(d) > 1e-8 || real(d) < -1e-8 {
				t.Fatalf("R diagonal %v is not real non-negative", d)
			}
		}
	}
}

func TestRandUnitaryIsUnitary(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, n := range []int{2, 4, 8} {
		for trial := 0; trial < 10; trial++ {
			u := RandUnitary(n, rng)
			if !u.IsUnitary(1e-8) {
				t.Fatalf("RandUnitary(%d) not unitary", n)
			}
		}
	}
}

func TestRandSUHasUnitDeterminant(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for trial := 0; trial < 10; trial++ {
		u := RandSU(4, rng)
		if d := u.Det(); cmplx.Abs(d-1) > 1e-7 {
			t.Fatalf("RandSU det = %v, want 1", d)
		}
	}
}

func TestRandUnitaryHaarTraceStatistics(t *testing.T) {
	// For Haar measure on U(n), E[|Tr U|^2] = 1.
	rng := rand.New(rand.NewSource(11))
	const samples = 3000
	var sum float64
	for i := 0; i < samples; i++ {
		u := RandUnitary(4, rng)
		tr := u.Trace()
		sum += real(tr)*real(tr) + imag(tr)*imag(tr)
	}
	mean := sum / samples
	if math.Abs(mean-1) > 0.15 {
		t.Fatalf("E[|Tr U|^2] = %.3f, want ~1 (Haar measure check)", mean)
	}
}

func TestSymEigenReconstructs(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 20; trial++ {
		g := RandGinibre(4, rng).RealPart()
		a := g.Add(g.Transpose()) // random real symmetric
		vals, v := SymEigen(a)
		if !v.Mul(v.Transpose()).EqualApprox(Identity(4), 1e-8) {
			t.Fatal("eigenvector matrix not orthogonal")
		}
		d := New(4, 4)
		for i, val := range vals {
			d.Set(i, i, complex(val, 0))
		}
		if !v.Mul(d).Mul(v.Transpose()).EqualApprox(a, 1e-7) {
			t.Fatal("V D V^T does not reconstruct A")
		}
	}
}

func TestSymEigenDegenerate(t *testing.T) {
	// Matrix with a repeated eigenvalue.
	a := FromRows([][]complex128{
		{2, 0, 0},
		{0, 2, 0},
		{0, 0, 5},
	})
	vals, v := SymEigen(a)
	if !v.Mul(v.Transpose()).EqualApprox(Identity(3), 1e-9) {
		t.Fatal("eigenvectors not orthogonal for degenerate matrix")
	}
	found5 := false
	for _, val := range vals {
		if math.Abs(val-5) < 1e-9 {
			found5 = true
		}
	}
	if !found5 {
		t.Fatalf("eigenvalues %v missing 5", vals)
	}
}

func TestJointSymEigen(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	// Build commuting symmetric matrices sharing an eigenbasis.
	q, _ := QR(RandGinibre(4, rng).RealPart())
	dx, dy := New(4, 4), New(4, 4)
	for i := 0; i < 4; i++ {
		dx.Set(i, i, complex(rng.NormFloat64(), 0))
		dy.Set(i, i, complex(rng.NormFloat64(), 0))
	}
	x := q.Mul(dx).Mul(q.Transpose())
	y := q.Mul(dy).Mul(q.Transpose())
	xv, yv, v, ok := JointSymEigen(x, y, rng)
	if !ok {
		t.Fatal("JointSymEigen failed on commuting pair")
	}
	// Verify both reconstructions.
	rx, ry := New(4, 4), New(4, 4)
	for i := 0; i < 4; i++ {
		rx.Set(i, i, complex(xv[i], 0))
		ry.Set(i, i, complex(yv[i], 0))
	}
	if !v.Mul(rx).Mul(v.Transpose()).EqualApprox(x, 1e-6) {
		t.Fatal("joint diagonalisation does not reconstruct X")
	}
	if !v.Mul(ry).Mul(v.Transpose()).EqualApprox(y, 1e-6) {
		t.Fatal("joint diagonalisation does not reconstruct Y")
	}
}

func TestPropertyTransposeOfProduct(t *testing.T) {
	// (AB)^T = B^T A^T via testing/quick on random seeds.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a, b := RandGinibre(3, rng), RandGinibre(3, rng)
		return a.Mul(b).Transpose().EqualApprox(b.Transpose().Mul(a.Transpose()), 1e-8)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyDaggerOfProduct(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a, b := RandGinibre(3, rng), RandGinibre(3, rng)
		return a.Mul(b).Dagger().EqualApprox(b.Dagger().Mul(a.Dagger()), 1e-8)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyUnitaryProductIsUnitary(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a, b := RandUnitary(4, rng), RandUnitary(4, rng)
		return a.Mul(b).IsUnitary(1e-8)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestFromSliceAndAccessors(t *testing.T) {
	m := FromSlice(2, 3, []complex128{1, 2, 3, 4, 5, 6})
	if m.At(1, 2) != 6 || m.At(0, 1) != 2 {
		t.Fatal("FromSlice layout wrong")
	}
	m.Set(1, 2, 9)
	if m.At(1, 2) != 9 {
		t.Fatal("Set failed")
	}
}

func TestShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on shape mismatch")
		}
	}()
	a := New(2, 2)
	b := New(3, 3)
	a.Mul(b)
}
