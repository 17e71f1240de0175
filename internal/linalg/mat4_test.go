package linalg

// Property tests pinning every fixed-size kernel to the generic
// *Matrix reference implementation on random complex inputs.

import (
	"math/rand"
	"testing"
)

func randMat2(rng *rand.Rand) Mat2 {
	var m Mat2
	for i := range m {
		m[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return m
}

func randMat4(rng *rand.Rand) Mat4 {
	var m Mat4
	for i := range m {
		m[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return m
}

const kernelTol = 1e-12

func TestMat2KernelsMatchGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 25; trial++ {
		a, b := randMat2(rng), randMat2(rng)
		ga, gb := a.ToMatrix(), b.ToMatrix()

		check := func(name string, got Mat2, want *Matrix) {
			t.Helper()
			if got.ToMatrix().MaxAbsDiff(want) > kernelTol {
				t.Fatalf("Mat2.%s diverged from the generic kernel", name)
			}
		}
		check("Mul", a.Mul(b), ga.Mul(gb))
		if a.Kron(b).ToMatrix().MaxAbsDiff(ga.Kron(gb)) > kernelTol {
			t.Fatal("Mat2.Kron diverged")
		}
		id2 := Identity(2)
		if a.KronI().ToMatrix().MaxAbsDiff(ga.Kron(id2)) > kernelTol {
			t.Fatal("Mat2.KronI diverged")
		}
		if a.IKron().ToMatrix().MaxAbsDiff(id2.Kron(ga)) > kernelTol {
			t.Fatal("Mat2.IKron diverged")
		}
	}
}

func TestMat4KernelsMatchGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 25; trial++ {
		a, b := randMat4(rng), randMat4(rng)
		ga, gb := a.ToMatrix(), b.ToMatrix()
		s := complex(rng.NormFloat64(), rng.NormFloat64())

		check := func(name string, got Mat4, want *Matrix) {
			t.Helper()
			if got.ToMatrix().MaxAbsDiff(want) > 1e-10 {
				t.Fatalf("Mat4.%s diverged from the generic kernel", name)
			}
		}
		check("Mul", a.Mul(b), ga.Mul(gb))
		check("MulTranspose", a.MulTranspose(), ga.Mul(ga.Transpose()))
		check("Scale", a.Scale(s), ga.Scale(s))
		check("Dagger", a.Dagger(), ga.Dagger())
		if d := a.Trace() - ga.Trace(); real(d)*real(d)+imag(d)*imag(d) > kernelTol {
			t.Fatal("Mat4.Trace diverged")
		}
		if d := a.Det() - ga.Det(); real(d)*real(d)+imag(d)*imag(d) > 1e-8 {
			t.Fatal("Mat4.Det diverged")
		}
		if d := a.TraceMulDagger(b) - ga.Dagger().Mul(gb).Trace(); real(d)*real(d)+imag(d)*imag(d) > 1e-10 {
			t.Fatal("Mat4.TraceMulDagger diverged")
		}
	}
}

func TestMat4RoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	m := randMat4(rng)
	if Mat4From(m.ToMatrix()) != m {
		t.Fatal("Mat4 conversion round trip lost bits")
	}
	m2 := randMat2(rng)
	if Mat2From(m2.ToMatrix()) != m2 {
		t.Fatal("Mat2 conversion round trip lost bits")
	}
}

func TestMat4UnitaryPredicates(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	u := RandSU4(rng)
	if !u.IsUnitary(1e-10) {
		t.Fatal("RandSU4 is not unitary")
	}
	if d := u.Det(); real(d)*real(d)+imag(d)*imag(d) < 0.99 || cAbs2(d-1) > 1e-10 {
		t.Fatalf("RandSU4 det = %v, want 1", d)
	}
	g := randMat4(rng)
	if g.IsUnitary(1e-6) {
		t.Fatal("random Ginibre draw reported as unitary")
	}
}

func cAbs2(v complex128) float64 { return real(v)*real(v) + imag(v)*imag(v) }

func TestMat4KernelAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	a, b := randMat4(rng), randMat4(rng)
	l := randMat2(rng)
	if avg := testing.AllocsPerRun(100, func() {
		c := a.Mul(b).Dagger().Mul(a)
		c = l.Kron(l).Mul(c)
		_ = c.Trace() + c.Det()
	}); avg > 0 {
		t.Errorf("Mat4 kernel chain allocates %.1f objects/op, want 0", avg)
	}
}

func BenchmarkMat4Mul(b *testing.B) {
	rng := rand.New(rand.NewSource(16))
	x, y := randMat4(rng), randMat4(rng)
	b.ReportAllocs()
	var sink Mat4
	for i := 0; i < b.N; i++ {
		sink = x.Mul(y)
	}
	_ = sink
}

func BenchmarkGenericMul4(b *testing.B) {
	rng := rand.New(rand.NewSource(16))
	x, y := randMat4(rng).ToMatrix(), randMat4(rng).ToMatrix()
	b.ReportAllocs()
	var sink *Matrix
	for i := 0; i < b.N; i++ {
		sink = x.Mul(y)
	}
	_ = sink
}
