package gates

import (
	"math/rand"
	"testing"
)

// TestCanonicalMat4MatchesGeneric pins the closed-form canonical gate
// to the exponential-product construction it replaces on hot paths.
func TestCanonicalMat4MatchesGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 50; trial++ {
		x := (2*rng.Float64() - 1) * 2
		y := (2*rng.Float64() - 1) * 2
		z := (2*rng.Float64() - 1) * 2
		fast := CanonicalMat4(x, y, z)
		ref := Canonical(x, y, z).Mat4()
		if fast.MaxAbsDiff(ref) > 1e-12 {
			t.Fatalf("CanonicalMat4(%g,%g,%g) diverges by %g", x, y, z, fast.MaxAbsDiff(ref))
		}
	}
}

// TestU3Mat2MatchesGeneric pins the fixed-size U3 to the Gate version.
func TestU3Mat2MatchesGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 50; trial++ {
		th, ph, la := rng.Float64()*7, rng.Float64()*7, rng.Float64()*7
		if U3Mat2(th, ph, la).ToMatrix().MaxAbsDiff(U3(th, ph, la).Matrix()) > 1e-15 {
			t.Fatalf("U3Mat2(%g,%g,%g) diverges", th, ph, la)
		}
	}
}

func TestU3Mat2Allocs(t *testing.T) {
	if avg := testing.AllocsPerRun(100, func() {
		u := U3Mat2(0.3, 0.4, 0.5)
		_ = u.Kron(U3Mat2(0.6, 0.7, 0.8))
	}); avg > 0 {
		t.Errorf("U3Mat2 layer build allocates %.1f objects/op, want 0", avg)
	}
}
