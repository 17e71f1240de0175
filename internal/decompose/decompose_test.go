package decompose

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/gates"
	"repro/internal/linalg"
	"repro/internal/polytope"
	"repro/internal/weyl"
)

func TestKAKReconstructsRandomUnitaries(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 25; trial++ {
		u := linalg.RandUnitary(4, rng)
		d, err := KAK(u, rng)
		if err != nil {
			t.Fatalf("KAK failed on trial %d: %v", trial, err)
		}
		if !d.Reconstruct().EqualApprox(u, 1e-6) {
			t.Fatalf("KAK reconstruction error %g on trial %d",
				d.Reconstruct().MaxAbsDiff(u), trial)
		}
		for i, l := range []*linalg.Matrix{d.K1l, d.K1r, d.K2l, d.K2r} {
			if !l.IsUnitary(1e-7) {
				t.Fatalf("KAK local %d is not unitary", i)
			}
		}
	}
}

func TestKAKOnNamedGates(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, g := range []gates.Gate{
		gates.CX(), gates.CZ(), gates.SWAP(), gates.ISwap(), gates.SqrtISwap(),
		gates.CNS(), gates.CPhase(1.1), gates.RXX(0.7), gates.RZZ(0.4),
	} {
		d, err := KAK(g.Matrix(), rng)
		if err != nil {
			t.Fatalf("KAK(%s) failed: %v", g.Name, err)
		}
		if !d.Reconstruct().EqualApprox(g.Matrix(), 1e-6) {
			t.Fatalf("KAK(%s) reconstruction error %g", g.Name, d.Reconstruct().MaxAbsDiff(g.Matrix()))
		}
	}
}

func TestKAKCoordinateAgreesWithWeyl(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 20; trial++ {
		u := linalg.RandUnitary(4, rng)
		d, err := KAK(u, rng)
		if err != nil {
			t.Fatal(err)
		}
		want := weyl.MustCoordinateOf(u)
		if got := d.CanonicalCoordinate(); !got.ApproxEqual(want, 1e-6) {
			t.Fatalf("KAK coordinate %v, weyl coordinate %v", got, want)
		}
	}
}

func TestKAKRejectsNonUnitary(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	if _, err := KAK(linalg.RandGinibre(4, rng), rng); err == nil {
		t.Fatal("expected error for non-unitary input")
	}
	if _, err := KAK(linalg.Identity(3), rng); err == nil {
		t.Fatal("expected error for wrong-size input")
	}
}

func TestKronFactor(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 20; trial++ {
		a := linalg.RandUnitary(2, rng)
		b := linalg.RandUnitary(2, rng)
		k := a.Kron(b)
		fa, fb, err := kronFactor(k)
		if err != nil {
			t.Fatalf("kronFactor failed: %v", err)
		}
		if !fa.Kron(fb).EqualApprox(k, 1e-7) {
			t.Fatal("kronFactor does not reconstruct the product")
		}
	}
	// Non-product matrices must be rejected.
	if _, _, err := kronFactor(gates.CX().Matrix()); err == nil {
		t.Fatal("kronFactor accepted an entangling gate")
	}
}

func TestProcessFidelity(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	u := linalg.RandUnitary(4, rng)
	if f := ProcessFidelity(u, u.Scale(complex(0, 1))); math.Abs(f-1) > 1e-10 {
		t.Fatalf("phase-equal matrices have Fpro %g, want 1", f)
	}
	v := linalg.RandUnitary(4, rng)
	if f := ProcessFidelity(u, v); f > 0.9 {
		t.Fatalf("independent unitaries have Fpro %g, expected < 0.9", f)
	}
}

// TestSynthesizeFig1Costs checks that the sqrt-iSWAP cost k the coverage
// polytopes predict for each gate of paper Fig. 1 can be realised by a
// fitted ansatz, and that k-1 basis applications cannot. CNOT and
// CNOT+SWAP (CNS) both cost two: the "free SWAP" MIRAGE exploits.
func TestSynthesizeFig1Costs(t *testing.T) {
	basis := gates.SqrtISwap()
	cov := polytope.NewISwapRootCoverage(2)
	opts := SynthOptions{Restarts: 40, MaxIter: 6000, Seed: 11}
	for _, g := range []gates.Gate{gates.CX(), gates.CNS(), gates.ISwap(), gates.SWAP()} {
		t.Run(g.Name, func(t *testing.T) {
			target := g.Matrix()
			region, ok := cov.MinCost(weyl.MustCoordinateOf(target), false)
			if !ok {
				t.Fatalf("no coverage region for %s", g.Name)
			}
			fit := Synthesize(target, basis, region.K, opts)
			if fit.Fidelity < 1-1e-9 {
				t.Fatalf("fit with k=%d reached fidelity %.12f", region.K, fit.Fidelity)
			}
			if !fit.Unitary(basis).EqualUpToGlobalPhase(target, 1e-4) {
				t.Fatal("fitted unitary does not match the target")
			}
			if under := Synthesize(target, basis, region.K-1, opts); under.Fidelity > 1-1e-4 {
				t.Fatalf("fit with k=%d reached fidelity %.9f; the polytope cost is not minimal",
					region.K-1, under.Fidelity)
			}
		})
	}
}

func TestSynthesizeRandomInsideK2Region(t *testing.T) {
	// Points inside the exact Huang k=2 region must synthesise with two
	// sqrt-iSWAPs; this cross-validates the polytope layer.
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 4; trial++ {
		x := 0.4 + rng.Float64()*0.3
		y := rng.Float64() * x * 0.5
		z := (2*rng.Float64() - 1) * math.Min(y, x-y) * 0.9
		target := weyl.Coordinate{X: x, Y: y, Z: math.Abs(z)}
		if target.X < target.Y+math.Abs(target.Z) {
			continue // outside the region; skip
		}
		r := Synthesize(target.Gate(), gates.SqrtISwap(), 2,
			SynthOptions{Restarts: 20, MaxIter: 5000, Seed: int64(trial + 1)})
		if r.Fidelity < 1-1e-6 {
			t.Fatalf("coordinate %v inside k=2 region failed to synthesise: fidelity %.9f",
				target, r.Fidelity)
		}
	}
}
