package decompose

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/gates"
	"repro/internal/haar"
	"repro/internal/polytope"
	"repro/internal/weyl"
)

// These tests check haar's coordinate-space fidelity model against
// this package's matrix fidelity and ansatz fit.

func TestCanonicalFidelityMatchesMatrixFidelity(t *testing.T) {
	// The analytic magic-basis formula must agree with the explicit
	// matrix computation.
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 10; i++ {
		a, b := weyl.HaarSample(rng), weyl.HaarSample(rng)
		want := AvgGateFidelity(a.Gate(), b.Gate())
		if got := haar.CanonicalFidelity(a, b); math.Abs(got-want) > 1e-9 {
			t.Fatalf("analytic fidelity %g, matrix fidelity %g", got, want)
		}
	}
}

func TestCoordinateFidelityAgreesWithAnsatzFit(t *testing.T) {
	// Validates the coordinate-space surrogate used by Algorithm 1:
	// fitting a real 2-layer sqrt-iSWAP ansatz to SWAP must reach at
	// least the fidelity our in-region optimiser promises (the ansatz
	// can also exploit local gates, so it may do slightly better).
	rng := rand.New(rand.NewSource(8))
	surrogate := haar.BestFidelityInRegion(weyl.SwapCoord, polytope.SqrtISwapK2(), rng)
	fit := Synthesize(gates.SWAP().Matrix(), gates.SqrtISwap(), 2,
		SynthOptions{Restarts: 16, MaxIter: 4000, Seed: 9})
	fitAvg := (4*fit.Fidelity + 1) / 5
	if fitAvg < surrogate-5e-3 {
		t.Fatalf("ansatz fit fidelity %.5f below surrogate promise %.5f", fitAvg, surrogate)
	}
}
