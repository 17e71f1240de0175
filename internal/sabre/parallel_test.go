package sabre

import (
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/circuit"
	"repro/internal/gates"
	"repro/internal/topology"
)

// parityMirror deterministically mirrors roughly half the offered
// gates, exercising the policy path (and its layout mutations) without
// depending on internal/mirage (which would import-cycle).
type parityMirror struct{}

func (parityMirror) Decide(ctx *MirrorContext) bool {
	return (ctx.PhysA+ctx.PhysB)%2 == 0
}

func routingFingerprint(r *Result) []int {
	fp := []int{r.SwapsInserted, r.MirrorsUsed, r.TwoQubitGates}
	fp = append(fp, r.InitialLayout.L2P...)
	fp = append(fp, r.FinalLayout.L2P...)
	for _, op := range r.Routed.Ops {
		fp = append(fp, len(op.Gate.Name))
		fp = append(fp, op.Qubits...)
	}
	return fp
}

func sameFingerprint(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestFindBestRoutingDeterministicAcrossParallelism is the tentpole
// contract: the same seed must produce a bit-identical best result for
// Parallelism = 1, 4 and NumCPU, with and without a mirror policy.
func TestFindBestRoutingDeterministicAcrossParallelism(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	topo := topology.Grid(3, 3)
	// Full topology width so layouts are bijections and the unitary
	// contract of verifyRouting is exact.
	c := circuit.New("det-par", 9)
	for g := 0; g < 24; g++ {
		a, b := rng.Intn(9), rng.Intn(9)
		if a == b {
			continue
		}
		c.Add(gates.CX(), a, b)
	}

	for _, factory := range []PolicyFactory{
		nil,
		func(trial int) MirrorPolicy { return parityMirror{} },
	} {
		var ref []int
		for _, par := range []int{1, 4, runtime.NumCPU()} {
			res, err := findBestRouting(c, topo, LayoutOptions{
				LayoutTrials: 5, RoutingTrials: 5, FwdBwdPasses: 2, Seed: 9,
				Parallelism: par,
			}, SwapCountMetric, factory)
			if err != nil {
				t.Fatal(err)
			}
			fp := routingFingerprint(res)
			if ref == nil {
				ref = fp
				verifyRouting(t, c, res)
				continue
			}
			if !sameFingerprint(ref, fp) {
				t.Fatalf("Parallelism=%d produced a different result than Parallelism=1", par)
			}
		}
	}
}

// TestFindBestRoutingParallelSeedSensitivity guards the per-trial
// seeding scheme: different base seeds must explore different trials
// (identical results for every seed would mean the per-trial RNG is
// ignoring the base seed).
func TestFindBestRoutingParallelSeedSensitivity(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	topo := topology.Line(6)
	c := circuit.New("seed-sens", 6)
	for g := 0; g < 20; g++ {
		a, b := rng.Intn(6), rng.Intn(6)
		if a == b {
			continue
		}
		c.Add(gates.CX(), a, b)
	}
	opts := LayoutOptions{LayoutTrials: 2, RoutingTrials: 2, FwdBwdPasses: 1, Parallelism: 4}
	distinct := false
	var ref []int
	for seed := int64(1); seed <= 5; seed++ {
		opts.Seed = seed
		res, err := findBestRouting(c, topo, opts, SwapCountMetric, nil)
		if err != nil {
			t.Fatal(err)
		}
		fp := routingFingerprint(res)
		if ref == nil {
			ref = fp
		} else if !sameFingerprint(ref, fp) {
			distinct = true
		}
	}
	if !distinct {
		t.Fatal("five different seeds all produced identical routings")
	}
}

// TestFindBestRoutingParallelError checks that in-trial failures
// surface at any worker count: a MaxSteps budget of 1 makes every
// refinement pass diverge on a distance-4 gate.
func TestFindBestRoutingParallelError(t *testing.T) {
	topo := topology.Line(5)
	c := circuit.New("err", 5)
	// All-pairs interactions: no layout routes this on a line within a
	// single SWAP, so every trial must exceed the budget.
	for a := 0; a < 5; a++ {
		for b := a + 1; b < 5; b++ {
			c.Add(gates.CX(), a, b)
		}
	}
	var msgs []string
	for _, par := range []int{1, 4} {
		_, err := findBestRouting(c, topo, LayoutOptions{
			Routing:      Options{MaxSteps: 1},
			LayoutTrials: 3, RoutingTrials: 2, FwdBwdPasses: 1, Seed: 1, Parallelism: par,
		}, SwapCountMetric, nil)
		if err == nil {
			t.Fatalf("Parallelism=%d: expected divergence error with MaxSteps=1", par)
		}
		msgs = append(msgs, err.Error())
	}
	if msgs[0] != msgs[1] {
		t.Fatalf("error differs across worker counts: %q vs %q", msgs[0], msgs[1])
	}
}
