package sabre

import (
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/circuit"
	"repro/internal/gates"
	"repro/internal/topology"
)

// parityMirror deterministically mirrors roughly half the offered
// gates, exercising the policy path (and its layout mutations) without
// depending on internal/mirage (which would import-cycle). It decides
// on the parity of the two routing costs' integer parts, so its
// verdicts depend on the layout like the real policy's.
type parityMirror struct{}

func (parityMirror) Decide(ctx *MirrorContext) bool {
	return costParity(ctx)
}

// costParity reports whether the integer parts of ctx's two routing
// costs sum to an even number.
func costParity(ctx *MirrorContext) bool {
	cur, swapped := ctx.RoutingCosts()
	return (int(cur)+int(swapped))%2 == 0
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

// TestFindBestRoutingDeterministicAcrossParallelism pins the
// scheduler's determinism contract: the same seed must produce a bit-identical best result for
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
				if factory != nil && res.MirrorsUsed == 0 {
					t.Fatal("the parity policy mirrored no gate")
				}
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
// surface at any worker count: a swap budget of 1 makes every
// refinement pass diverge on a distance-4 gate.
func TestFindBestRoutingParallelError(t *testing.T) {
	maxSwapsLimit = 1
	t.Cleanup(func() { maxSwapsLimit = 0 })
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
			LayoutTrials: 3, RoutingTrials: 2, FwdBwdPasses: 1, Seed: 1, Parallelism: par,
		}, SwapCountMetric, nil)
		if err == nil {
			t.Fatalf("Parallelism=%d: expected divergence error with a swap budget of 1", par)
		}
		msgs = append(msgs, err.Error())
	}
	if msgs[0] != msgs[1] {
		t.Fatalf("error differs across worker counts: %q vs %q", msgs[0], msgs[1])
	}
}

// TestPreparedDAGsBuiltOnFirstRoute checks that PrepareCircuit builds
// neither flat DAG, that a grid whose rows first reach them from four
// workers at once (run under -race) routes exactly as a serial grid
// on its own prepared circuit, and that the DAGs it built are the ones
// BuildFlatDAG gives.
func TestPreparedDAGsBuiltOnFirstRoute(t *testing.T) {
	c := randomCircuit("lazy", 9, 60, rand.New(rand.NewSource(5)))
	topo := topology.Grid(3, 3)
	opts := LayoutOptions{LayoutTrials: 4, RoutingTrials: 2, FwdBwdPasses: 1, Seed: 2}
	var fps [][]int
	for _, par := range []int{1, 4} {
		pc, err := PrepareCircuit(c, topo)
		if err != nil {
			t.Fatal(err)
		}
		if pc.fd != nil || pc.fdRev != nil {
			t.Fatal("PrepareCircuit built a flat DAG before any route")
		}
		opts.Parallelism = par
		res, err := FindBestRoutingPrepared(pc, opts, SwapCountMetric, nil)
		if err != nil {
			t.Fatal(err)
		}
		fps = append(fps, routingFingerprint(res))
		if !reflect.DeepEqual(pc.FD(), circuit.BuildFlatDAG(c)) ||
			!reflect.DeepEqual(pc.FDRev(), circuit.BuildFlatDAG(c.Reversed())) {
			t.Fatalf("Parallelism=%d: lazily built DAGs differ from BuildFlatDAG", par)
		}
	}
	if !sameFingerprint(fps[0], fps[1]) {
		t.Fatal("routing on lazily built DAGs differs across worker counts")
	}
}
