package sabre

import (
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/circuit"
	"repro/internal/gates"
	"repro/internal/topology"
)

func schedulerCircuit(qubits, twoQ int, seed int64) *circuit.Circuit {
	rng := rand.New(rand.NewSource(seed))
	c := circuit.New("sched", qubits)
	for g := 0; g < twoQ; g++ {
		a, b := rng.Intn(qubits), rng.Intn(qubits)
		if a == b {
			continue
		}
		c.Add(gates.CX(), a, b)
	}
	return c
}

// TestAdaptiveDeterministicAcrossParallelism is the adaptive-mode
// contract: with ConvergencePatience set, the chosen result AND the
// number of trials consumed must be identical at any worker count,
// because the stop rule is defined on trial indices, not arrival
// order.
func TestAdaptiveDeterministicAcrossParallelism(t *testing.T) {
	topo := topology.Grid(3, 3)
	c := schedulerCircuit(9, 26, 41)
	var ref []int
	var refExecuted int
	for _, par := range []int{1, 3, runtime.NumCPU()} {
		res, err := findBestRouting(c, topo, LayoutOptions{
			LayoutTrials: 6, RoutingTrials: 6, FwdBwdPasses: 2, Seed: 5,
			Parallelism: par, ConvergencePatience: 4,
		}, SwapCountMetric, nil)
		if err != nil {
			t.Fatal(err)
		}
		if res.TrialsBudgeted != 36 {
			t.Fatalf("TrialsBudgeted = %d, want 36", res.TrialsBudgeted)
		}
		fp := routingFingerprint(res)
		if ref == nil {
			ref, refExecuted = fp, res.TrialsExecuted
			continue
		}
		if !sameFingerprint(ref, fp) {
			t.Fatalf("Parallelism=%d: adaptive result differs from serial", par)
		}
		if res.TrialsExecuted != refExecuted {
			t.Fatalf("Parallelism=%d: executed %d trials, serial executed %d",
				par, res.TrialsExecuted, refExecuted)
		}
	}
}

// TestAdaptiveStopsEarly: a small patience must consume fewer trials
// than the budget on a circuit whose best score converges quickly,
// while patience 0 keeps the full grid.
func TestAdaptiveStopsEarly(t *testing.T) {
	topo := topology.Grid(3, 3)
	c := schedulerCircuit(9, 20, 7)
	full, err := findBestRouting(c, topo, LayoutOptions{
		LayoutTrials: 8, RoutingTrials: 8, FwdBwdPasses: 1, Seed: 3,
	}, SwapCountMetric, nil)
	if err != nil {
		t.Fatal(err)
	}
	if full.TrialsExecuted != 64 || full.TrialsBudgeted != 64 {
		t.Fatalf("fixed grid executed %d/%d trials, want 64/64",
			full.TrialsExecuted, full.TrialsBudgeted)
	}
	adaptive, err := findBestRouting(c, topo, LayoutOptions{
		LayoutTrials: 8, RoutingTrials: 8, FwdBwdPasses: 1, Seed: 3,
		ConvergencePatience: 5,
	}, SwapCountMetric, nil)
	if err != nil {
		t.Fatal(err)
	}
	if adaptive.TrialsExecuted >= adaptive.TrialsBudgeted {
		t.Fatalf("patience 5 executed %d of %d trials — no early stop",
			adaptive.TrialsExecuted, adaptive.TrialsBudgeted)
	}
}

// TestAdaptiveLargePatienceMatchesFullGrid: a patience at least as
// large as the budget cannot stop early, so the adaptive scheduler
// must return exactly the fixed-grid result.
func TestAdaptiveLargePatienceMatchesFullGrid(t *testing.T) {
	topo := topology.Line(6)
	c := schedulerCircuit(6, 18, 13)
	opts := LayoutOptions{LayoutTrials: 4, RoutingTrials: 4, FwdBwdPasses: 1, Seed: 11}
	full, err := findBestRouting(c, topo, opts, SwapCountMetric, nil)
	if err != nil {
		t.Fatal(err)
	}
	opts.ConvergencePatience = 1000
	adaptive, err := findBestRouting(c, topo, opts, SwapCountMetric, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !sameFingerprint(routingFingerprint(full), routingFingerprint(adaptive)) {
		t.Fatal("huge patience changed the fixed-grid result")
	}
	if adaptive.TrialsExecuted != adaptive.TrialsBudgeted {
		t.Fatalf("huge patience executed %d of %d trials",
			adaptive.TrialsExecuted, adaptive.TrialsBudgeted)
	}
}

// TestAdaptiveStreamingUnderRace exercises the streaming scheduler's
// concurrency (dispatch/consume interleaving, in-flight discards) so
// `go test -race` covers it: many workers, repeated adaptive runs with
// a mirror policy sharing state across trials.
func TestAdaptiveStreamingUnderRace(t *testing.T) {
	topo := topology.Grid(3, 3)
	c := schedulerCircuit(9, 24, 99)
	factory := func(trial int) MirrorPolicy {
		if trial%2 == 0 {
			return parityMirror{}
		}
		return nil
	}
	var ref []int
	for rep := 0; rep < 4; rep++ {
		res, err := findBestRouting(c, topo, LayoutOptions{
			LayoutTrials: 5, RoutingTrials: 5, FwdBwdPasses: 1, Seed: 21,
			Parallelism: 8, ConvergencePatience: 3,
		}, SwapCountMetric, factory)
		if err != nil {
			t.Fatal(err)
		}
		fp := routingFingerprint(res)
		if ref == nil {
			ref = fp
			continue
		}
		if !sameFingerprint(ref, fp) {
			t.Fatalf("repeat %d: adaptive parallel run not reproducible", rep)
		}
	}
}
