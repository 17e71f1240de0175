package sabre

import (
	"fmt"
	"math"
	"math/rand"
	"sync/atomic"
	"testing"

	"repro/internal/circuit"
	"repro/internal/gates"
	"repro/internal/topology"
	"repro/internal/weyl"
)

// boundCost prices a class by its distance from the identity, rounded
// up to a multiple of unit: non-negative, deterministic, and dyadic
// exactly when unit is.
func boundCost(unit float64) circuit.CoordCost {
	return func(c weyl.Coordinate) float64 {
		d := math.Abs(c.X) + math.Abs(c.Y) + math.Abs(c.Z)
		k := 0.0
		for k*0.25 < d-1e-9 {
			k++
		}
		return k * unit
	}
}

// depthMetricOf is the sabre.Metric a DepthBound(cost) bounds.
func depthMetricOf(cost circuit.CoordCost) Metric {
	return func(r *Result) float64 {
		var p circuit.BlockDepth
		return p.Depth(r.Routed, cost)
	}
}

// depthBoundOf is the DepthBound(cost) of a grid over pc, its slots
// priced over pc's class list.
func depthBoundOf(pc *PreparedCircuit, cost circuit.CoordCost) *Bound {
	return DepthBound(cost, circuit.NewSlotCosts(pc.Classes(), cost))
}

// boundCircuits returns coordinate-annotated circuits for the pruning
// tests: random ones with 1Q gates between 2Q ops, and one with
// back-to-back gates on one pair, which disables the tail term.
func boundCircuits() []*circuit.Circuit {
	rng := rand.New(rand.NewSource(77))
	var cs []*circuit.Circuit
	for i, n := range []int{6, 9, 12} {
		c := randomCircuit(fmt.Sprintf("rand%d", i), n, 12+6*n, rng)
		circuit.AnnotateCoordinates(c)
		cs = append(cs, c)
	}
	pairs := circuit.New("pairs", 8)
	for g := 0; g < 30; g++ {
		a, b := rng.Intn(8), rng.Intn(8)
		if a == b {
			continue
		}
		pairs.Add(gates.CX(), a, b)
		pairs.Add(gates.CPhase(0.3), a, b)
	}
	circuit.AnnotateCoordinates(pairs)
	return append(cs, pairs)
}

// TestPrunedGridMatchesUnpruned is the pruning contract: with a bound
// declared, the grid returns the Result the unpruned grid returns —
// same winner, routed circuit, layouts and TrialsExecuted — at every
// Parallelism and patience, for the SWAP-count bound and for the depth
// bound under exact (dyadic) and inexact prices. At Parallelism 1 it
// pins how many trials the pruned grids score.
func TestPrunedGridMatchesUnpruned(t *testing.T) {
	topo := topology.Grid(3, 4)
	type pair struct {
		name   string
		metric Metric
		bound  *Bound
	}
	var scored, executed int64
	for _, c := range boundCircuits() {
		pc, err := PrepareCircuit(c, topo)
		if err != nil {
			t.Fatal(err)
		}
		pairs := []pair{
			{"swaps", SwapCountMetric, SwapCountBound()},
			{"depth-dyadic", depthMetricOf(boundCost(0.5)), depthBoundOf(pc, boundCost(0.5))},
			{"depth-thirds", depthMetricOf(boundCost(1.0 / 3)), depthBoundOf(pc, boundCost(1.0/3))},
		}
		for _, mp := range pairs {
			for _, policy := range []MirrorPolicy{nil, costMirror{}} {
				var factory PolicyFactory
				if policy != nil {
					p := policy
					factory = func(int) MirrorPolicy { return p }
				}
				for _, patience := range []int{0, 3} {
					base := LayoutOptions{LayoutTrials: 4, RoutingTrials: 6, FwdBwdPasses: 1,
						Seed: 5, Parallelism: 1, ConvergencePatience: patience}
					want, err := FindBestRoutingPrepared(pc, base, mp.metric, factory)
					if err != nil {
						t.Fatal(err)
					}
					for _, par := range []int{1, 2, 4} {
						var calls atomic.Int64
						counted := func(r *Result) float64 { calls.Add(1); return mp.metric(r) }
						opts := base
						opts.Parallelism = par
						got, err := FindBestRoutingPrepared(pc, opts.WithBound(mp.bound), counted, factory)
						if err != nil {
							t.Fatal(err)
						}
						where := fmt.Sprintf("%s/%s/mirror=%v/patience=%d/par=%d", c.Name, mp.name, policy != nil, patience, par)
						if !sameFingerprint(routingFingerprint(want), routingFingerprint(got)) {
							t.Fatalf("%s: pruned winner differs from unpruned", where)
						}
						if mp.metric(got) != mp.metric(want) {
							t.Fatalf("%s: score %g, want %g", where, mp.metric(got), mp.metric(want))
						}
						if got.TrialsExecuted != want.TrialsExecuted || got.TrialsBudgeted != want.TrialsBudgeted {
							t.Fatalf("%s: trials %d/%d, want %d/%d", where,
								got.TrialsExecuted, got.TrialsBudgeted, want.TrialsExecuted, want.TrialsBudgeted)
						}
						if par == 1 {
							scored += calls.Load()
							executed += int64(got.TrialsExecuted)
						}
					}
				}
			}
		}
	}
	// Serial rows route exactly the trials the selector consumes and cut
	// each at the best consumed score: a row that routed past the stop
	// rule, or cut at a stale best, would score a different count.
	if scored != 231 || executed != 704 {
		t.Fatalf("serial runs scored %d of %d executed trials, want 231 of 704", scored, executed)
	}
}

// TestCustomMetricNeverCut: a grid whose options declare no bound —
// any caller-supplied Metric — scores every executed trial.
func TestCustomMetricNeverCut(t *testing.T) {
	topo := topology.Grid(3, 4)
	for _, c := range boundCircuits() {
		var calls atomic.Int64
		metric := func(r *Result) float64 { calls.Add(1); return float64(r.SwapsInserted) }
		res, err := findBestRouting(c, topo, LayoutOptions{
			LayoutTrials: 3, RoutingTrials: 5, FwdBwdPasses: 1, Seed: 2, Parallelism: 2,
		}, metric, nil)
		if err != nil {
			t.Fatal(err)
		}
		if n := calls.Load(); n < int64(res.TrialsExecuted) {
			t.Fatalf("%s: custom metric scored %d of %d executed trials", c.Name, n, res.TrialsExecuted)
		}
	}
}

// TestMultiPayloadDetection pins the condition that disables the tail
// term: a 2Q op whose next 2Q op on both wires is one op.
func TestMultiPayloadDetection(t *testing.T) {
	for _, tc := range []struct {
		name string
		ops  [][2]int
		want bool
	}{
		{"chain", [][2]int{{0, 1}, {1, 2}, {0, 1}}, false},
		{"repeat", [][2]int{{0, 1}, {1, 0}}, true},
		{"separated", [][2]int{{0, 1}, {2, 3}, {0, 1}}, true},
		{"broken", [][2]int{{0, 1}, {0, 2}, {0, 1}}, false},
	} {
		c := circuit.New(tc.name, 4)
		for _, q := range tc.ops {
			c.Add(gates.H(), q[0])
			c.Add(gates.CX(), q[0], q[1])
		}
		if got := multiPayloadPossible(c); got != tc.want {
			t.Errorf("%s: multiPayloadPossible = %v, want %v", tc.name, got, tc.want)
		}
	}
}
