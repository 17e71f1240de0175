package sabre

import (
	"fmt"
	"math"
	"math/rand"
	"sync/atomic"
	"testing"

	"repro/internal/circuit"
	"repro/internal/gates"
	"repro/internal/mirrorbench"
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

// depthMetricOf is the sabre.Metric a DepthBound priced by cost
// bounds.
func depthMetricOf(cost circuit.CoordCost) Metric {
	return func(r *Result) float64 {
		var p circuit.BlockDepth
		return p.Depth(r.Routed, cost)
	}
}

// depthBoundOf is the DepthBound of a grid over pc, its slots priced
// by cost over pc's class list.
func depthBoundOf(pc *PreparedCircuit, cost circuit.CoordCost) *Bound {
	return DepthBound(circuit.NewSlotCosts(pc.Classes(), cost))
}

// boundCircuits returns the consolidated circuits the pruning tests
// route, as the depth bound requires: random ones with 1Q gates
// between 2Q ops, and one with back-to-back gates on one pair, which
// consolidation merges.
func boundCircuits() []*circuit.Circuit {
	rng := rand.New(rand.NewSource(77))
	var cs []*circuit.Circuit
	for i, n := range []int{6, 9, 12} {
		cs = append(cs, circuit.ConsolidateBlocks(randomCircuit(fmt.Sprintf("rand%d", i), n, 12+6*n, rng)))
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
	return append(cs, circuit.ConsolidateBlocks(pairs))
}

// floorCircuits returns consolidated circuits whose grids meet their
// floor on grid-3x4: mirror circuits shaped like small compiles (3-6
// qubits, 3-6 layers) and a line of CX gates, which embeds without a
// SWAP.
func floorCircuits() []*circuit.Circuit {
	var cs []*circuit.Circuit
	for i := 0; i < 6; i++ {
		m := mirrorbench.Generate(mirrorbench.Spec{
			Kind: mirrorbench.Kind(i % 2), Qubits: 3 + i%4, Layers: 3 + i/2, Seed: int64(100 + i),
		})
		cs = append(cs, circuit.ConsolidateBlocks(m.Circuit))
	}
	line := circuit.New("line", 6)
	for rep := 0; rep < 2; rep++ {
		for q := 0; q+1 < 6; q++ {
			line.Add(gates.H(), q)
			line.Add(gates.CX(), q, q+1)
		}
	}
	return append(cs, circuit.ConsolidateBlocks(line))
}

// prunedCounts are the serial work of one bound over a circuit set:
// trials the metric scored, trials the Results count as executed, and
// grids that finished at their floor.
type prunedCounts struct{ scored, executed, floored int }

// checkPrunedMatchesUnpruned is the pruning contract: with a bound
// declared, the grid returns the Result the unpruned grid returns —
// same winner, routed circuit, layouts, score, TrialsExecuted and
// TrialsBudgeted — at every Parallelism and patience, for the
// SWAP-count bound and for the depth bound under exact (dyadic) and
// inexact prices. It returns each bound's work at Parallelism 1.
func checkPrunedMatchesUnpruned(t *testing.T, circuits []*circuit.Circuit) map[string]prunedCounts {
	t.Helper()
	topo := topology.Grid(3, 4)
	type pair struct {
		name   string
		metric Metric
		bound  *Bound
	}
	counts := map[string]prunedCounts{}
	for _, c := range circuits {
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
					want, err := FindBestRoutingPrepared(pc, base.WithBound(nil), mp.metric, factory)
					if err != nil {
						t.Fatal(err)
					}
					for _, par := range []int{1, 2, 4} {
						var calls atomic.Int64
						counted := func(r *Result) float64 { calls.Add(1); return mp.metric(r) }
						opts := base
						opts.Parallelism = par
						g := NewGrid(pc, opts.WithBound(mp.bound), counted, factory)
						if err := RunGrids([]*Grid{g}); err != nil {
							t.Fatal(err)
						}
						got, err := g.Result()
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
							n := counts[mp.name]
							n.scored += int(calls.Load())
							n.executed += got.TrialsExecuted
							if g.sel.best() <= g.sel.floor {
								n.floored++
							}
							counts[mp.name] = n
						}
					}
				}
			}
		}
	}
	return counts
}

// TestPrunedGridMatchesUnpruned runs the pruning contract on circuits
// whose grids never meet their floor, and pins the serial work: serial
// rows route exactly the trials the selector consumes and cut each at
// the best consumed score, so a row that routed past the stop rule, or
// cut at a stale best, would score a different count.
func TestPrunedGridMatchesUnpruned(t *testing.T) {
	var total prunedCounts
	for name, n := range checkPrunedMatchesUnpruned(t, boundCircuits()) {
		if n.floored != 0 {
			t.Errorf("%s: %d grids met their floor, want 0", name, n.floored)
		}
		total.scored += n.scored
		total.executed += n.executed
	}
	if total.scored != 147 || total.executed != 690 {
		t.Fatalf("serial runs scored %d of %d executed trials, want 147 of 690", total.scored, total.executed)
	}
}

// TestPrunedGridMatchesUnprunedAtFloor runs the pruning contract on
// grids that meet their floor, and pins per bound how many do and the
// serial work. Inexact (thirds) prices keep a slack below the floor,
// so no score meets it.
func TestPrunedGridMatchesUnprunedAtFloor(t *testing.T) {
	want := map[string]prunedCounts{
		"swaps":        {33, 392, 14},
		"depth-dyadic": {144, 392, 8},
		"depth-thirds": {296, 392, 0},
	}
	got := checkPrunedMatchesUnpruned(t, floorCircuits())
	for name, w := range want {
		if got[name] != w {
			t.Errorf("%s: serial runs scored %d of %d executed trials with %d grids at their floor, want %d of %d with %d",
				name, got[name].scored, got[name].executed, got[name].floored, w.scored, w.executed, w.floored)
		}
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
