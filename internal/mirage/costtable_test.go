package mirage

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/circuit"
	"repro/internal/gates"
	"repro/internal/sabre"
	"repro/internal/topology"
	"repro/internal/weyl"
)

// straddlePair returns two coordinates 3e-7 apart that round to the
// same 1e-6 grid cell but sit on opposite sides of the sqrt-iSWAP k=2
// boundary X >= Y + |Z|, whose containment tolerance is 1e-7: in lies
// on the boundary (k=2, cost 1.0), out lies 3e-7 outside (k=3, 1.5).
func straddlePair() (in, out weyl.Coordinate) {
	in = weyl.Coordinate{X: 0.3, Y: 0.2, Z: 0.1}
	out = weyl.Coordinate{X: 0.3 - 3e-7, Y: 0.2, Z: 0.1}
	return in, out
}

// coordOp is a 2Q op on (a, b) annotated with coordinate c.
func coordOp(c weyl.Coordinate, a, b int) circuit.Op {
	return circuit.Op{Gate: gates.CX(), Qubits: []int{a, b}, Coord: &c}
}

// TestCostTableQuantisationStraddle is the regression test for the
// quantised cost cache this table replaced. Its keys rounded to 1e-6
// while containment is decided at 1e-7, so of two coordinates in one
// key cell on either side of a region boundary, whichever was priced
// first fixed the cost of both. The table, Decide and the depth metric
// must price each coordinate at its own region's cost, whichever of
// the two is evaluated first.
func TestCostTableQuantisationStraddle(t *testing.T) {
	cov := siswap()
	in, out := straddlePair()
	if cin, cout := cov.CostOf(in, false), cov.CostOf(out, false); cin != 1.0 || cout != 1.5 {
		t.Fatalf("fixture does not straddle the k=2 boundary: costs %v and %v, want 1.0 and 1.5", cin, cout)
	}
	layout := topology.TrivialLayout(3, 3)
	flat := func(*topology.Layout) float64 { return 0 }
	for _, order := range [][2]weyl.Coordinate{{in, out}, {out, in}} {
		first, second := order[0], order[1]
		want := [2]float64{cov.CostOf(first, false), cov.CostOf(second, false)}
		name := fmt.Sprintf("first %v", first)

		// Blocks on (0,1) then (1,2) share a wire, so they run in
		// sequence and the depth is the sum of both prices.
		c := circuit.New("straddle", 3)
		c.Append(coordOp(first, 0, 1))
		c.Append(coordOp(second, 1, 2))
		classes, slots := circuit.NewClasses(c)
		costs := NewCostTable(cov, classes)
		if got := [2]float64{costs.CostOf(first), costs.CostOf(second)}; got != want {
			t.Fatalf("%s, %d entries: table prices %v, want %v", name, costs.Len(), got, want)
		}
		if got := [2]float64{costs.Slots().Costs[slots[0]], costs.Slots().Costs[slots[1]]}; got != want {
			t.Fatalf("%s, %d entries: table prices %v by slot, want %v", name, costs.Len(), got, want)
		}

		// Decide with the op at the first coordinate and its mirror at
		// the second, under a flat routing heuristic: the verdict is
		// the comparison of the two prices alone.
		op := coordOp(first, 0, 1)
		for _, level := range []Aggression{AggressionLower, AggressionEqual} {
			_, ctx := decisionFor(cov, op, layout, flat)
			ctx.Classes, ctx.Class, ctx.MirrorClass = classes, slots[0], slots[1]
			wantVerdict := want[1] < want[0]-1e-9
			if level == AggressionEqual {
				wantVerdict = want[1] <= want[0]+1e-9
			}
			if got := NewPolicy(costs, level).Decide(ctx); got != wantVerdict {
				t.Fatalf("%s level %d: Decide = %v, want %v (prices %v)", name, level, got, wantVerdict, want)
			}
		}

		if got := DepthMetric(costs)(&sabre.Result{Routed: c}); got != want[0]+want[1] {
			t.Fatalf("%s: depth metric %v, want %v", name, got, want[0]+want[1])
		}
		stamped := c.Copy()
		stamped.Classes = classes
		for i := range stamped.Ops {
			stamped.Ops[i].Class = slots[i]
		}
		if got := DepthMetric(costs)(&sabre.Result{Routed: stamped}); got != want[0]+want[1] {
			t.Fatalf("%s: depth metric by slot %v, want %v", name, got, want[0]+want[1])
		}
	}
}

// TestCostTableConcurrentReads prices one table from several
// goroutines at once, by slot and directly alike. Run under -race.
func TestCostTableConcurrentReads(t *testing.T) {
	cov := siswap()
	rng := rand.New(rand.NewSource(21))
	c := circuit.ConsolidateBlocks(randomMetricCircuit("concurrent", 6, 40, rng))
	classes, slots := circuit.NewClasses(c)
	costs := NewCostTable(cov, classes)
	coords := make([]weyl.Coordinate, 64)
	for i := range coords {
		coords[i] = weyl.HaarSample(rng)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, op := range c.Ops {
				if op.Is2Q() {
					coord := circuit.OpCoordinate(op)
					if got, want := costs.Slots().Costs[slots[i]], cov.CostOf(coord, false); got != want {
						t.Errorf("table price %v, direct %v", got, want)
					}
				}
			}
			for _, coord := range coords {
				if got, want := costs.CostOf(coord), cov.CostOf(coord, false); got != want {
					t.Errorf("fallback price %v, direct %v", got, want)
				}
			}
		}()
	}
	wg.Wait()
}
