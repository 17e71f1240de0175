package mirage_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/bench"
	"repro/internal/circuit"
	"repro/internal/mirage"
	"repro/internal/polytope"
	"repro/internal/sabre"
	"repro/internal/topology"
	"repro/internal/weyl"
)

// parityCheck wraps the real policy: on every decision the router
// offers, it checks the offered mirror coordinate against weyl.Mirror
// of the op's own, asks the policy again with the computed coordinate,
// and records any disagreement before returning the offered verdict.
type parityCheck struct {
	inner      *mirage.Policy
	decisions  int
	wrongCoord int
	mismatches int
}

func (p *parityCheck) Decide(ctx *sabre.MirrorContext) bool {
	p.decisions++
	want := weyl.Mirror(circuit.OpCoordinate(ctx.Op))
	if ctx.MirrorCoord != want {
		p.wrongCoord++
	}
	verdict := p.inner.Decide(ctx)
	computed := *ctx
	computed.MirrorCoord = want
	if p.inner.Decide(&computed) != verdict {
		p.mismatches++
	}
	return verdict
}

// TestDecidePreparedMirrorMatchesComputed routes every suite circuit
// (consolidated, as the transpiler routes it) on the square lattice at
// the two cost-comparing aggression levels: for every 2Q op the router
// must offer the mirror coordinate weyl.Mirror computes, and Decide
// must reach the same verdict with the offered and the computed one.
func TestDecidePreparedMirrorMatchesComputed(t *testing.T) {
	cov := polytope.NewISwapRootCoverage(2)
	topo := topology.SquareLattice66()
	for _, e := range bench.Suite() {
		c := circuit.ConsolidateBlocks(circuit.UnrollTo2Q(e.Build()))
		costs := mirage.NewCostTable(cov, c)
		rng := rand.New(rand.NewSource(11))
		layout := sabre.RandomLayout(c.NumQubits, topo, rng)
		for _, level := range []mirage.Aggression{mirage.AggressionLower, mirage.AggressionEqual} {
			check := &parityCheck{inner: mirage.NewPolicy(costs, level)}
			if _, err := sabre.Route(c, topo, layout, sabre.Options{}, rng, check); err != nil {
				t.Fatal(err)
			}
			if check.decisions != c.Count2Q() || check.wrongCoord != 0 || check.mismatches != 0 {
				t.Fatalf("%s level %d: %d decisions for %d 2Q ops, %d offered a coordinate other than weyl.Mirror's, %d verdict mismatches",
					e.Name, level, check.decisions, c.Count2Q(), check.wrongCoord, check.mismatches)
			}
		}
	}
}

// TestCostTableHoldsEveryHotPathPrice routes suite circuits under the
// MIRAGE policy at roots 2 and 4 and checks, against direct
// CoverageSet.CostOf pricing, that every decision the router offers
// reaches the same verdict and every trial's depth metric is the same
// float64. It also checks the table's coverage: every coordinate a
// decision or a block of a consolidated input asks for is a table
// entry, so the hot path never falls back to a direct lookup. Root 4
// builds its empirical coverage set, which takes seconds, so -short
// runs root 2 only.
func TestCostTableHoldsEveryHotPathPrice(t *testing.T) {
	roots := []int{2, 4}
	if testing.Short() {
		roots = roots[:1]
	}
	topo := topology.SquareLattice66()
	opts := sabre.LayoutOptions{LayoutTrials: 2, RoutingTrials: 2, FwdBwdPasses: 1, Seed: 13, Parallelism: 1}
	for _, root := range roots {
		cov := polytope.NewISwapRootCoverage(root)
		for _, e := range bench.QuickSuite() {
			blocks := circuit.ConsolidateBlocks(circuit.UnrollTo2Q(e.Build()))
			pc, err := sabre.PrepareCircuit(blocks, topo)
			if err != nil {
				t.Fatal(err)
			}
			runner := sabre.NewTrialRunner(pc)
			layouts := make([]*topology.Layout, opts.LayoutTrials)
			for lt := range layouts {
				if layouts[lt], err = runner.RefineLayout(opts, lt); err != nil {
					t.Fatal(err)
				}
			}
			costs := mirage.NewCostTable(cov, blocks)
			direct := mirage.NewCostTable(cov, nil)
			tableMetric, directMetric := mirage.DepthMetric(costs), mirage.DepthMetric(direct)
			name := fmt.Sprintf("root %d %s", root, e.Name)
			// Level 3 mirrors every gate, so its routed circuits put
			// accepted mirrors next to router SWAPs on the same pair:
			// blocks priced at the mirror of a mirror.
			for _, level := range []mirage.Aggression{mirage.AggressionLower, mirage.AggressionEqual, mirage.AggressionAlways} {
				check := &verdictCheck{t: t, name: name, costs: costs,
					table: mirage.NewPolicy(costs, level), direct: mirage.NewPolicy(direct, level)}
				for tr := 0; tr < opts.LayoutTrials*opts.RoutingTrials; tr++ {
					res, err := runner.GridTrial(layouts[tr/opts.RoutingTrials], opts, tr, check)
					if err != nil {
						t.Fatal(err)
					}
					if got, want := tableMetric(res), directMetric(res); got != want {
						t.Fatalf("%s level %d trial %d: table metric %v, direct %v", name, level, tr, got, want)
					}
					var pass circuit.BlockDepth
					pass.Depth(res.Routed, func(c weyl.Coordinate) float64 {
						if !costs.Holds(c) {
							t.Fatalf("%s level %d trial %d: block class %v is not a table entry", name, level, tr, c)
						}
						return 0
					})
				}
				if check.decisions == 0 {
					t.Fatalf("%s level %d: the router offered no decisions", name, level)
				}
			}
		}
	}
}

// verdictCheck decides with the table-priced policy after checking it
// agrees with the directly priced one and prices from table entries.
type verdictCheck struct {
	t             *testing.T
	name          string
	costs         *mirage.CostTable
	table, direct *mirage.Policy
	decisions     int
}

func (v *verdictCheck) Decide(ctx *sabre.MirrorContext) bool {
	v.decisions++
	for _, c := range []weyl.Coordinate{circuit.OpCoordinate(ctx.Op), ctx.MirrorCoord} {
		if !v.costs.Holds(c) {
			v.t.Fatalf("%s: decision coordinate %v is not a table entry", v.name, c)
		}
	}
	verdict := v.table.Decide(ctx)
	if d := v.direct.Decide(ctx); d != verdict {
		v.t.Fatalf("%s: table verdict %v, direct verdict %v", v.name, verdict, d)
	}
	return verdict
}

// BenchmarkDepthMetric times the MIRAGE-Depth metric on one routed
// QFT(12) trial — the per-trial score a depth-selected grid pays — on
// the same input as the mirage/DepthMetric kernel row.
func BenchmarkDepthMetric(b *testing.B) {
	res, blocks, cov, err := bench.DepthMetricFixture()
	if err != nil {
		b.Fatal(err)
	}
	metric := mirage.DepthMetric(mirage.NewCostTable(cov, blocks))
	metric(res)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		depthSink = metric(res)
	}
}

var depthSink float64
