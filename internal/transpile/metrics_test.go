package transpile_test

import (
	"testing"

	"repro/internal/bench"
	"repro/internal/circuit"
	"repro/internal/mirage"
	"repro/internal/polytope"
	"repro/internal/sabre"
	"repro/internal/topology"
	"repro/internal/transpile"
)

// totalCost sums w over c's ops in op order.
func totalCost(c *circuit.Circuit, w circuit.WeightFunc) float64 {
	var s float64
	for _, op := range c.Ops {
		s += w(op)
	}
	return s
}

// checkReconsolidatedMetrics transpiles every suite circuit, and a
// GHZ chain that takes the trivial-layout path, with SABRE and
// MIRAGE-Depth on square-6x6 and grid-3x4 under cov, and demands
// that each report's depth and gate counts equal, with ==, those of
// its routed circuit consolidated and measured op by op. A MIRAGE-Depth
// report's DepthTime must also equal the winner's selection score.
func checkReconsolidatedMetrics(t *testing.T, cov *polytope.CoverageSet) {
	t.Helper()
	w := mirage.GateWeight(cov)
	topos := []*topology.Topology{topology.SquareLattice66(), topology.Grid(3, 4)}
	configs := []transpile.Options{
		{Router: transpile.SABRE},
		{Router: transpile.MIRAGE, DepthSelection: true},
	}
	entries := append(bench.Suite(), bench.Entry{Name: "ghz_n6", Build: func() *circuit.Circuit { return bench.GHZ(6) }})
	routed, trivial := 0, 0
	for _, topo := range topos {
		for _, e := range entries {
			c := e.Build()
			pc := transpile.PrepareCircuit(c, topo)
			for _, opts := range configs {
				opts.Basis = cov
				opts.Layout = sabre.LayoutOptions{LayoutTrials: 3, RoutingTrials: 3, Seed: 1}
				rep, err := transpile.TranspilePrepared(pc, opts)
				if err != nil {
					if c.NumQubits > topo.NumQubits {
						continue // does not fit the device
					}
					t.Fatalf("%s on %s via %s: %v", e.Name, topo.Name, opts.Router, err)
				}
				if rep.TrivialLayout {
					trivial++
				} else {
					routed++
				}
				ctx := e.Name + " on " + topo.Name + " via " + rep.Router
				recon := circuit.ConsolidateBlocks(rep.Routed)
				depth := recon.Depth(w)
				if rep.DepthTime != depth || rep.DepthPulses != depth/cov.PerGateCost {
					t.Errorf("%s: depth %v (%v pulses), reconsolidated %v (%v pulses)",
						ctx, rep.DepthTime, rep.DepthPulses, depth, depth/cov.PerGateCost)
				}
				if total := totalCost(recon, w) / cov.PerGateCost; rep.TotalBasisGates != total {
					t.Errorf("%s: %v basis gates, reconsolidated %v", ctx, rep.TotalBasisGates, total)
				}
				if n := recon.Count2Q(); rep.Total2QBlocks != n {
					t.Errorf("%s: %d 2Q blocks, reconsolidated %d", ctx, rep.Total2QBlocks, n)
				}
				if opts.DepthSelection && !rep.TrivialLayout {
					metric, _, _ := transpile.RoutingPolicy(opts, pc.Routing)
					if score := metric(&sabre.Result{Routed: rep.Routed}); rep.DepthTime != score {
						t.Errorf("%s: depth %v, selection score %v", ctx, rep.DepthTime, score)
					}
				}
			}
		}
	}
	if routed == 0 || trivial == 0 {
		t.Errorf("%d routed and %d trivial-layout reports, want both", routed, trivial)
	}
	t.Logf("%d routed and %d trivial-layout reports", routed, trivial)
}

// TestReportMetricsMatchReconsolidation pins the report's single
// circuit.BlockDepth pass to the computation it replaces: build the
// reconsolidated circuit, then take its weighted depth, its summed 2Q
// cost and its 2Q count. Root 3's per-gate cost of 1/3 makes the
// summation order of the total matter.
func TestReportMetricsMatchReconsolidation(t *testing.T) {
	t.Run("root2", func(t *testing.T) {
		checkReconsolidatedMetrics(t, polytope.NewISwapRootCoverage(2))
	})
	t.Run("root3", func(t *testing.T) {
		if testing.Short() {
			t.Skip("builds the root-3 coverage set")
		}
		checkReconsolidatedMetrics(t, polytope.NewISwapRootCoverage(3))
	})
}

// BenchmarkReportMetrics times the measurement step of a transpile call
// alone: the depth, total basis-gate cost and block count of a warm
// MIRAGE-Depth qft_n18 report on square-6x6.
func BenchmarkReportMetrics(b *testing.B) {
	e, err := bench.ByName("qft_n18")
	if err != nil {
		b.Fatal(err)
	}
	cov := polytope.NewISwapRootCoverage(2)
	rep, err := transpile.Transpile(e.Build(), topology.SquareLattice66(), transpile.Options{
		Router: transpile.MIRAGE, DepthSelection: true, Basis: cov,
		Layout: sabre.LayoutOptions{LayoutTrials: 4, RoutingTrials: 4, Seed: 1},
	})
	if err != nil {
		b.Fatal(err)
	}
	transpile.FillMetrics(rep, cov)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		transpile.FillMetrics(rep, cov)
	}
}
