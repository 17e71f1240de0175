package sabre

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/circuit"
	"repro/internal/gates"
	"repro/internal/mirrorbench"
	"repro/internal/topology"
)

// benchCircuit builds a random 2Q-heavy circuit sized to make the
// trial grid the dominant cost.
func benchCircuit(qubits, twoQ int) *circuit.Circuit {
	rng := rand.New(rand.NewSource(41))
	c := circuit.New("bench", qubits)
	for g := 0; g < twoQ; g++ {
		a, b := rng.Intn(qubits), rng.Intn(qubits)
		if a == b {
			continue
		}
		c.Add(gates.CX(), a, b)
	}
	return c
}

// BenchmarkFindBestRouting compares the trial engine serial vs one
// worker per CPU; results are identical, only wall time differs.
// Allocations are reported because the trial hot path is the
// allocation floor of the whole pipeline: the per-call count is
// dominated by one-time arena/DAG setup, with steady-state trials at
// O(1) (see BenchmarkRouteArena for the per-trial view).
func BenchmarkFindBestRouting(b *testing.B) {
	topo := topology.Grid(4, 4)
	c := benchCircuit(16, 60)
	for _, mode := range []struct {
		name string
		par  int
	}{
		{"serial", 1},
		{fmt.Sprintf("parallel_%d", runtime.GOMAXPROCS(0)), 0},
	} {
		b.Run(mode.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := findBestRouting(c, topo, LayoutOptions{
					LayoutTrials: 8, RoutingTrials: 8, FwdBwdPasses: 2, Seed: 3,
					Parallelism: mode.par,
				}, SwapCountMetric, nil)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(res.SwapsInserted), "swaps")
			}
		})
	}
}

// BenchmarkRouteArena measures the steady-state per-trial cost of the
// arena path: one TrialRunner replaying routing trials of the same
// circuit with varying seeds. This is the zero-allocation claim of the
// trial engine — the DAG is shared and immutable, every mutable buffer
// lives in the reused arena, so allocs/op must stay O(1) regardless of
// circuit size (compare against BenchmarkRouteWide/engine, which pays
// DAG construction and state allocation per call). The grid4x4 case is
// the trial-grid regime (small device, many trials); wide is the
// single-trial latency case the worklist scheduler and flat distance
// tables target — a 64-qubit grid whose large front layer makes
// per-stall rescans the dominant cost.
func BenchmarkRouteArena(b *testing.B) {
	for _, tc := range []struct {
		name          string
		rows, cols    int
		qubits, gates int
	}{
		{"grid4x4", 4, 4, 16, 60},
		{"wide", 8, 8, 64, 400},
	} {
		b.Run(tc.name, func(b *testing.B) {
			topo := topology.Grid(tc.rows, tc.cols)
			c := benchCircuit(tc.qubits, tc.gates)
			layout := RandomLayout(tc.qubits, topo, rand.New(rand.NewSource(7)))
			pc, err := PrepareCircuit(c, topo)
			if err != nil {
				b.Fatal(err)
			}
			runner := NewTrialRunner(pc)
			// One throwaway trial grows every arena buffer to its
			// high-water mark so the timed loop sees the steady state.
			if _, err := runner.Run(layout, 1, nil); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := runner.Run(layout, int64(i%16)+1, nil)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(res.SwapsInserted), "swaps")
			}
		})
	}
}

// BenchmarkRouteWide measures a single Route call on a wide topology —
// the regime the incremental engine targets: a large grid keeps many
// gates in the front layer, so the naive formulation pays
// O(candidates x (|front| + |E|)) distance lookups per inserted SWAP
// while the engine pays O(candidates x deg). The acceptance bar for
// the engine is >= 2x over the reference here.
func BenchmarkRouteWide(b *testing.B) {
	topo := topology.Grid(8, 8)
	c := benchCircuit(64, 400)
	layout := RandomLayout(64, topo, rand.New(rand.NewSource(7)))
	pc := mustPrepare(b, c, topo)
	run := func(b *testing.B, route func() (*Result, error)) {
		b.Helper()
		for i := 0; i < b.N; i++ {
			res, err := route()
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(res.SwapsInserted), "swaps")
		}
	}
	b.Run("reference", func(b *testing.B) {
		run(b, func() (*Result, error) {
			return RouteReference(pc, layout, rand.New(rand.NewSource(1)), nil)
		})
	})
	b.Run("engine", func(b *testing.B) {
		run(b, func() (*Result, error) {
			return Route(c, topo, layout, rand.New(rand.NewSource(1)), nil)
		})
	})
}

// BenchmarkGridTrialSmall measures one grid trial of a small circuit,
// the compile-many-small regime where a trial's fixed cost — seeding
// its generator, rebinding the arena — is most of its cost: a
// consolidated 4-qubit quantum-volume mirror circuit on a 3x4 grid,
// cycling through the trials of a 20x20 grid under a mirror policy.
func BenchmarkGridTrialSmall(b *testing.B) {
	m := mirrorbench.Generate(mirrorbench.Spec{Kind: mirrorbench.QuantumVolume, Qubits: 4, Layers: 3, Seed: 1})
	pc, err := PrepareCircuit(circuit.ConsolidateBlocks(m.Circuit), topology.Grid(3, 4))
	if err != nil {
		b.Fatal(err)
	}
	opts := LayoutOptions{Seed: 1, Parallelism: 1}.WithDefaults()
	runner := NewTrialRunner(pc)
	layouts := make([]*topology.Layout, opts.LayoutTrials)
	for lt := range layouts {
		if layouts[lt], err = runner.RefineLayout(opts, lt); err != nil {
			b.Fatal(err)
		}
	}
	grid := opts.LayoutTrials * opts.RoutingTrials
	if _, err := runner.GridTrial(layouts[0], opts, 0, costMirror{}, SwapCountMetric); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := i % grid
		if _, err := runner.GridTrial(layouts[t/opts.RoutingTrials], opts, t, costMirror{}, SwapCountMetric); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRefineLayout measures one layout row's refinement on a warm
// runner: a random layout refined by four forward/backward routing
// rounds, cycling through the rows of a 20-row grid. Refinement routes
// more than half of a MIRAGE grid's stalls with no policy or metric,
// so this is the stall loop with nothing else around it. The cases
// match BenchmarkRouteArena's fixtures.
func BenchmarkRefineLayout(b *testing.B) {
	for _, tc := range []struct {
		name          string
		rows, cols    int
		qubits, gates int
	}{
		{"grid4x4", 4, 4, 16, 60},
		{"wide", 8, 8, 64, 400},
	} {
		b.Run(tc.name, func(b *testing.B) {
			pc, err := PrepareCircuit(benchCircuit(tc.qubits, tc.gates), topology.Grid(tc.rows, tc.cols))
			if err != nil {
				b.Fatal(err)
			}
			runner := NewTrialRunner(pc)
			opts := LayoutOptions{Seed: 3}.WithDefaults()
			if _, err := runner.RefineLayout(opts, 0); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := runner.RefineLayout(opts, i%opts.LayoutTrials); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
