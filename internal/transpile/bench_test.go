package transpile_test

import (
	"runtime"
	"testing"

	"repro/internal/bench"
	"repro/internal/circuit"
	"repro/internal/mirrorbench"
	"repro/internal/polytope"
	"repro/internal/sabre"
	"repro/internal/topology"
	"repro/internal/transpile"
)

// maxCallBytes bounds the heap bytes one warm MIRAGE-Depth
// TranspilePrepared call of a small mirror circuit allocates: its
// routed result and cost table, with room for the race detector. A per-call cost structure sized for reuse across
// circuits (a presized cache of hundreds of kilobytes) breaks it.
const maxCallBytes = 256 << 10

// maxCallObjects bounds the heap objects the same call allocates:
// about 120 once warm, among them its routed result, its cost table,
// one shared policy per aggression level and the winner's mirror gates.
// A policy per trial adds 13 and a mirror gate per scored 2Q op
// hundreds. The race detector makes sync.Pool drop pooled arenas and
// depth passes at random, which adds up to about 70 more.
func maxCallObjects() uint64 {
	if raceEnabled {
		return 256
	}
	return 128
}

// TestTranspilePreparedAllocBytes pins the per-call allocation of a
// warm MIRAGE-Depth TranspilePrepared, in bytes and in heap objects: a
// 6-qubit mirror circuit routed on grid-3x4 with a 4x4 serial trial
// grid, averaged over 20 calls.
func TestTranspilePreparedAllocBytes(t *testing.T) {
	m := mirrorbench.Generate(mirrorbench.Spec{Kind: mirrorbench.QuantumVolume, Qubits: 6, Layers: 6, Seed: 5})
	pc := transpile.PrepareCircuit(m.Circuit, topology.Grid(3, 4))
	opts := transpile.Options{
		Router: transpile.MIRAGE, DepthSelection: true, SkipTrivialLayout: true,
		Layout:      sabre.LayoutOptions{LayoutTrials: 4, RoutingTrials: 4, FwdBwdPasses: 2},
		Parallelism: 1,
	}
	rep, err := transpile.TranspilePrepared(pc, opts) // warm the coordinate cache and coverage set
	if err != nil {
		t.Fatal(err)
	}
	if rep.TrivialLayout || rep.SwapsInserted+rep.MirrorsUsed == 0 {
		t.Fatalf("fixture did not route: %s", rep.Summary())
	}
	const calls = 20
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < calls; i++ {
		if _, err := transpile.TranspilePrepared(pc, opts); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	perCall := (after.TotalAlloc - before.TotalAlloc) / calls
	objects := (after.Mallocs - before.Mallocs) / calls
	if perCall > maxCallBytes {
		t.Fatalf("%d bytes allocated per call, want <= %d", perCall, maxCallBytes)
	}
	if objects > maxCallObjects() {
		t.Fatalf("%d heap objects allocated per call, want <= %d", objects, maxCallObjects())
	}
	t.Logf("%d bytes, %d heap objects allocated per call", perCall, objects)
}

// BenchmarkTranspileSmallMirror times the compile-many-small traffic:
// one op transpiles 8 fixed mirror circuits of 3-6 qubits, both
// generator families, on grid-3x4 with MIRAGE-Depth, a 4x4 serial
// trial grid and 2 refinement passes — the whole pipeline per call,
// cleaning and consolidation included, as the small-mirror workload
// of cmd/mirbench makes it. Allocs/op counts what the calls repeat.
func BenchmarkTranspileSmallMirror(b *testing.B) {
	var circs []*circuit.Circuit
	for i := 0; i < 8; i++ {
		m := mirrorbench.Generate(mirrorbench.Spec{
			Kind: mirrorbench.Kind(i % 2), Qubits: 3 + i/2, Layers: 3 + i%4, Seed: int64(i + 1),
		})
		circs = append(circs, m.Circuit)
	}
	topo := topology.Grid(3, 4)
	opts := transpile.Options{
		Router: transpile.MIRAGE, DepthSelection: true,
		Layout:      sabre.LayoutOptions{LayoutTrials: 4, RoutingTrials: 4, FwdBwdPasses: 2},
		Parallelism: 1,
	}
	run := func() {
		for _, c := range circs {
			if _, err := transpile.Transpile(c, topo, opts); err != nil {
				b.Fatal(err)
			}
		}
	}
	run() // warm the coverage set and the coordinate cache
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
}

// BenchmarkTranspileRoot4 times a MIRAGE-Depth transpilation under the
// iSWAP^(1/4) basis, whose empirical coverage regions make a direct
// cost lookup several times dearer than on sqrt-iSWAP: QFT(10) on
// grid-3x4 with a 4x4 serial trial grid. The coverage set and the
// circuit preparation are built once, outside the timer.
func BenchmarkTranspileRoot4(b *testing.B) {
	pc := transpile.PrepareCircuit(bench.QFT(10), topology.Grid(3, 4))
	opts := transpile.Options{
		Router: transpile.MIRAGE, DepthSelection: true, SkipTrivialLayout: true,
		Basis:       polytope.NewISwapRootCoverage(4),
		Layout:      sabre.LayoutOptions{LayoutTrials: 4, RoutingTrials: 4, FwdBwdPasses: 2},
		Parallelism: 1,
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := transpile.TranspilePrepared(pc, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGridTrialMirage measures one warm MIRAGE-Depth grid trial of
// a Table III circuit, the unit of work the Fig. 12 suite repeats: the
// stall loop, SWAP scoring and per-gate mirror decisions under the
// trial's own policy. qft_n18 is consolidated on square-6x6 and the
// loop cycles through the trials of a 20x20 grid, with every row's
// layout refined and every trial's policy built outside the timer.
// The trial scores its SWAP count, so the row times the route alone.
// Allocs/op is 0: the arena holds all trial state.
func BenchmarkGridTrialMirage(b *testing.B) {
	e, err := bench.ByName("qft_n18")
	if err != nil {
		b.Fatal(err)
	}
	pc := transpile.PrepareCircuit(e.Build(), topology.SquareLattice66())
	_, _, factory := transpile.RoutingPolicy(transpile.Options{Router: transpile.MIRAGE, DepthSelection: true}, pc.Routing)
	opts := sabre.LayoutOptions{Seed: 1, Parallelism: 1}.WithDefaults()
	runner := sabre.NewTrialRunner(pc.Routing)
	layouts := make([]*topology.Layout, opts.LayoutTrials)
	for lt := range layouts {
		if layouts[lt], err = runner.RefineLayout(opts, lt); err != nil {
			b.Fatal(err)
		}
	}
	grid := opts.LayoutTrials * opts.RoutingTrials
	policies := make([]sabre.MirrorPolicy, grid)
	for t := range policies {
		policies[t] = factory(t)
		if _, err := runner.GridTrial(layouts[t/opts.RoutingTrials], opts, t, policies[t], sabre.SwapCountMetric); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := i % grid
		if _, err := runner.GridTrial(layouts[t/opts.RoutingTrials], opts, t, policies[t], sabre.SwapCountMetric); err != nil {
			b.Fatal(err)
		}
	}
}
