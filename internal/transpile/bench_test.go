package transpile

import (
	"runtime"
	"testing"

	"repro/internal/bench"
	"repro/internal/mirrorbench"
	"repro/internal/polytope"
	"repro/internal/sabre"
	"repro/internal/topology"
)

// maxCallBytes bounds the heap bytes one warm MIRAGE-Depth
// TranspilePrepared call of a small mirror circuit allocates: its
// routed result, reconsolidated circuit and cost table, with room for
// the race detector. A per-call cost structure sized for reuse across
// circuits (a presized cache of hundreds of kilobytes) breaks it.
const maxCallBytes = 256 << 10

// TestTranspilePreparedAllocBytes pins the per-call allocation of a
// warm MIRAGE-Depth TranspilePrepared: a 6-qubit mirror circuit routed
// on grid-3x4 with a 4x4 serial trial grid, averaged over 20 calls.
func TestTranspilePreparedAllocBytes(t *testing.T) {
	m := mirrorbench.Generate(mirrorbench.Spec{Kind: mirrorbench.QuantumVolume, Qubits: 6, Layers: 6, Seed: 5})
	pc := PrepareCircuit(m.Circuit, topology.Grid(3, 4))
	opts := Options{
		Router: MIRAGE, DepthSelection: true, SkipTrivialLayout: true,
		Layout:      sabre.LayoutOptions{LayoutTrials: 4, RoutingTrials: 4, FwdBwdPasses: 2},
		Parallelism: 1,
	}
	rep, err := TranspilePrepared(pc, opts) // warm the coordinate cache and coverage set
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
		if _, err := TranspilePrepared(pc, opts); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	perCall := (after.TotalAlloc - before.TotalAlloc) / calls
	if perCall > maxCallBytes {
		t.Fatalf("%d bytes allocated per call, want <= %d", perCall, maxCallBytes)
	}
	t.Logf("%d bytes allocated per call", perCall)
}

// BenchmarkTranspileRoot4 times a MIRAGE-Depth transpilation under the
// iSWAP^(1/4) basis, whose empirical coverage regions make a direct
// cost lookup several times dearer than on sqrt-iSWAP: QFT(10) on
// grid-3x4 with a 4x4 serial trial grid. The coverage set and the
// circuit preparation are built once, outside the timer.
func BenchmarkTranspileRoot4(b *testing.B) {
	pc := PrepareCircuit(bench.QFT(10), topology.Grid(3, 4))
	opts := Options{
		Router: MIRAGE, DepthSelection: true, SkipTrivialLayout: true,
		Basis:       polytope.NewISwapRootCoverage(4),
		Layout:      sabre.LayoutOptions{LayoutTrials: 4, RoutingTrials: 4, FwdBwdPasses: 2},
		Parallelism: 1,
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := TranspilePrepared(pc, opts); err != nil {
			b.Fatal(err)
		}
	}
}
