package transpile_test

// Trial arenas outlive the call that used them (sabre keeps them in a
// pool), so these tests check that a report never aliases one: a
// report stays as it was while later calls reuse the arenas, a
// repeated call reproduces it, and concurrent callers sharing the pool
// get the serial reports.

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/bench"
	"repro/internal/circuit"
	"repro/internal/mirrorbench"
	"repro/internal/sabre"
	"repro/internal/topology"
	"repro/internal/transpile"
	"repro/internal/weyl"
)

// poolOpts routes every circuit (no trivial-layout path) with
// MIRAGE-Depth on a small trial grid.
func poolOpts(parallelism int) transpile.Options {
	return transpile.Options{
		Router: transpile.MIRAGE, DepthSelection: true, SkipTrivialLayout: true,
		Layout:      sabre.LayoutOptions{LayoutTrials: 3, RoutingTrials: 3, FwdBwdPasses: 2, Seed: 3},
		Parallelism: parallelism,
	}
}

// deepCopy copies a report so that nothing in the copy shares memory
// with the original: the routed ops with their qubits and coordinates,
// and both layouts. Gate matrices are immutable and stay shared.
func deepCopy(r *transpile.Report) *transpile.Report {
	c := *r
	c.Routed = r.Routed.Copy()
	c.Routed.Name = r.Routed.Name
	for i := range c.Routed.Ops {
		if coord := c.Routed.Ops[i].Coord; coord != nil {
			v := *coord
			c.Routed.Ops[i].Coord = &v
		}
	}
	c.InitialLayout, c.FinalLayout = r.InitialLayout.Copy(), r.FinalLayout.Copy()
	return &c
}

// checkUnchanged fails unless rep still equals its copy: every routed
// op (gate, qubits, coordinate, flags) and both layouts.
func checkUnchanged(t *testing.T, what string, rep, copied *transpile.Report) {
	t.Helper()
	if len(rep.Routed.Ops) != len(copied.Routed.Ops) {
		t.Fatalf("%s: routed circuit has %d ops, had %d", what, len(rep.Routed.Ops), len(copied.Routed.Ops))
	}
	for i, op := range rep.Routed.Ops {
		want := copied.Routed.Ops[i]
		if op.Gate.Name != want.Gate.Name || op.Gate.Matrix() != want.Gate.Matrix() ||
			!reflect.DeepEqual(op.Qubits, want.Qubits) || !sameCoord(op.Coord, want.Coord) ||
			op.Mirrored != want.Mirrored || op.RouterSwap != want.RouterSwap {
			t.Fatalf("%s: routed op %d is %v (coord %v), was %v (coord %v)", what, i, op, op.Coord, want, want.Coord)
		}
	}
	if !reflect.DeepEqual(rep.InitialLayout, copied.InitialLayout) || !reflect.DeepEqual(rep.FinalLayout, copied.FinalLayout) {
		t.Fatalf("%s: layouts changed", what)
	}
}

func sameCoord(a, b *weyl.Coordinate) bool {
	if a == nil || b == nil {
		return a == b
	}
	return *a == *b
}

func mirrorCircuit(qubits, layers int, seed int64) *circuit.Circuit {
	return mirrorbench.Generate(mirrorbench.Spec{Kind: mirrorbench.QuantumVolume, Qubits: qubits, Layers: layers, Seed: seed}).Circuit
}

// TestReportsDoNotAliasPooledArenas makes call A, copies its report,
// then makes calls that reuse the pooled arenas on a wider circuit, a
// narrower one and one on another topology. A's report must still
// equal its copy, and repeating A must reproduce it in every field but
// Runtime.
func TestReportsDoNotAliasPooledArenas(t *testing.T) {
	grid := topology.Grid(3, 4)
	for _, par := range []int{1, 2} {
		opts := poolOpts(par)
		a := mirrorCircuit(6, 6, 5)
		repA, err := transpile.Transpile(a, grid, opts)
		if err != nil {
			t.Fatal(err)
		}
		if repA.SwapsInserted+repA.MirrorsUsed == 0 {
			t.Fatalf("fixture did not route: %s", repA.Summary())
		}
		copied := deepCopy(repA)
		others := []struct {
			c    *circuit.Circuit
			topo *topology.Topology
		}{
			{bench.QFT(10), grid},                       // wider
			{mirrorCircuit(3, 4, 12), grid},             // narrower
			{bench.QFT(8), topology.SquareLattice66()},  // another topology
			{mirrorCircuit(4, 6, 13), topology.Line(6)}, // and another
		}
		for _, o := range others {
			if _, err := transpile.Transpile(o.c, o.topo, opts); err != nil {
				t.Fatal(err)
			}
			checkUnchanged(t, fmt.Sprintf("parallelism %d, after %s on %s", par, o.c.Name, o.topo.Name), repA, copied)
		}
		again, err := transpile.Transpile(a, grid, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !sameReport(again, repA) {
			t.Fatalf("parallelism %d: repeating call A changed its report:\n%s\n%s", par, again.Summary(), repA.Summary())
		}
	}
}

// TestConcurrentCallersGetSerialReports runs several goroutines that
// transpile a mix of circuits and topologies at Parallelism 2, all
// drawing on the one arena pool; every report must equal the serial
// one. Run under -race, it also checks that no arena is shared
// between calls in flight.
func TestConcurrentCallersGetSerialReports(t *testing.T) {
	type call struct {
		c    *circuit.Circuit
		topo *topology.Topology
	}
	grid := topology.Grid(3, 4)
	calls := []call{
		{mirrorCircuit(5, 5, 21), grid},
		{bench.QFT(9), grid},
		{mirrorCircuit(3, 3, 22), grid},
		{bench.TwoLocal(6), topology.SquareLattice66()},
		{mirrorCircuit(6, 4, 23), topology.Line(8)},
	}
	serial := make([]*transpile.Report, len(calls))
	for i, c := range calls {
		rep, err := transpile.Transpile(c.c, c.topo, poolOpts(1))
		if err != nil {
			t.Fatal(err)
		}
		serial[i] = rep
	}
	const callers = 4
	var wg sync.WaitGroup
	errs := make([]error, callers)
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := range calls {
				i := (g + k) % len(calls) // each caller starts elsewhere in the mix
				rep, err := transpile.Transpile(calls[i].c, calls[i].topo, poolOpts(2))
				if err == nil && !sameReport(rep, serial[i]) {
					err = fmt.Errorf("caller %d: %s differs from the serial report:\n%s\n%s",
						g, calls[i].c.Name, rep.Summary(), serial[i].Summary())
				}
				if err != nil {
					errs[g] = err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}
