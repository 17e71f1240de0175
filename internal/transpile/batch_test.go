package transpile

import (
	"testing"

	"repro/internal/bench"
	"repro/internal/circuit"
	"repro/internal/polytope"
	"repro/internal/sabre"
	"repro/internal/topology"
)

func batchOpts() Options {
	return Options{
		Router:            MIRAGE,
		DepthSelection:    true,
		Layout:            sabre.LayoutOptions{LayoutTrials: 2, RoutingTrials: 2, FwdBwdPasses: 1, Seed: 5},
		SkipTrivialLayout: true,
	}
}

// TestTranspileBatchMatchesIndividual: batching must be a pure
// performance optimisation — per-circuit reports are identical to lone
// Transpile calls with the same options, at any parallelism.
func TestTranspileBatchMatchesIndividual(t *testing.T) {
	topo := topology.SquareLattice66()
	circs := []*circuit.Circuit{bench.QFT(8), bench.GHZ(10), bench.TwoLocal(6)}

	var solo []*Report
	for _, c := range circs {
		rep, err := Transpile(c, topo, batchOpts())
		if err != nil {
			t.Fatal(err)
		}
		solo = append(solo, rep)
	}

	for _, par := range []int{1, 4, -1} {
		opts := batchOpts()
		if par < 0 {
			// Budget set only through the embedded layout options
			// (must be honored, not overridden by the batch fan-out).
			opts.Layout.Parallelism = 1
		} else {
			opts.Parallelism = par
		}
		batch, err := TranspileBatch(circs, topo, opts)
		if err != nil {
			t.Fatal(err)
		}
		if len(batch) != len(circs) {
			t.Fatalf("par=%d: got %d reports for %d circuits", par, len(batch), len(circs))
		}
		for i, rep := range batch {
			if rep.Name != solo[i].Name ||
				rep.DepthTime != solo[i].DepthTime ||
				rep.TotalBasisGates != solo[i].TotalBasisGates ||
				rep.SwapsInserted != solo[i].SwapsInserted ||
				rep.MirrorsUsed != solo[i].MirrorsUsed {
				t.Fatalf("par=%d: batch report %d differs from individual transpile:\n%s\n%s",
					par, i, rep.Summary(), solo[i].Summary())
			}
		}
	}
}

// TestTranspileBatchSharesCache: a batch resolves one coverage set
// from the process registry (the NewISwapRootCoverage cache) and shares
// it across every circuit, read-only — each circuit prices through its
// own per-call cost table. So the batch rebuilds nothing, and two
// copies of one circuit routed side by side get identical reports, the
// same as a batch handed the registry set explicitly.
func TestTranspileBatchSharesCache(t *testing.T) {
	topo := topology.Line(6)
	circs := []*circuit.Circuit{bench.TwoLocal(6), bench.TwoLocal(6)}
	shared := polytope.NewISwapRootCoverage(2)
	sets := polytope.RootCoverageCount()

	opts := batchOpts()
	opts.Parallelism = 2
	implicit, err := TranspileBatch(circs, topo, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := polytope.RootCoverageCount(); got != sets {
		t.Fatalf("batch grew the coverage registry from %d to %d sets", sets, got)
	}
	opts.Basis = shared
	explicit, err := TranspileBatch(circs, topo, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i, rep := range implicit {
		for _, other := range []*Report{implicit[1-i], explicit[i]} {
			if rep.DepthTime != other.DepthTime ||
				rep.TotalBasisGates != other.TotalBasisGates ||
				rep.SwapsInserted != other.SwapsInserted ||
				rep.MirrorsUsed != other.MirrorsUsed {
				t.Fatalf("report %d differs:\n%s\n%s", i, rep.Summary(), other.Summary())
			}
		}
	}
}

// TestTranspileBatchError: a failing circuit surfaces the error; the
// first failure in input order wins.
func TestTranspileBatchError(t *testing.T) {
	topo := topology.Line(4)
	circs := []*circuit.Circuit{bench.GHZ(4), bench.GHZ(10)} // second is oversized
	opts := batchOpts()
	if _, err := TranspileBatch(circs, topo, opts); err == nil {
		t.Fatal("expected error for oversized circuit in batch")
	}
}

func TestTranspileBatchEmpty(t *testing.T) {
	reps, err := TranspileBatch(nil, topology.Line(4), batchOpts())
	if err != nil || reps != nil {
		t.Fatalf("empty batch: got (%v, %v), want (nil, nil)", reps, err)
	}
}
