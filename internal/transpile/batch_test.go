package transpile_test

import (
	"errors"
	"reflect"
	"testing"

	"repro/internal/bench"
	"repro/internal/circuit"
	"repro/internal/polytope"
	"repro/internal/sabre"
	"repro/internal/topology"
	"repro/internal/transpile"
)

func batchOpts() transpile.Options {
	return transpile.Options{
		Router:            transpile.MIRAGE,
		DepthSelection:    true,
		Layout:            sabre.LayoutOptions{LayoutTrials: 2, RoutingTrials: 2, FwdBwdPasses: 1, Seed: 5},
		SkipTrivialLayout: true,
	}
}

// sameReport reports whether two reports agree on every field but the
// wall time: metrics, trial counts, both layouts and the routed and
// reconsolidated circuits, op for op.
func sameReport(a, b *transpile.Report) bool {
	x, y := *a, *b
	x.Runtime, y.Runtime = 0, 0
	return reflect.DeepEqual(x, y)
}

// TestTranspileBatchMatchesIndividual: batching must be a pure
// performance optimisation — per-circuit reports are identical to lone
// Transpile calls with the same options, field for field, at any
// parallelism and patience. The batch mixes one large circuit with
// small ones and a circuit that embeds trivially.
func TestTranspileBatchMatchesIndividual(t *testing.T) {
	topo := topology.SquareLattice66()
	circs := []*circuit.Circuit{bench.QFT(8), bench.QFT(18), bench.GHZ(10), bench.TwoLocal(6)}
	for _, patience := range []int{0, 3} {
		base := batchOpts()
		base.SkipTrivialLayout = false // GHZ(10) embeds in the lattice
		base.Layout.LayoutTrials, base.Layout.RoutingTrials = 3, 4
		base.Layout.ConvergencePatience = patience
		var solo []*transpile.Report
		stopped := false
		for _, c := range circs {
			rep, err := transpile.Transpile(c, topo, base)
			if err != nil {
				t.Fatal(err)
			}
			solo = append(solo, rep)
			stopped = stopped || rep.TrialsExecuted < rep.TrialsBudgeted
		}
		if !solo[2].TrivialLayout || solo[0].TrivialLayout || solo[1].TrivialLayout {
			t.Fatal("fixture: want GHZ(10), and only it, to embed trivially")
		}
		if stopped != (patience > 0) {
			t.Fatalf("fixture: patience %d stopped a grid early: %v", patience, stopped)
		}

		for _, par := range []int{1, 2, 3, -1} {
			opts := base
			if par < 0 {
				// Budget set only through the embedded layout options
				// (must be honored, not overridden by the batch).
				opts.Layout.Parallelism = 1
			} else {
				opts.Parallelism = par
			}
			batch, err := transpile.TranspileBatch(circs, topo, opts)
			if err != nil {
				t.Fatal(err)
			}
			if len(batch) != len(circs) {
				t.Fatalf("par=%d: got %d reports for %d circuits", par, len(batch), len(circs))
			}
			for i, rep := range batch {
				if !sameReport(rep, solo[i]) {
					t.Fatalf("patience=%d par=%d: batch report %d differs from individual transpile:\n%s\n%s",
						patience, par, i, rep.Summary(), solo[i].Summary())
				}
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
	implicit, err := transpile.TranspileBatch(circs, topo, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := polytope.RootCoverageCount(); got != sets {
		t.Fatalf("batch grew the coverage registry from %d to %d sets", sets, got)
	}
	opts.Basis = shared
	explicit, err := transpile.TranspileBatch(circs, topo, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i, rep := range implicit {
		for _, other := range []*transpile.Report{implicit[1-i], explicit[i]} {
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
// first failure in input order wins, whichever step it fails in. A
// circuit whose route fails, here by a runner that ends its grid with
// a row error as a diverged trial would, fails in routing, after a
// later oversized circuit has already failed to prepare.
func TestTranspileBatchError(t *testing.T) {
	topo := topology.Line(4)
	circs := []*circuit.Circuit{bench.GHZ(4), bench.GHZ(10)} // second is oversized
	opts := batchOpts()
	if _, err := transpile.TranspileBatch(circs, topo, opts); err == nil {
		t.Fatal("expected error for oversized circuit in batch")
	}

	circs = []*circuit.Circuit{bench.QFT(4), bench.GHZ(10)}
	routeErr := errors.New("sabre: routing diverged")
	failFirst := func(grids []*sabre.Grid) error {
		if len(grids) == 0 {
			t.Fatal("QFT(4) on a line got no routing grid")
		}
		grids[0].Consume(0, sabre.Row{Err: routeErr})
		return sabre.RunGrids(grids[1:])
	}
	_, err := transpile.TranspileBatchWith(circs, topo, opts, failFirst)
	if !errors.Is(err, routeErr) {
		t.Fatalf("err = %v, want the routing failure of the earlier circuit", err)
	}
}

func TestTranspileBatchEmpty(t *testing.T) {
	reps, err := transpile.TranspileBatch(nil, topology.Line(4), batchOpts())
	if err != nil || reps != nil {
		t.Fatalf("empty batch: got (%v, %v), want (nil, nil)", reps, err)
	}
}
