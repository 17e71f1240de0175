package transpile_test

import (
	"fmt"
	"sync/atomic"
	"testing"

	"repro/internal/bench"
	"repro/internal/circuit"
	"repro/internal/sabre"
	"repro/internal/topology"
	"repro/internal/transpile"
)

// sameRouted reports whether two routed circuits are op-for-op equal:
// gate, wires, coordinate annotation and router flags.
func sameRouted(a, b *circuit.Circuit) bool {
	if a.NumQubits != b.NumQubits || len(a.Ops) != len(b.Ops) {
		return false
	}
	for i := range a.Ops {
		x, y := a.Ops[i], b.Ops[i]
		if x.Gate.Name != y.Gate.Name || x.Mirrored != y.Mirrored || x.RouterSwap != y.RouterSwap ||
			len(x.Qubits) != len(y.Qubits) || (x.Coord == nil) != (y.Coord == nil) ||
			(x.Coord != nil && *x.Coord != *y.Coord) {
			return false
		}
		for k := range x.Qubits {
			if x.Qubits[k] != y.Qubits[k] {
				return false
			}
		}
	}
	return true
}

// TestPrunedTranspileMatchesUnpruned runs each of the four router
// configurations with the bound transpile declares and with it removed
// (through RouteFn), at Parallelism 1/2/4 and patience 0/3: every
// report must match the unpruned serial one exactly, and the serial
// pruned runs must score exactly the pinned number of trials.
func TestPrunedTranspileMatchesUnpruned(t *testing.T) {
	topo := topology.Grid(3, 4)
	circuits := []*circuit.Circuit{bench.QFT(8), bench.TwoLocal(6), bench.PortfolioQAOA(8, 1)}
	configs := []struct {
		name   string
		router transpile.Router
		depth  bool
	}{
		{"sabre-swaps", transpile.SABRE, false},
		{"sabre-depth", transpile.SABRE, true},
		{"mirage-swaps", transpile.MIRAGE, false},
		{"mirage-depth", transpile.MIRAGE, true},
	}
	var scored, executed int64
	for _, c := range circuits {
		pc := transpile.PrepareCircuit(c, topo)
		for _, cfg := range configs {
			for _, patience := range []int{0, 3} {
				opts := transpile.Options{
					Router: cfg.router, DepthSelection: cfg.depth, SkipTrivialLayout: true,
					Parallelism: 1,
					Layout: sabre.LayoutOptions{LayoutTrials: 4, RoutingTrials: 6, FwdBwdPasses: 2, Seed: 3,
						ConvergencePatience: patience},
				}
				unpruned := opts
				unpruned.RouteFn = func(pc *sabre.PreparedCircuit, lo sabre.LayoutOptions,
					metric sabre.Metric, factory sabre.PolicyFactory) (*sabre.Result, error) {
					return sabre.FindBestRoutingPrepared(pc, lo.WithBound(nil), metric, factory)
				}
				want, err := transpile.TranspilePrepared(pc, unpruned)
				if err != nil {
					t.Fatal(err)
				}
				for _, par := range []int{1, 2, 4} {
					var calls atomic.Int64
					pruned := opts
					pruned.Parallelism = par
					pruned.RouteFn = func(pc *sabre.PreparedCircuit, lo sabre.LayoutOptions,
						metric sabre.Metric, factory sabre.PolicyFactory) (*sabre.Result, error) {
						counted := func(r *sabre.Result) float64 { calls.Add(1); return metric(r) }
						return sabre.FindBestRoutingPrepared(pc, lo, counted, factory)
					}
					got, err := transpile.TranspilePrepared(pc, pruned)
					if err != nil {
						t.Fatal(err)
					}
					where := fmt.Sprintf("%s/%s/patience=%d/par=%d", c.Name, cfg.name, patience, par)
					if !sameRouted(got.Routed, want.Routed) {
						t.Fatalf("%s: routed circuit differs from the unpruned run", where)
					}
					if got.DepthTime != want.DepthTime || got.TotalBasisGates != want.TotalBasisGates ||
						got.SwapsInserted != want.SwapsInserted || got.MirrorsUsed != want.MirrorsUsed ||
						got.TrialsExecuted != want.TrialsExecuted || got.TrialsBudgeted != want.TrialsBudgeted {
						t.Fatalf("%s: report %s\nwant %s", where, got.Summary(), want.Summary())
					}
					for l := range want.InitialLayout.L2P {
						if got.InitialLayout.L2P[l] != want.InitialLayout.L2P[l] || got.FinalLayout.L2P[l] != want.FinalLayout.L2P[l] {
							t.Fatalf("%s: layouts differ from the unpruned run", where)
						}
					}
					if par == 1 {
						scored += calls.Load()
						executed += int64(got.TrialsExecuted)
					}
				}
			}
		}
	}
	if scored != 58 || executed != 352 {
		t.Fatalf("serial pruned runs scored %d of %d executed trials, want 58 of 352", scored, executed)
	}
}
