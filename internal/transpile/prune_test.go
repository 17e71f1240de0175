package transpile_test

import (
	"fmt"
	"sync/atomic"
	"testing"

	"repro/internal/bench"
	"repro/internal/circuit"
	"repro/internal/gates"
	"repro/internal/mirrorbench"
	"repro/internal/polytope"
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

// pruneConfig is a router configuration of the pruning contract; a
// nil basis is the default sqrt-iSWAP.
type pruneConfig struct {
	name   string
	router transpile.Router
	depth  bool
	basis  *polytope.CoverageSet
}

// prunedCounts are the serial work of one configuration over a
// circuit set: trials the metric scored, trials the reports count as
// executed, and grids the floor finished before their last executed
// trial.
type prunedCounts struct{ scored, executed, floored int }

// checkPrunedTranspile runs each configuration with the bound transpile
// declares and with it removed (through RouteFn), at Parallelism 1/2/4
// and patience 0/3: every report must match the unpruned serial one
// exactly. It returns each configuration's work at Parallelism 1,
// where rows route exactly the trials the selector consumes: a grid
// that starts fewer trials than it counts as executed finished at its
// floor.
func checkPrunedTranspile(t *testing.T, circuits []*circuit.Circuit, configs []pruneConfig) map[string]prunedCounts {
	t.Helper()
	topo := topology.Grid(3, 4)
	counts := map[string]prunedCounts{}
	for _, c := range circuits {
		pc := transpile.PrepareCircuit(c, topo)
		for _, cfg := range configs {
			for _, patience := range []int{0, 3} {
				opts := transpile.Options{
					Router: cfg.router, DepthSelection: cfg.depth, Basis: cfg.basis, SkipTrivialLayout: true,
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
					var calls, starts atomic.Int64
					pruned := opts
					pruned.Parallelism = par
					pruned.RouteFn = func(pc *sabre.PreparedCircuit, lo sabre.LayoutOptions,
						metric sabre.Metric, factory sabre.PolicyFactory) (*sabre.Result, error) {
						counted := func(r *sabre.Result) float64 { calls.Add(1); return metric(r) }
						// A factory returning a nil policy routes as a nil
						// factory does. The grid calls it at each trial's
						// start and once more to replay the winner.
						marked := func(trial int) sabre.MirrorPolicy {
							starts.Add(1)
							if factory == nil {
								return nil
							}
							return factory(trial)
						}
						return sabre.FindBestRoutingPrepared(pc, lo, counted, marked)
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
						n := counts[cfg.name]
						n.scored += int(calls.Load())
						n.executed += got.TrialsExecuted
						if starts.Load()-1 < int64(got.TrialsExecuted) {
							n.floored++
						}
						counts[cfg.name] = n
					}
				}
			}
		}
	}
	return counts
}

// TestPrunedTranspileMatchesUnpruned runs the pruning contract on the
// four router configurations over circuits whose grids never meet
// their floor, and pins the serial work.
func TestPrunedTranspileMatchesUnpruned(t *testing.T) {
	circuits := []*circuit.Circuit{bench.QFT(8), bench.TwoLocal(6), bench.PortfolioQAOA(8, 1)}
	configs := []pruneConfig{
		{"sabre-swaps", transpile.SABRE, false, nil},
		{"sabre-depth", transpile.SABRE, true, nil},
		{"mirage-swaps", transpile.MIRAGE, false, nil},
		{"mirage-depth", transpile.MIRAGE, true, nil},
	}
	var total prunedCounts
	for name, n := range checkPrunedTranspile(t, circuits, configs) {
		if n.floored != 0 {
			t.Errorf("%s: %d grids finished at their floor, want 0", name, n.floored)
		}
		total.scored += n.scored
		total.executed += n.executed
	}
	if total.scored != 58 || total.executed != 352 {
		t.Fatalf("serial pruned runs scored %d of %d executed trials, want 58 of 352", total.scored, total.executed)
	}
}

// TestPrunedTranspileMatchesUnprunedAtFloor runs the pruning contract
// on small mirror circuits and a line that embeds, whose grids meet
// their floor, under the SWAP count and MIRAGE-Depth on the dyadic
// sqrt-iSWAP and the cube-root iSWAP basis, whose prices in thirds
// keep the floor out of reach. It pins per configuration the serial
// work and how many grids finish at their floor.
func TestPrunedTranspileMatchesUnprunedAtFloor(t *testing.T) {
	var circuits []*circuit.Circuit
	for i := 0; i < 6; i++ {
		m := mirrorbench.Generate(mirrorbench.Spec{
			Kind: mirrorbench.Kind(i % 2), Qubits: 3 + i%4, Layers: 3 + i/2, Seed: int64(100 + i),
		})
		circuits = append(circuits, m.Circuit)
	}
	line := circuit.New("line", 6)
	for q := 0; q+1 < 6; q++ {
		line.Add(gates.H(), q)
		line.Add(gates.CX(), q, q+1)
	}
	circuits = append(circuits, line)
	configs := []pruneConfig{
		{"swaps", transpile.SABRE, false, nil},
		{"depth-dyadic", transpile.MIRAGE, true, nil},
	}
	want := map[string]prunedCounts{
		"swaps":        {18, 198, 5},
		"depth-dyadic": {24, 200, 5},
		"depth-thirds": {143, 198, 0},
	}
	if testing.Short() {
		delete(want, "depth-thirds") // building the root-3 coverage set takes seconds
	} else {
		configs = append(configs, pruneConfig{"depth-thirds", transpile.MIRAGE, true, polytope.NewISwapRootCoverage(3)})
	}
	got := checkPrunedTranspile(t, circuits, configs)
	for name, w := range want {
		if got[name] != w {
			t.Errorf("%s: serial runs scored %d of %d executed trials with %d grids at their floor, want %d of %d with %d",
				name, got[name].scored, got[name].executed, got[name].floored, w.scored, w.executed, w.floored)
		}
	}
}
