package sabre

import (
	"fmt"

	"repro/internal/circuit"
	"repro/internal/dispatch"
	"repro/internal/topology"
)

// PreparedCircuit is the immutable per-circuit analysis the trial grid
// shares: the validated (circuit, topology) pairing, the forward and
// reversed flat dependency DAGs, and the per-op mirror data (each 2Q
// op's mirror gate and mirror coordinate). Every trial of a circuit
// reads the same DAGs and mirror data, layout refinement's backward
// pass reads the same reversed DAG, and the winner replay reuses them
// all — so the analysis is computed once per circuit, not once per
// consumer. Only the forward circuit has mirror data: the backward
// passes of layout refinement route without a mirror policy. The
// distributed coordinator ships the forward DAG inside the trial job
// spec so remote workers skip the rebuild too.
//
// Lifetime rules: a PreparedCircuit and everything it references
// (Circ, Topo, both DAGs, the mirror data) are immutable after
// PrepareCircuit returns — the mirror data is filled in once, on the
// first routing trial that carries a policy, under a sync.Once — and
// safe to share across any number of goroutines, trial runners and
// FindBestRoutingPrepared calls, concurrently and indefinitely. All
// mutable routing state lives in per-worker trial arenas; nothing ever
// writes back into the prepared state. The prepared state is only
// valid for the exact Circ/Topo pair it was built from — mutating the
// underlying circuit afterwards (appending ops, renumbering qubits)
// invalidates it undetectably, so treat the source circuit as frozen.
type PreparedCircuit struct {
	Circ *circuit.Circuit
	Topo *topology.Topology
	// FD is the forward dependency DAG; FDRev is the DAG of the
	// reversed circuit (FDRev.Circ), used by the backward half of
	// layout refinement.
	FD    *circuit.FlatDAG
	FDRev *circuit.FlatDAG

	mirrors mirrorTable // per-op mirror data of Circ
}

// PrepareCircuit validates c against topo and builds the shared
// immutable analysis state (forward and reversed flat DAGs) that
// FindBestRoutingPrepared, RefineLayoutsPrepared and
// NewTrialRunnerPrepared reuse. Prepare once per circuit and fan the
// result out to every consumer.
func PrepareCircuit(c *circuit.Circuit, topo *topology.Topology) (*PreparedCircuit, error) {
	if err := validateRoutable(c, topo); err != nil {
		return nil, err
	}
	if !topo.IsConnected() && c.Count2Q() > 0 {
		return nil, fmt.Errorf("sabre: topology %s is disconnected", topo.Name)
	}
	return &PreparedCircuit{
		Circ:    c,
		Topo:    topo,
		FD:      circuit.BuildFlatDAG(c),
		FDRev:   circuit.BuildFlatDAG(c.Reversed()),
		mirrors: mirrorTable{circ: c},
	}, nil
}

// NewTrialRunnerPrepared builds a trial runner over the prepared
// state: no validation, no DAG construction — just a fresh arena
// sharing the immutable DAG and mirror data. Runners are single-
// goroutine; create one per worker.
func NewTrialRunnerPrepared(pc *PreparedCircuit) *TrialRunner {
	return newTrialRunnerForDAG(pc.FD, &pc.mirrors, pc.Topo)
}

// RefineLayoutsPrepared is RefineLayouts over prepared state: the
// layout wave reuses the shared forward/reversed DAGs instead of
// rebuilding them.
func RefineLayoutsPrepared(pc *PreparedCircuit, opts LayoutOptions) ([]*topology.Layout, error) {
	opts = opts.WithDefaults()
	return refineLayouts(pc.FD, pc.FDRev, pc.Circ, pc.Topo, opts)
}

// FindBestRoutingPrepared is FindBestRouting over prepared state: the
// layout wave, the trial grid, and the winner replay all share pc's
// immutable DAGs, so a caller routing the same circuit under several
// configurations (e.g. a benchmark row running both routers) pays for
// the per-circuit analysis once.
func FindBestRoutingPrepared(pc *PreparedCircuit, opts LayoutOptions,
	metric Metric, factory PolicyFactory) (*Result, error) {

	opts = opts.WithDefaults()
	if metric == nil {
		metric = SwapCountMetric
	}
	layouts, err := refineLayouts(pc.FD, pc.FDRev, pc.Circ, pc.Topo, opts)
	if err != nil {
		return nil, err
	}
	return runTrialGrid(pc, layouts, opts, metric, factory)
}

// runTrialGrid runs wave 2 (the routing-trial grid on the dispatch
// queue) plus the winner replay over prepared state and refined
// layouts. See FindBestRouting for the determinism contract.
func runTrialGrid(pc *PreparedCircuit, layouts []*topology.Layout, opts LayoutOptions,
	metric Metric, factory PolicyFactory) (*Result, error) {

	n := opts.LayoutTrials * opts.RoutingTrials
	sel := NewTrialSelector(opts.ConvergencePatience)
	q := dispatch.NewQueue(n, 1, sel.Consume)
	err := dispatch.RunLocal(q, opts.Parallelism,
		func(int) *TrialRunner { return NewTrialRunnerPrepared(pc) },
		func(t int, r *TrialRunner) (float64, error) {
			var policy MirrorPolicy
			if factory != nil {
				policy = factory(t)
			}
			res, err := r.GridTrial(layouts, opts, t, policy)
			if err != nil {
				return 0, err
			}
			return metric(res), nil
		})
	if err != nil {
		return nil, err
	}

	// Materialise the winner: replay the best trial on a transient
	// runner whose arena buffers the Result can own. Trials are
	// deterministic in (Seed, index), so this reproduces the scored
	// run bit for bit at the cost of one extra route — noise against
	// the trial grid.
	bestT, _ := sel.Best()
	var policy MirrorPolicy
	if factory != nil {
		policy = factory(bestT)
	}
	best, err := NewTrialRunnerPrepared(pc).GridTrial(layouts, opts, bestT, policy)
	if err != nil {
		return nil, err
	}
	best.TrialsExecuted = sel.Executed()
	best.TrialsBudgeted = n
	return best, nil
}
