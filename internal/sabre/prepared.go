package sabre

import (
	"fmt"

	"repro/internal/circuit"
	"repro/internal/topology"
)

// PreparedCircuit is the immutable per-circuit analysis the trial grid
// shares: the validated (circuit, topology) pairing, the forward and
// reversed flat dependency DAGs, and the mirror data (mirrorTable):
// the circuit's class list (Classes) with each 2Q op's slot in it, and
// the mirror gates the routes that hand out their Results emit. Every
// trial of a circuit reads the same DAGs and mirror data, layout
// refinement's backward pass reads the same reversed DAG, and the
// winner replay reuses them all — so the analysis is computed once per
// circuit, not once per consumer: a mirror decision, an accepted
// mirror, the depth bound's tail and the depth metric find every
// class and its mirror (paper Eq. 1) in the list instead of computing
// them again. Only the forward circuit has mirror data: the backward
// passes of layout refinement route without a mirror policy. A
// distributed worker prepares the circuits of its trial job spec with
// PrepareCircuit too: the spec ships circuits, never their DAGs.
//
// Lifetime rules: a PreparedCircuit and everything it references
// (Circ, Topo, both DAGs, the mirror data) are immutable after
// PrepareCircuit returns — each part of the mirror data is built from
// Circ alone, once, on its first use, under a sync.Once — and safe to
// share across any number of goroutines, trial runners and
// FindBestRoutingPrepared calls, concurrently and indefinitely. All
// mutable routing state lives in per-worker trial arenas; nothing ever
// writes back into the prepared state or into Circ. The prepared state
// is only valid for the exact Circ/Topo pair it was built from —
// mutating the underlying circuit afterwards (appending ops,
// renumbering qubits) invalidates it undetectably, so treat the source
// circuit as frozen.
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
// immutable analysis state (the forward and reversed flat DAGs, both
// derived from c alone) that FindBestRoutingPrepared and
// NewTrialRunner reuse. Prepare once per circuit and fan the result
// out to every consumer.
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
		mirrors: mirrorTable{circ: c, name: c.Name + "_routed"},
	}, nil
}

// Classes returns the class list of Circ (circuit.NewClasses), built
// on its first use. A cost table priced over it prices the decisions
// and the routed ops of every route of pc under a policy or a depth
// bound, which carry its slots; a policy or bound priced over any
// other list panics.
func (pc *PreparedCircuit) Classes() *circuit.Classes { return pc.mirrors.getClasses() }

// NewTrialRunner builds a trial runner over the prepared
// state: no validation, no DAG construction — just an arena of the
// runner's own, sharing the immutable DAGs and mirror data. The arena
// is new, not one of the pool's RunGrids and Grid.Result use: the
// runner's Results alias it for as long as the caller holds the
// runner. Runners are single-goroutine; create one per worker.
func NewTrialRunner(pc *PreparedCircuit) *TrialRunner {
	return &TrialRunner{pc: pc, arena: newTrialArena()}
}

// Bind points r at pc and keeps its arena, so a worker running the
// rows of several circuits reuses one arena for all of them.
func (r *TrialRunner) Bind(pc *PreparedCircuit) { r.pc = pc }

// FindBestRoutingPrepared runs the full SABRE flow on pc: for each
// layout trial, a random initial layout is refined by forward/backward
// routing passes, then the circuit is routed up to LayoutTrials x
// RoutingTrials times independently; the best result under the metric
// is returned. It is RunGrids over one grid.
//
// The unit of work is a layout row lt: refine layout lt, then route
// its RoutingTrials trials t = lt*RoutingTrials + rt and score them
// inside the worker, so expensive metrics (polytope-weighted depth)
// parallelise too. The rows and the winner replay all share pc's
// immutable forward and reversed DAGs, so a caller routing the same
// circuit under several configurations (e.g. a benchmark row running
// both routers) pays for the per-circuit analysis once; each worker
// reuses one pooled arena for its rows. Rows run on the dispatch work
// queue, which hands them to a Grid in row order; the Grid feeds the scores
// to its trial selector — the online argmin plus convergence stop
// rule — in trial-index order, so it sees exactly the sequence a
// serial loop would, and the winner and TrialsExecuted are independent
// of goroutine scheduling. Only scores and the refined layout leave a
// row; once the winner is known, that single trial is replayed on a
// pooled arena and copied out of it to materialise the returned
// Result, which owns its buffers.
//
// Each trial owns a generator seeded from (Seed, trial kind, trial
// index) through a splitmix64 mixer, and ties between equal-scoring
// trials break toward the lowest trial index, so the chosen result is
// bit-identical at any worker count: it is exactly the trial a serial
// loop would have selected. When opts carry a Bound on the metric
// (WithBound), a trial stops routing as soon as its bound reaches a
// lower-index score and reaches the selector as non-improving; the
// returned Result is unchanged (see Grid).
func FindBestRoutingPrepared(pc *PreparedCircuit, opts LayoutOptions,
	metric Metric, factory PolicyFactory) (*Result, error) {

	g := NewGrid(pc, opts, metric, factory)
	if err := RunGrids([]*Grid{g}); err != nil {
		return nil, err
	}
	return g.Result()
}
