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
// spec, and workers prepare from it with PrepareFromDAG.
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
// FindBestRoutingPrepared and NewTrialRunnerPrepared reuse. Prepare
// once per circuit and fan the result out to every consumer.
func PrepareCircuit(c *circuit.Circuit, topo *topology.Topology) (*PreparedCircuit, error) {
	return PrepareFromDAG(circuit.BuildFlatDAG(c), topo)
}

// PrepareFromDAG is PrepareCircuit over the forward DAG of fd.Circ,
// built elsewhere — a distributed worker receives it in the job spec,
// checked by circuit.FlatDAGFromParts. It validates the circuit
// against topo and builds only the reversed DAG.
func PrepareFromDAG(fd *circuit.FlatDAG, topo *topology.Topology) (*PreparedCircuit, error) {
	c := fd.Circ
	if err := validateRoutable(c, topo); err != nil {
		return nil, err
	}
	if !topo.IsConnected() && c.Count2Q() > 0 {
		return nil, fmt.Errorf("sabre: topology %s is disconnected", topo.Name)
	}
	return &PreparedCircuit{
		Circ:    c,
		Topo:    topo,
		FD:      fd,
		FDRev:   circuit.BuildFlatDAG(c.Reversed()),
		mirrors: mirrorTable{circ: c},
	}, nil
}

// NewTrialRunnerPrepared builds a trial runner over the prepared
// state: no validation, no DAG construction — just a fresh arena
// sharing the immutable DAGs and mirror data. Runners are single-
// goroutine; create one per worker.
func NewTrialRunnerPrepared(pc *PreparedCircuit) *TrialRunner {
	return &TrialRunner{pc: pc, arena: newTrialArena()}
}

// FindBestRoutingPrepared is FindBestRouting over prepared state: the
// rows and the winner replay all share pc's immutable DAGs, so a
// caller routing the same circuit under several configurations (e.g.
// a benchmark row running both routers) pays for the per-circuit
// analysis once.
func FindBestRoutingPrepared(pc *PreparedCircuit, opts LayoutOptions,
	metric Metric, factory PolicyFactory) (*Result, error) {

	g := NewGrid(pc, opts, metric, factory)
	q := dispatch.NewQueue(g.opts.LayoutTrials, 1, g.Consume)
	err := dispatch.RunLocal(q, g.opts.Parallelism,
		func(int) *TrialRunner { return NewTrialRunnerPrepared(pc) },
		func(lt int, r *TrialRunner) (Row, error) { return g.row(r, lt) })
	if err != nil {
		return nil, err
	}
	return g.Result()
}
