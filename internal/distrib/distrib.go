// Package distrib defines the MIRAGE job kinds of the dispatch
// subsystem: the coordinator- and worker-side protocol that fans
// routing-trial grids and batch transpilations out over a
// dispatch.Hub of TCP workers.
//
// Two job kinds exist, both built on the determinism contract of
// internal/dispatch (index-ordered consumption, idempotent re-lease):
//
//   - KindTrials distributes the trial grid of one sabre
//     FindBestRouting call. The job spec carries the consolidated
//     circuit, its forward flat DAG, the topology, the layout options
//     and a PolicySpec naming the metric/mirror-policy construction;
//     each worker prepares the circuit (sabre.PrepareFromDAG) and one
//     sabre.TrialRunner, and leases trial-index ranges of whole layout
//     rows. It refines each row's layout itself, routes the row's
//     trials from it and returns (index, score) pairs; the first trial
//     of a row also carries the row's layout. The coordinator checks
//     each layout and hands the trials to a sabre.Grid, which picks
//     the winner exactly as the local scheduler would and replays that
//     single trial locally, so the routed Result — and TrialsExecuted
//     at any patience setting — is bit-identical to a single-process
//     run at any worker count x lease size.
//
//   - KindBatch shards transpile.TranspileBatch at circuit
//     granularity: workers lease circuit indices, run the full local
//     pipeline per circuit and return serialised Reports, which are
//     consumed in circuit-index order.
//
// Every job spec carries its basis coverage set (PolicySpec.Coverage),
// encoded once per Cluster.Options or TranspileBatch call. Workers
// price from that set alone, never from their own process registry, so
// a job's result depends only on its spec bytes: a worker, the
// coordinator's replay and degraded-mode local execution all price
// with the same set, and a journaled spec resumes with it. Neither
// kind returns an epilogue: every job prices its circuits through cost
// tables it builds itself, so no worker state comes home.
//
// Cluster bundles a Hub with the coordinator-side entry points;
// Handlers supplies the worker side (cmd/miraged).
package distrib

import (
	"bytes"
	"encoding/gob"

	"repro/internal/dispatch"
)

// Job kinds served by MIRAGE workers.
const (
	KindTrials = "mirage/trials"
	KindBatch  = "mirage/batch"
)

// Cluster is a coordinator's view of a worker fleet: the connection
// hub plus dispatch tuning. The zero LeaseSize values pick defaults
// sized to each job kind's item cost.
type Cluster struct {
	Hub *dispatch.Hub
	// TrialLease is the number of layout rows per lease, each of
	// RoutingTrials trials (default 1: a worker refines a row's layout
	// once, and one row of trials is enough work to amortise the
	// lease's round-trip).
	TrialLease int
	// CircuitLease is the number of batch circuits per lease (default
	// 1: circuits are seconds, one per lease balances best).
	CircuitLease int
}

// NewCluster returns a Cluster over h with default lease sizes.
func NewCluster(h *dispatch.Hub) *Cluster { return &Cluster{Hub: h} }

func (cl *Cluster) trialLease() int {
	if cl.TrialLease > 0 {
		return cl.TrialLease
	}
	return 1
}

func (cl *Cluster) circuitLease() int {
	if cl.CircuitLease > 0 {
		return cl.CircuitLease
	}
	return 1
}

// Handlers returns the worker-side job table: pass to
// dispatch.ServeConn / dispatch.ServeAddr. One table serves both job
// kinds, so a single `miraged worker` process can alternate between
// trial-grid and batch jobs as the coordinator submits them.
func Handlers() map[string]dispatch.Handler {
	return map[string]dispatch.Handler{
		KindTrials: trialHandler,
		KindBatch:  batchHandler,
	}
}

// encodeSpec/decodeSpec gob-roundtrip job specs.
func encodeSpec(v any) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func decodeSpec(b []byte, v any) error {
	return gob.NewDecoder(bytes.NewReader(b)).Decode(v)
}
