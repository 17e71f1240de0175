// Package distrib defines the MIRAGE job kind of the dispatch
// subsystem: the coordinator- and worker-side protocol that fans the
// layout rows of routing-trial grids out over a dispatch.Hub of TCP
// workers, on the determinism contract of internal/dispatch
// (index-ordered consumption, idempotent re-lease).
//
// KindTrials routes the trial grids of one or more circuits: one grid
// through the RouteFn of Cluster.Options, every routed circuit of a
// batch through Cluster.TranspileBatch. The job spec carries the
// consolidated circuits, each with its forward flat DAG, the topology
// and the pipeline options, with the grids' layout options. Each worker
// prepares every circuit (sabre.PrepareFromDAG), builds its metric and
// mirror-policy factory with transpile.RoutingPolicy, and leases
// trial-index ranges of whole layout rows, interleaved across circuits
// as sabre.RunGrids orders them, with one sabre.TrialRunner that it
// rebinds to the circuit of each row. It refines each row's layout
// itself, routes the row's trials from it and returns (index, score)
// pairs; the first trial of a row also carries the row's layout, and a
// failed trial carries its error to its grid. The coordinator decodes
// the trials in index order, checks each row's layout, assembles the
// row from its trials and hands it to the circuit's sabre.Grid, as the
// local scheduler hands it a local row. The Grid picks the winner
// exactly as it would locally and replays that single trial, so the
// routed Result — and TrialsExecuted at any patience setting — is
// bit-identical to a single-process run at any worker count x lease
// size. Preparation, trivial-layout checks and metrics run on the
// coordinator, as they do for a local batch.
//
// The spec carries transpile.Options in its wire form (wireOptions),
// encoded once per Cluster.Options or TranspileBatch call. It includes
// the basis coverage set: workers price from that set alone, never
// from their own process registry, so a job's result depends only on
// its spec bytes: a worker, the coordinator's replay and degraded-mode
// local execution all price with the same set, and a journaled spec
// resumes with it. A job returns no epilogue: it prices its circuits
// through cost tables it builds itself, so no worker state comes home.
//
// Cluster bundles a Hub with the coordinator-side entry points;
// Handlers supplies the worker side (cmd/miraged).
package distrib

import (
	"bytes"
	"encoding/gob"

	"repro/internal/dispatch"
)

// KindTrials is the job kind served by MIRAGE workers.
const KindTrials = "mirage/trials"

// Cluster is a coordinator's view of a worker fleet: the connection
// hub plus dispatch tuning.
type Cluster struct {
	Hub *dispatch.Hub
	// TrialLease is the number of layout rows per lease, each of
	// RoutingTrials trials (default 1: a worker refines a row's layout
	// once, and one row of trials is enough work to amortise the
	// lease's round-trip).
	TrialLease int
}

// NewCluster returns a Cluster over h with the default lease size.
func NewCluster(h *dispatch.Hub) *Cluster { return &Cluster{Hub: h} }

func (cl *Cluster) trialLease() int {
	if cl.TrialLease > 0 {
		return cl.TrialLease
	}
	return 1
}

// Handlers returns the worker-side job table: pass to
// dispatch.ServeConn / dispatch.ServeLoop.
func Handlers() map[string]dispatch.Handler {
	return map[string]dispatch.Handler{KindTrials: trialHandler}
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
