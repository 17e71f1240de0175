package distrib

import (
	"fmt"

	"repro/internal/dispatch"
	"repro/internal/sabre"
	"repro/internal/topology"
	"repro/internal/transpile"
)

// trialSpec is the KindTrials job spec: everything a worker needs to
// run any trial of one routing grid, refinement of the trial's layout
// row included. Opts.Layout holds the layout options RouteFn received.
// The flat dependency DAG ships with the circuit, so the worker checks
// the shipped analysis instead of recomputing it and only builds the
// reversed DAG its layout refinement routes.
type trialSpec struct {
	Circuit wireCircuit
	Topo    wireTopology
	DAG     wireFlatDAG
	Opts    wireOptions
}

// trialJob is the worker-side state of one KindTrials job: the
// prepared runner (shared DAGs + reusable arena), the metric and
// policy factory transpile.RoutingPolicy builds over the shipped
// circuit, and the layout of the row it ran last.
type trialJob struct {
	runner  *sabre.TrialRunner
	opts    sabre.LayoutOptions
	metric  sabre.Metric
	factory sabre.PolicyFactory
	lt      int              // the row whose refined layout is cached
	layout  *topology.Layout // nil before the first trial
}

func trialHandler(raw, _ []byte) (dispatch.JobRunner, error) {
	var spec trialSpec
	if err := decodeSpec(raw, &spec); err != nil {
		return nil, fmt.Errorf("distrib: decoding trial spec: %w", err)
	}
	c, err := circuitFromWire(spec.Circuit)
	if err != nil {
		return nil, err
	}
	topo, err := topologyFromWire(spec.Topo)
	if err != nil {
		return nil, err
	}
	fd, err := flatDAGFromWire(spec.DAG, c)
	if err != nil {
		return nil, err
	}
	pc, err := sabre.PrepareFromDAG(fd, topo)
	if err != nil {
		return nil, err
	}
	opts, err := spec.Opts.options()
	if err != nil {
		return nil, err
	}
	// Workers route every trial to its end, so the bound goes unused.
	metric, _, factory := transpile.RoutingPolicy(opts, c)
	return &trialJob{runner: sabre.NewTrialRunner(pc), opts: opts.Layout.WithDefaults(),
		metric: metric, factory: factory}, nil
}

// Run routes grid trial t from the layout of its row lt, refining that
// layout first unless t's row is the one this runner ran last. Leases
// hold whole rows, so a row is normally refined once. The item carries
// the trial's score, and the first trial of each row also carries the
// row's layout, for the coordinator to check and replay the winner
// from. A trial outside the grid is an item error.
func (j *trialJob) Run(t int) dispatch.WireItem {
	n := j.opts.RoutingTrials
	if t < 0 || t >= j.opts.LayoutTrials*n {
		return dispatch.WireItem{Index: t, Err: fmt.Sprintf("distrib: trial %d outside the %dx%d grid", t, j.opts.LayoutTrials, n)}
	}
	if lt := t / n; j.layout == nil || j.lt != lt {
		layout, err := j.runner.RefineLayout(j.opts, lt)
		if err != nil {
			return dispatch.WireItem{Index: t, Err: err.Error()}
		}
		j.lt, j.layout = lt, layout
	}
	var policy sabre.MirrorPolicy
	if j.factory != nil {
		policy = j.factory(t)
	}
	res, err := j.runner.GridTrial(j.layout, j.opts, t, policy)
	if err != nil {
		return dispatch.WireItem{Index: t, Err: err.Error()}
	}
	item := dispatch.WireItem{Index: t, Score: j.metric(res)}
	if t%n == 0 {
		if item.Blob, err = encodeSpec(j.layout.L2P); err != nil {
			return dispatch.WireItem{Index: t, Err: err.Error()}
		}
	}
	return item
}

// Epilogue ships nothing: a trial job keeps no state the coordinator
// needs.
func (j *trialJob) Epilogue() []byte { return nil }

// trialItem is one trial as the coordinator consumes it: its score
// and, for the first trial of a row, the row's checked layout.
type trialItem struct {
	score  float64
	layout *topology.Layout
}

// findBestRouting routes the trial grid of pc over the cluster:
// leases of whole layout rows fan out to workers, which refine the
// rows' layouts and route their trials, and the winning trial is
// replayed locally to materialise the Result. A sabre.Grid consumes
// the trials in trial-index order from the same queue type the local
// scheduler uses, so the returned Result — routed circuit,
// TrialsExecuted, winner identity — is bit-identical to a
// single-process run with the same options at any worker count, lease
// size, or patience setting, including across worker deaths
// mid-lease. Every row's layout is checked before use (see
// rowLayoutFromWire). Workers route every trial to its end, so a score
// bound in opts is ignored.
//
// metric and factory must be what transpile.RoutingPolicy builds from
// w over pc's circuit; Options' RouteFn passes exactly that pair.
func (cl *Cluster) findBestRouting(pc *sabre.PreparedCircuit,
	opts sabre.LayoutOptions, w wireOptions,
	metric sabre.Metric, factory sabre.PolicyFactory) (*sabre.Result, error) {

	opts = opts.WithDefaults().WithBound(nil)
	w.Layout = opts
	raw, err := encodeSpec(trialSpec{
		Circuit: circuitToWire(pc.Circ),
		Topo:    topologyToWire(pc.Topo),
		DAG:     flatDAGToWire(pc.FD),
		Opts:    w,
	})
	if err != nil {
		return nil, err
	}
	n := opts.RoutingTrials
	g := sabre.NewGrid(pc, opts, metric, factory)
	var layout *topology.Layout // the layout of the row being consumed
	q := dispatch.NewQueue(opts.LayoutTrials*n, cl.trialLease()*n, func(t int, it trialItem) bool {
		if it.layout != nil {
			layout = it.layout
		}
		return g.ConsumeTrial(t, layout, it.score)
	})
	_, err = dispatch.RunJob(cl.Hub, KindTrials, raw, q,
		func(wi dispatch.WireItem) (it trialItem, err error) {
			it.score = wi.Score
			if wi.Index%n == 0 {
				it.layout, err = rowLayoutFromWire(wi.Blob, wi.Index/n, pc)
			}
			return it, err
		})
	if err != nil {
		return nil, err
	}
	return g.Result()
}

// Options wires the cluster into a transpile.Options value: the
// returned options carry a RouteFn that dispatches every routing-trial
// grid to the cluster's workers while the rest of the pipeline —
// cleaning, consolidation, metrics — runs locally. Reports are
// bit-identical to local transpilation by the trial-queue determinism
// contract. Fails when the options are not wire-expressible (custom
// basis).
func (cl *Cluster) Options(opts transpile.Options) (transpile.Options, error) {
	w, err := optionsToWire(opts)
	if err != nil {
		return transpile.Options{}, err
	}
	opts.RouteFn = func(pc *sabre.PreparedCircuit, lopts sabre.LayoutOptions,
		metric sabre.Metric, factory sabre.PolicyFactory) (*sabre.Result, error) {
		return cl.findBestRouting(pc, lopts, w, metric, factory)
	}
	return opts, nil
}
