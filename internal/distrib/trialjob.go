package distrib

import (
	"fmt"

	"repro/internal/dispatch"
	"repro/internal/sabre"
	"repro/internal/topology"
	"repro/internal/transpile"
)

// trialSpec is the KindTrials job spec: everything a worker needs to
// reproduce any trial of one FindBestRouting grid. Layouts are refined
// once by the coordinator and shipped, and so is the flat dependency
// DAG — the worker validates the shipped analysis instead of
// recomputing it, so per-job preparation is decode-and-check only.
type trialSpec struct {
	Circuit wireCircuit
	Topo    wireTopology
	DAG     wireFlatDAG
	Layouts [][]int
	Opts    sabre.LayoutOptions
	Policy  PolicySpec
}

// trialJob is the worker-side state of one KindTrials job: the
// prepared runner (shared FlatDAG + reusable arena) plus the
// recipe-built metric and policy factory, pricing through one cost
// table built over the shipped circuit.
type trialJob struct {
	runner  *sabre.TrialRunner
	layouts []*topology.Layout
	opts    sabre.LayoutOptions
	metric  sabre.Metric
	factory sabre.PolicyFactory
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
	layouts, err := layoutsFromWire(spec.Layouts, topo.NumQubits)
	if err != nil {
		return nil, err
	}
	opts := spec.Opts.WithDefaults()
	if len(layouts) < opts.LayoutTrials {
		return nil, fmt.Errorf("distrib: trial spec ships %d layouts for %d layout trials", len(layouts), opts.LayoutTrials)
	}
	fd, err := flatDAGFromWire(spec.DAG, c)
	if err != nil {
		return nil, err
	}
	runner, err := sabre.NewTrialRunnerFromDAG(fd, topo)
	if err != nil {
		return nil, err
	}
	// The cost table is built over the shipped circuit under the
	// shipped coverage set, as the coordinator's table was.
	metric, factory, err := spec.Policy.build(c)
	if err != nil {
		return nil, err
	}
	return &trialJob{runner: runner, layouts: layouts, opts: opts, metric: metric, factory: factory}, nil
}

func (j *trialJob) Run(t int) dispatch.WireItem {
	var policy sabre.MirrorPolicy
	if j.factory != nil {
		policy = j.factory(t)
	}
	res, err := j.runner.GridTrial(j.layouts, j.opts, t, policy)
	if err != nil {
		return dispatch.WireItem{Index: t, Err: err.Error()}
	}
	return dispatch.WireItem{Index: t, Score: j.metric(res)}
}

// Epilogue ships nothing: a trial job keeps no state the coordinator
// needs.
func (j *trialJob) Epilogue() []byte { return nil }

// FindBestRouting is the distributed counterpart of
// sabre.FindBestRouting: wave 1 (layout refinement) runs locally, the
// trial grid fans out over the cluster, and the winning trial is
// replayed locally to materialise the Result. The same TrialSelector
// consumes (index, score) pairs in trial-index order from the same
// queue type the local scheduler uses, so the returned Result — routed
// circuit, TrialsExecuted, winner identity — is bit-identical to a
// single-process run with the same options at any worker count, lease
// size, or patience setting, including across worker deaths mid-lease.
//
// metric and factory must be the local equivalents of spec (the pair
// transpile.Transpile would build); they are used for the local winner
// replay. Callers normally go through Options, which guarantees the
// pairing. The prepared circuit's DAGs are reused end to end: layout
// refinement and the winner replay read them locally, and the forward
// DAG ships inside the job spec so workers skip the rebuild.
func (cl *Cluster) FindBestRouting(pc *sabre.PreparedCircuit,
	opts sabre.LayoutOptions, spec PolicySpec,
	metric sabre.Metric, factory sabre.PolicyFactory) (*sabre.Result, error) {

	opts = opts.WithDefaults()
	if metric == nil {
		metric = sabre.SwapCountMetric
	}
	layouts, err := sabre.RefineLayoutsPrepared(pc, opts)
	if err != nil {
		return nil, err
	}
	raw, err := encodeSpec(trialSpec{
		Circuit: circuitToWire(pc.Circ),
		Topo:    topologyToWire(pc.Topo),
		DAG:     flatDAGToWire(pc.FD),
		Layouts: layoutsToWire(layouts),
		Opts:    opts,
		Policy:  spec,
	})
	if err != nil {
		return nil, err
	}

	n := opts.LayoutTrials * opts.RoutingTrials
	sel := sabre.NewTrialSelector(opts.ConvergencePatience)
	q := dispatch.NewQueue(n, cl.trialLease(), sel.Consume)
	_, err = dispatch.RunJob(cl.Hub, KindTrials, raw, q,
		func(wi dispatch.WireItem) (float64, error) { return wi.Score, nil })
	if err != nil {
		return nil, err
	}

	bestT, _ := sel.Best()
	var policy sabre.MirrorPolicy
	if factory != nil {
		policy = factory(bestT)
	}
	best, err := sabre.NewTrialRunnerPrepared(pc).GridTrial(layouts, opts, bestT, policy)
	if err != nil {
		return nil, err
	}
	best.TrialsExecuted = sel.Executed()
	best.TrialsBudgeted = n
	return best, nil
}

// Options wires the cluster into a transpile.Options value: the
// returned options carry a RouteFn that dispatches every routing-trial
// grid to the cluster's workers while the rest of the pipeline —
// cleaning, consolidation, metrics — runs locally. Reports are
// bit-identical to local transpilation by the trial-queue determinism
// contract. Fails when the options are not wire-expressible (custom
// basis).
func (cl *Cluster) Options(opts transpile.Options) (transpile.Options, error) {
	spec, err := SpecFromOptions(opts)
	if err != nil {
		return transpile.Options{}, err
	}
	opts.RouteFn = func(pc *sabre.PreparedCircuit, lopts sabre.LayoutOptions,
		metric sabre.Metric, factory sabre.PolicyFactory) (*sabre.Result, error) {
		return cl.FindBestRouting(pc, lopts, spec, metric, factory)
	}
	return opts, nil
}
