package distrib

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/circuit"
	"repro/internal/dispatch"
	"repro/internal/sabre"
	"repro/internal/topology"
	"repro/internal/transpile"
)

// trialSpec is the KindTrials job spec: everything a worker needs to
// run any trial of the routing grids of one or more circuits,
// refinement of the trial's layout row included. Every grid has the
// layout options Opts.Layout, and the K grids' rows interleave as in
// sabre.RunGrids: item (lt*K + k)*n + rt is trial lt*n + rt of circuit
// k's L x n grid. The spec carries the circuits alone: the worker
// derives their dependency DAGs itself (sabre.PrepareCircuit), so no
// shipped analysis can disagree with the circuit it describes.
type trialSpec struct {
	Circuits []wireCircuit
	Topo     wireTopology
	Opts     wireOptions
}

// trialGrid is one circuit of a trial job as its worker prepared it:
// the shared routing analysis and the metric and policy factory
// transpile.RoutingPolicy builds over the shipped circuit.
type trialGrid struct {
	pc      *sabre.PreparedCircuit
	metric  sabre.Metric
	factory sabre.PolicyFactory
}

// trialJob is the worker-side state of one KindTrials job: its
// prepared circuits, one sabre.TrialRunner (a reusable arena bound to
// one circuit at a time) and the layout of the row it ran last.
type trialJob struct {
	grids  []trialGrid
	runner *sabre.TrialRunner
	opts   sabre.LayoutOptions
	k, lt  int              // the circuit and row whose refined layout is cached
	layout *topology.Layout // nil when no layout is cached
}

func trialHandler(raw, _ []byte) (dispatch.JobRunner, error) {
	var spec trialSpec
	if err := decodeSpec(raw, &spec); err != nil {
		return nil, fmt.Errorf("distrib: decoding trial spec: %w", err)
	}
	topo, err := topologyFromWire(spec.Topo)
	if err != nil {
		return nil, err
	}
	opts, err := spec.Opts.options()
	if err != nil {
		return nil, err
	}
	// The runner is bound to a circuit by Run.
	j := &trialJob{grids: make([]trialGrid, len(spec.Circuits)), runner: sabre.NewTrialRunner(nil),
		opts: opts.Layout.WithDefaults()}
	for k, wc := range spec.Circuits {
		c, err := circuitFromWire(wc)
		if err != nil {
			return nil, err
		}
		if j.grids[k].pc, err = sabre.PrepareCircuit(c, topo); err != nil {
			return nil, err
		}
		// Workers route every trial to its end, so the bound goes unused.
		j.grids[k].metric, _, j.grids[k].factory = transpile.RoutingPolicy(opts, j.grids[k].pc)
	}
	return j, nil
}

// Run routes item i, trial t of row lt of circuit k (see trialSpec),
// from the layout of that row, refining it first unless it is the row
// this runner ran last. Leases hold whole rows, so a row is normally
// refined once; a lease of several rows holds the same row of several
// circuits. The item carries the trial's score, and the first trial of
// each row also carries the row's layout, for the coordinator to check
// and replay the winner from. A trial whose row cannot be refined or
// whose route fails is a failed item; an index outside the job is an
// item error.
func (j *trialJob) Run(i int) dispatch.WireItem {
	K, L, n := len(j.grids), j.opts.LayoutTrials, j.opts.RoutingTrials
	if i < 0 || i >= K*L*n {
		return dispatch.WireItem{Index: i, Err: fmt.Sprintf("distrib: item %d outside %d grids of %dx%d trials", i, K, L, n)}
	}
	k, lt := i/n%K, i/n/K
	t := lt*n + i%n
	g := j.grids[k]
	if j.layout == nil || j.k != k || j.lt != lt {
		j.runner.Bind(g.pc)
		layout, err := j.runner.RefineLayout(j.opts, lt)
		if err != nil {
			j.layout = nil
			return failed(i, err)
		}
		j.k, j.lt, j.layout = k, lt, layout
	}
	var policy sabre.MirrorPolicy
	if g.factory != nil {
		policy = g.factory(t)
	}
	res, err := j.runner.GridTrial(j.layout, j.opts, t, policy)
	if err != nil {
		return failed(i, err)
	}
	item := dispatch.WireItem{Index: i, Score: g.metric(res)}
	if t%n == 0 {
		if item.Blob, err = encodeSpec(j.layout.L2P); err != nil {
			return dispatch.WireItem{Index: i, Err: err.Error()}
		}
	}
	return item
}

// failed is the item of a trial whose row could not be refined or
// whose route failed: a NaN score, which no metric returns, marks it,
// and the blob carries the error. The coordinator ends the trial's
// grid with it, as a local row's error ends a local grid, and the
// job's other grids run on; an item error (WireItem.Err) would stop
// the whole job instead.
func failed(i int, err error) dispatch.WireItem {
	return dispatch.WireItem{Index: i, Score: math.NaN(), Blob: []byte(err.Error())}
}

// Epilogue ships nothing: a trial job keeps no state the coordinator
// needs.
func (j *trialJob) Epilogue() []byte { return nil }

// runGrids routes every grid on the cluster as one KindTrials job: the
// fleet counterpart of sabre.RunGrids. The grids share one
// LayoutOptions, and the job's items are their trials, in RunGrids's
// row order (see trialSpec), leased in whole layout rows; workers
// refine the rows' layouts and route their trials. The consumer
// decodes the trials in trial-index order, assembles each layout row
// from its trials, up to the first failed one (see failed), and hands
// the row to its grid's Consume, as sabre.RunGrids does with a local
// row. So every grid's winner, TrialsExecuted and error are
// bit-identical to a single-process run at any worker count, lease
// size or patience setting, including across worker deaths mid-lease.
// Every row's layout is checked before use (see rowLayoutFromWire); a
// bad one fails the call. Workers route every trial they are leased to
// its end, so a score bound in the options is ignored; once a grid
// finished, the queue leases none of its remaining trials and drops
// the results of those already leased.
//
// w carries the options every grid's metric and policy factory were
// built from by transpile.RoutingPolicy; its layout options are
// replaced by the grids'.
func (cl *Cluster) runGrids(grids []*sabre.Grid, w wireOptions) error {
	if len(grids) == 0 {
		return nil
	}
	opts := grids[0].Options()
	w.Layout = opts
	spec := trialSpec{Topo: topologyToWire(grids[0].Prepared().Topo), Opts: w}
	for _, g := range grids {
		spec.Circuits = append(spec.Circuits, circuitToWire(g.Prepared().Circ))
	}
	raw, err := encodeSpec(spec)
	if err != nil {
		return err
	}
	K, n := len(grids), opts.RoutingTrials
	finished, left := make([]bool, K), K
	var row sabre.Row // the row being assembled
	var badRow error  // the failed layout check that stopped the job
	q := dispatch.NewQueue(K*opts.LayoutTrials*n, cl.trialLease()*n, func(i int, wi dispatch.WireItem) bool {
		k, lt, rt := i/n%K, i/n/K, i%n
		if rt == 0 {
			row = sabre.Row{}
		}
		switch {
		case math.IsNaN(wi.Score):
			row.Err = errors.New(string(wi.Blob))
		case rt == 0:
			if row.Layout, badRow = rowLayoutFromWire(wi.Blob, lt, grids[k].Prepared()); badRow != nil {
				return true
			}
			fallthrough
		default:
			row.Scores = append(row.Scores, wi.Score)
		}
		if (row.Err != nil || rt == n-1) && grids[k].Consume(lt, row) {
			finished[k], left = true, left-1
		}
		return left == 0
	})
	q.SetSkip(func(i int) bool { return finished[i/n%K] })
	if _, err := cl.Hub.RunJob(KindTrials, raw, q); err != nil {
		return err
	}
	return badRow
}

// findBestRouting routes the trial grid of pc on the cluster: runGrids
// over one grid, then the winner's local replay. metric and factory
// must be what transpile.RoutingPolicy builds from w over pc's circuit;
// Options' RouteFn passes exactly that pair.
func (cl *Cluster) findBestRouting(pc *sabre.PreparedCircuit,
	opts sabre.LayoutOptions, w wireOptions,
	metric sabre.Metric, factory sabre.PolicyFactory) (*sabre.Result, error) {

	g := sabre.NewGrid(pc, opts.WithBound(nil), metric, factory)
	if err := cl.runGrids([]*sabre.Grid{g}, w); err != nil {
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

// TranspileBatch is transpile.TranspileBatch with the layout rows of
// every circuit that needs routing routed on the cluster, as one
// KindTrials job (see runGrids). Preparation, trivial-layout checks,
// winner replays and metrics run on the caller, so every report is
// bit-identical to the local batch's, Runtime aside, and the first
// failure in input order is the one returned. Fails when the options
// are not wire-expressible (custom basis).
func (cl *Cluster) TranspileBatch(circuits []*circuit.Circuit, topo *topology.Topology,
	opts transpile.Options) ([]*transpile.Report, error) {

	w, err := optionsToWire(opts)
	if err != nil {
		return nil, err
	}
	return transpile.TranspileBatchWith(circuits, topo, opts, func(grids []*sabre.Grid) error {
		return cl.runGrids(grids, w)
	})
}
