// Package transpile assembles the full pass pipeline of the paper's
// Section V: input cleaning (3Q unrolling, identity removal, SWAP
// elision), 2Q block consolidation with coordinate annotation, a
// VF2-style trivial-layout check, SABRE or MIRAGE routing with layout
// and routing trials, and metric extraction (SWAP count, mirror
// acceptance rate, and the polytope-weighted depth, total basis-gate
// cost and block count of the reconsolidated routed circuit). The
// reconsolidated metrics come from one circuit.BlockDepth pass over
// the routed ops, the pass the trials are scored and cut with; the
// reconsolidated circuit itself is never built.
//
// Routing runs on the arena-based trial engine: per circuit, one
// immutable flat dependency DAG is shared read-only by all trial
// workers and each worker reuses a private trial arena across the
// whole schedule, so steady-state trials allocate O(1). Arenas are
// reused across calls as well: sabre keeps them in a pool, and each
// call's winner is copied out of its arena, so a report never aliases
// one. Input cleaning is one pass (circuit.Clean), and cleaning and
// consolidation size their outputs from their inputs and allocate them
// once. Preparation writes neither its input nor the blocks: the
// blocks' Weyl classes and mirrors are listed once, by the routing
// analysis (sabre.PreparedCircuit.Classes), the first time a call
// routes under a mirror policy or a depth bound. Mirror decisions, the
// trial bound and the depth metric then price by class slot through
// one read-only mirage.CostTable per routed call, built over that
// list, and only the winner's accepted mirrors are built as SWAP · U
// gates. Every grid is declared with the bound of its metric: a trial
// is cut once it cannot win, and the grid finishes as soon as a trial
// meets its floor (no SWAP, or the logical critical path at the
// cheapest classes), with the report an unbounded grid would give.
// TranspileBatch routes the layout rows of all its circuits on one
// work queue; only their preparation and measurement run per circuit.
package transpile

import (
	"fmt"
	"time"

	"repro/internal/circuit"
	"repro/internal/mirage"
	"repro/internal/polytope"
	"repro/internal/sabre"
	"repro/internal/topology"
	"repro/internal/weyl"
)

// Router selects the routing algorithm.
type Router int

// Router kinds.
const (
	SABRE Router = iota // stock SABRE baseline (no mirrors)
	MIRAGE
)

func (r Router) String() string {
	if r == MIRAGE {
		return "mirage"
	}
	return "sabre"
}

// Options configures the pipeline.
type Options struct {
	Router Router
	// Basis is the coverage set of the target basis gate; defaults to
	// sqrt-iSWAP.
	Basis *polytope.CoverageSet
	// DepthSelection post-selects trials on polytope-weighted depth
	// (MIRAGE-Depth); otherwise on inserted SWAPs (MIRAGE-Swaps /
	// stock SABRE).
	DepthSelection bool
	// FixedAggression forces one aggression level (0..3) on all
	// trials; nil uses the paper's 5/45/45/5 mix. Ignored for SABRE.
	FixedAggression *mirage.Aggression
	// Layout holds trial counts and SABRE parameters.
	Layout sabre.LayoutOptions
	// SkipTrivialLayout disables the VF2 swap-free check. The check
	// otherwise runs on every call, up to a 100,000-node search; only
	// a circuit with a logical qubit of more partners than any
	// physical qubit has neighbours is rejected without searching.
	SkipTrivialLayout bool
	// Parallelism bounds the layout-row worker count: 1 forces
	// serial execution, negative values mean one worker per CPU, and 0
	// defers to Layout.Parallelism (whose own zero default is also one
	// worker per CPU). Non-zero values override Layout.Parallelism.
	// Results are seed-deterministic at any setting.
	Parallelism int
	// RouteFn overrides the routing engine for step 4 of the pipeline;
	// nil uses sabre.FindBestRoutingPrepared in-process. This is the
	// seam the distributed dispatcher (internal/distrib) plugs into: its
	// RouteFn fans the layout rows out to remote workers and — because
	// the grid consumes scores in trial-index order and the winner is
	// replayed locally — returns a Result bit-identical to the
	// local engine's. Implementations receive the shared per-circuit
	// routing analysis (validated circuit plus prebuilt dependency
	// DAGs), the post-override LayoutOptions and the exact
	// metric/factory a local run would use. It is the seam of a single
	// call: a batch routes all its circuits' rows through its own
	// runner (TranspileBatch, TranspileBatchWith) and does not call it.
	RouteFn func(pc *sabre.PreparedCircuit, opts sabre.LayoutOptions,
		metric sabre.Metric, factory sabre.PolicyFactory) (*sabre.Result, error)
}

// Report is the transpilation outcome with the paper's metrics.
type Report struct {
	Name   string
	Router string
	// Routed is the raw router output (SWAPs and mirrored gates
	// marked). The depth and gate-count metrics below measure it as
	// reconsolidated: same-pair runs merged into blocks, router SWAPs
	// absorbed into neighbouring gates. They are computed without
	// building that circuit; a caller that wants it calls
	// circuit.ConsolidateBlocks(Routed).
	Routed        *circuit.Circuit
	InitialLayout *topology.Layout
	FinalLayout   *topology.Layout

	// DepthTime is the weighted critical path of the reconsolidated
	// circuit in normalised time units (iSWAP = 1.0); DepthPulses is
	// the same path counted in basis-gate applications (sqrt-iSWAP
	// pulse count, as in paper Fig. 8).
	DepthTime   float64
	DepthPulses float64
	// TotalBasisGates is the summed basis-application count of all its
	// 2Q blocks (paper Fig. 12b/d "Total 2Q Gates"), and Total2QBlocks
	// the number of those blocks.
	TotalBasisGates float64
	Total2QBlocks   int
	SwapsInserted   int
	MirrorsUsed     int
	// MirrorAcceptRate = MirrorsUsed / 2Q gates routed.
	MirrorAcceptRate float64
	// TrialsExecuted counts the routing-trial indices the scheduler
	// consumed; TrialsBudgeted is the full LayoutTrials x RoutingTrials
	// grid. Executed < budgeted means adaptive early-stop kicked in.
	// Trials the grid's floor left unrouted count as executed, as
	// trials its bound cut do: the count is the unbounded grid's.
	// Both are zero on the trivial-layout path (no routing ran).
	TrialsExecuted int
	TrialsBudgeted int
	TrivialLayout  bool
	// Runtime is the wall time of the call that produced the report.
	// Every report of a batch carries the whole batch's: its circuits'
	// rows share one pool of workers, so no circuit has a wall time of
	// its own.
	Runtime time.Duration
}

// PreparedCircuit is the amortised per-circuit front half of the
// pipeline: input cleaning, 2Q block consolidation (with Weyl
// coordinate annotation on every block) and the shared routing
// analysis (validated circuit/topology pairing, plus the forward and
// reversed dependency DAGs every routing trial reads and the blocks'
// class list, each built on its first use, so a circuit that embeds
// trivially builds none of them).
// Prepare once, then call TranspilePrepared for each configuration — a
// benchmark row running SABRE and MIRAGE over the same circuit, or a
// sweep over aggression levels or bases, pays for the analysis once
// instead of per run; each call prices the class list under its own
// basis.
//
// Like sabre.PreparedCircuit, a PreparedCircuit is immutable after
// PrepareCircuit returns and safe to share across goroutines:
// preparing writes neither Source nor Blocks, and no call writes them
// afterwards, so the calls sharing it may run in any order. The
// routing analysis's lazily built parts are each built once, under a
// sync.Once, by whichever call first routes.
type PreparedCircuit struct {
	Source *circuit.Circuit
	Topo   *topology.Topology
	// Blocks is the source after 3Q unrolling, identity removal and
	// SWAP elision, consolidated into coordinate-annotated 2Q blocks —
	// the circuit the router actually routes.
	Blocks *circuit.Circuit
	// Routing is the shared routing analysis over Blocks, or nil when
	// the pairing cannot route (see routingErr). It is nil-checked only
	// on the routed path: a circuit whose interaction graph embeds
	// trivially never needs it, so preparation failures are deferred
	// until routing is actually required.
	Routing    *sabre.PreparedCircuit
	routingErr error
	// elided maps each source wire to the Blocks wire that carries its
	// state at the end, undoing the SWAPs input cleaning removed.
	elided []int
}

// PrepareCircuit runs the per-circuit half of the pipeline (cleaning,
// consolidation, routing analysis) for reuse across TranspilePrepared
// calls. Routing-validation failures (too many qubits, disconnected
// topology) are captured, not returned: they only matter if a
// subsequent TranspilePrepared call actually needs to route, and the
// trivial-layout path must keep working without a routable pairing.
func PrepareCircuit(c *circuit.Circuit, topo *topology.Topology) *PreparedCircuit {
	// 1. Input cleaning.
	clean, elided := circuit.Clean(c)

	// 2. Consolidate to coordinate-annotated 2Q blocks.
	blocks := circuit.ConsolidateBlocks(clean)

	pc := &PreparedCircuit{Source: c, Topo: topo, Blocks: blocks, elided: elided}
	pc.Routing, pc.routingErr = sabre.PrepareCircuit(blocks, topo)
	return pc
}

// Transpile runs the full pipeline.
func Transpile(c *circuit.Circuit, topo *topology.Topology, opts Options) (*Report, error) {
	start := time.Now()
	return transpilePrepared(PrepareCircuit(c, topo), opts, start)
}

// TranspilePrepared runs the configuration half of the pipeline
// (trivial-layout check, routing, metric extraction) over a shared
// PreparedCircuit. Report.Runtime covers only this half; the amortised
// preparation cost is the caller's.
func TranspilePrepared(pc *PreparedCircuit, opts Options) (*Report, error) {
	return transpilePrepared(pc, opts, time.Now())
}

func transpilePrepared(pc *PreparedCircuit, opts Options, start time.Time) (*Report, error) {
	opts = opts.withDefaults()
	rep, err := begin(pc, opts)
	if err != nil {
		return nil, err
	}
	if !rep.TrivialLayout {
		metric, bound, factory := RoutingPolicy(opts, pc.Routing)
		route := sabre.FindBestRoutingPrepared
		if opts.RouteFn != nil {
			route = opts.RouteFn
		}
		res, err := route(pc.Routing, opts.Layout.WithBound(bound), metric, factory)
		if err != nil {
			return nil, fmt.Errorf("transpile: %w", err)
		}
		finish(rep, pc, res, opts.Basis)
	}
	rep.Runtime = time.Since(start)
	return rep, nil
}

// withDefaults fills in the default basis and the layout defaults, and
// lets a non-zero Parallelism override Layout.Parallelism.
func (o Options) withDefaults() Options {
	if o.Basis == nil {
		o.Basis = polytope.NewISwapRootCoverage(2)
	}
	o.Layout = o.Layout.WithDefaults()
	if o.Parallelism != 0 {
		o.Layout.Parallelism = o.Parallelism
	}
	return o
}

// begin rejects a fixed aggression level outside 0..3 and runs the
// trivial-layout check. When the interaction graph embeds in the
// topology, no routing is needed and SABRE/MIRAGE are not invoked
// (both transpilers behave identically here, paper Section V): the
// report comes back measured, with TrivialLayout set.
// Otherwise it is a report to route into, and only here does a failed
// routing preparation surface: a circuit that embeds trivially never
// hits it.
func begin(pc *PreparedCircuit, opts Options) (*Report, error) {
	if a := opts.FixedAggression; a != nil && (*a < mirage.AggressionNever || *a > mirage.AggressionAlways) {
		return nil, fmt.Errorf("transpile: fixed aggression %d outside 0..3", *a)
	}
	rep := &Report{Name: pc.Source.Name, Router: opts.Router.String()}
	if !opts.SkipTrivialLayout {
		if routed, layout, ok := tryTrivialLayout(pc.Blocks, pc.Topo); ok {
			rep.Routed = routed
			rep.InitialLayout = layout
			rep.FinalLayout = pc.sourceLayout(layout)
			rep.TrivialLayout = true
			fillMetrics(rep, opts.Basis)
			return rep, nil
		}
	}
	if pc.routingErr != nil {
		return nil, fmt.Errorf("transpile: %w", pc.routingErr)
	}
	return rep, nil
}

// finish fills rep from the routing result and measures it.
func finish(rep *Report, pc *PreparedCircuit, res *sabre.Result, basis *polytope.CoverageSet) {
	rep.Routed = res.Routed
	rep.InitialLayout = res.InitialLayout
	rep.FinalLayout = pc.sourceLayout(res.FinalLayout)
	rep.SwapsInserted = res.SwapsInserted
	rep.MirrorsUsed = res.MirrorsUsed
	rep.TrialsExecuted = res.TrialsExecuted
	rep.TrialsBudgeted = res.TrialsBudgeted
	if res.TwoQubitGates > 0 {
		rep.MirrorAcceptRate = float64(res.MirrorsUsed) / float64(res.TwoQubitGates)
	}
	fillMetrics(rep, basis)
}

// sourceLayout turns a final layout of Blocks wires into one of source
// wires: source wire w ends where Blocks wire elided[w] does.
func (pc *PreparedCircuit) sourceLayout(l *topology.Layout) *topology.Layout {
	l2p := make([]int, len(pc.elided))
	for w, e := range pc.elided {
		l2p[w] = l.L2P[e]
	}
	return topology.NewLayout(l2p, len(l.P2L))
}

// RoutingPolicy turns the routing choices of opts — router, selection
// metric, aggression and basis (nil: sqrt-iSWAP) — into the trial
// grid's metric, the lower bound on its score that lets the grid cut
// trials which cannot win, and the mirror-policy factory (nil for
// SABRE). Mirror decisions, the bound and the depth metric price by
// slot through one cost table built over pc.Classes(), the class list
// of the circuit the trials route; SABRE under the SWAP-count metric
// never builds it.
// It is the one recipe: the local pipeline and a distributed trial
// worker both build from it, so a worker's scores agree bit for bit
// with the coordinator's.
func RoutingPolicy(opts Options, pc *sabre.PreparedCircuit) (sabre.Metric, *sabre.Bound, sabre.PolicyFactory) {
	if !opts.DepthSelection && opts.Router != MIRAGE {
		return sabre.SwapCountMetric, sabre.SwapCountBound(), nil
	}
	basis := opts.Basis
	if basis == nil {
		basis = polytope.NewISwapRootCoverage(2)
	}
	// The cost table is per call, not part of the shared prepared
	// circuit: its prices depend on the basis, a per-call option. The
	// class list it prices is the prepared one.
	costs := mirage.NewCostTable(basis, pc.Classes())
	metric, bound := sabre.SwapCountMetric, sabre.SwapCountBound()
	if opts.DepthSelection {
		metric, bound = mirage.DepthMetric(costs), sabre.DepthBound(costs.Slots())
	}
	var factory sabre.PolicyFactory
	if opts.Router == MIRAGE {
		mix := mirage.DefaultMix
		if opts.FixedAggression != nil {
			mix = [4]float64{}
			mix[*opts.FixedAggression] = 1
		}
		factory = mirage.PolicyFactory(costs, mix)
	}
	return metric, bound, factory
}

// tryTrivialLayout attempts a SWAP-free embedding and, on success,
// relabels the circuit onto physical wires.
func tryTrivialLayout(c *circuit.Circuit, topo *topology.Topology) (*circuit.Circuit, *topology.Layout, bool) {
	pairs := c.InteractionPairs()
	ig := topology.InteractionGraph{NumQubits: c.NumQubits}
	for p := range pairs {
		ig.Pairs = append(ig.Pairs, p)
	}
	layout, ok := topology.FindSwapFreeLayout(ig, topo, 100000)
	if !ok {
		return nil, nil, false
	}
	out := circuit.New(c.Name+"_trivial", topo.NumQubits)
	for _, op := range c.Ops {
		mapped := op
		mapped.Qubits = make([]int, len(op.Qubits))
		for i, q := range op.Qubits {
			mapped.Qubits[i] = layout.Phys(q)
		}
		out.Append(mapped)
	}
	return out, layout, true
}

// fillMetrics measures rep.Routed as reconsolidated (paper Section V:
// "we incorporate Qiskit's remaining optimizations and reconsolidate
// the circuit"). Reconsolidation is what lets the *baseline* absorb a
// router SWAP into an adjacent same-pair gate (the iSWAP between
// pulses 7 and 9 of paper Fig. 8b), so the comparison against MIRAGE
// is fair. The circuit itself is never built: one circuit.BlockDepth
// pass, the one the trial metric and bound run, borrowed from the pool
// the metric borrows from, yields its depth, its summed block price
// and its block count.
func fillMetrics(rep *Report, basis *polytope.CoverageSet) {
	p := circuit.GetBlockDepth()
	rep.DepthTime = p.Depth(rep.Routed, func(c weyl.Coordinate) float64 { return basis.CostOf(c, false) })
	rep.DepthPulses = rep.DepthTime / basis.PerGateCost
	rep.TotalBasisGates = p.Total() / basis.PerGateCost
	rep.Total2QBlocks = p.Blocks()
	circuit.PutBlockDepth(p)
}

// Summary renders the report as a one-line table row.
func (r *Report) Summary() string {
	return fmt.Sprintf("%-20s %-7s depth=%7.2f pulses=%6.1f gates=%7.1f 2q=%4d swaps=%3d mirrors=%3d (%.1f%%) trials=%d/%d trivial=%v %.0fms",
		r.Name, r.Router, r.DepthTime, r.DepthPulses, r.TotalBasisGates,
		r.Total2QBlocks, r.SwapsInserted, r.MirrorsUsed, 100*r.MirrorAcceptRate,
		r.TrialsExecuted, r.TrialsBudgeted,
		r.TrivialLayout, float64(r.Runtime.Milliseconds()))
}
