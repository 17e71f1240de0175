// Package transpile assembles the full pass pipeline of the paper's
// Section V: input cleaning (3Q unrolling, identity removal, SWAP
// elision), 2Q block consolidation with coordinate annotation, a
// VF2-style trivial-layout check, SABRE or MIRAGE routing with layout
// and routing trials, and metric extraction (polytope-weighted depth,
// total basis-gate cost, SWAP count, mirror acceptance rate).
//
// Routing runs on the arena-based trial engine: per circuit, one
// immutable flat dependency DAG is shared read-only by all trial
// workers and each worker reuses a private trial arena across the
// whole schedule, so steady-state trials allocate O(1). Mirror
// decisions and the depth metric price blocks through one read-only
// mirage.CostTable per routed call, built over the routed blocks.
// TranspileBatch composes the same way — circuit-level fan-out on the
// outside, arena reuse inside each circuit's trial grid.
package transpile

import (
	"fmt"
	"time"

	"repro/internal/circuit"
	"repro/internal/mirage"
	"repro/internal/polytope"
	"repro/internal/sabre"
	"repro/internal/topology"
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
	// FixedAggression forces one aggression level on all trials; nil
	// uses the paper's 5/45/45/5 mix. Ignored for SABRE.
	FixedAggression *mirage.Aggression
	// Layout holds trial counts and SABRE parameters.
	Layout sabre.LayoutOptions
	// SkipTrivialLayout disables the VF2 swap-free check (the check is
	// also skipped automatically for circuits that need routing).
	SkipTrivialLayout bool
	// Parallelism bounds the layout-row worker count: 1 forces
	// serial execution, negative values mean one worker per CPU, and 0
	// defers to Layout.Parallelism (whose own zero default is also one
	// worker per CPU). Non-zero values override Layout.Parallelism.
	// Results are seed-deterministic at any setting.
	Parallelism int
	// ConvergencePatience, when positive, lets the trial grid stop
	// early: it ends after this many consecutive non-improving trial
	// indices. The stop rule
	// is defined on trial indices, so results stay seed-deterministic
	// at any Parallelism. Non-zero values override
	// Layout.ConvergencePatience; 0 defers to it.
	ConvergencePatience int
	// RouteFn overrides the routing engine for step 4 of the pipeline;
	// nil uses sabre.FindBestRoutingPrepared in-process. This is the
	// seam the distributed dispatcher (internal/distrib) plugs into: its
	// RouteFn fans the layout rows out to remote workers and — because
	// the grid consumes scores in trial-index order and the winner is
	// replayed locally — returns a Result bit-identical to the
	// local engine's. Implementations receive the shared per-circuit
	// routing analysis (validated circuit plus prebuilt dependency
	// DAGs), the post-override LayoutOptions and the exact
	// metric/factory a local run would use.
	RouteFn func(pc *sabre.PreparedCircuit, opts sabre.LayoutOptions,
		metric sabre.Metric, factory sabre.PolicyFactory) (*sabre.Result, error)
}

// Report is the transpilation outcome with the paper's metrics.
type Report struct {
	Name   string
	Router string
	// Routed is the raw router output (SWAPs and mirrored gates
	// marked); Reconsolidated merges same-pair runs — including SWAPs
	// absorbed into neighbouring gates — and is what the depth and
	// gate-count metrics are measured on.
	Routed         *circuit.Circuit
	Reconsolidated *circuit.Circuit
	InitialLayout  *topology.Layout
	FinalLayout    *topology.Layout

	// DepthTime is the weighted critical path in normalised time units
	// (iSWAP = 1.0); DepthPulses is the same path counted in basis-gate
	// applications (sqrt-iSWAP pulse count, as in paper Fig. 8).
	DepthTime   float64
	DepthPulses float64
	// TotalBasisGates is the summed basis-application count of all 2Q
	// blocks (paper Fig. 12b/d "Total 2Q Gates").
	TotalBasisGates float64
	Total2QBlocks   int
	SwapsInserted   int
	MirrorsUsed     int
	// MirrorAcceptRate = MirrorsUsed / 2Q gates routed.
	MirrorAcceptRate float64
	// TrialsExecuted counts the routing-trial indices the scheduler
	// consumed; TrialsBudgeted is the full LayoutTrials x RoutingTrials
	// grid. Executed < budgeted means adaptive early-stop kicked in.
	// Both are zero on the trivial-layout path (no routing ran).
	TrialsExecuted int
	TrialsBudgeted int
	TrivialLayout  bool
	Runtime        time.Duration
}

// PreparedCircuit is the amortised per-circuit front half of the
// pipeline: input cleaning, 2Q block consolidation (with Weyl
// coordinate annotation on every block) and the shared routing
// analysis (validated circuit/topology pairing plus the forward and
// reversed dependency DAGs every routing trial reads). Prepare once,
// then call TranspilePrepared for each configuration — a benchmark row
// running SABRE and MIRAGE over the same circuit, or a sweep over
// aggression levels, pays for the analysis once instead of per run.
//
// Like sabre.PreparedCircuit, a PreparedCircuit is immutable after
// PrepareCircuit returns and safe to share across goroutines.
type PreparedCircuit struct {
	Source *circuit.Circuit
	Topo   *topology.Topology
	// Clean is the source after 3Q unrolling, identity removal and SWAP
	// elision; Blocks is Clean consolidated into coordinate-annotated
	// 2Q blocks — the circuit the router actually routes.
	Clean  *circuit.Circuit
	Blocks *circuit.Circuit
	// Routing is the shared routing analysis over Blocks, or nil when
	// the pairing cannot route (see routingErr). It is nil-checked only
	// on the routed path: a circuit whose interaction graph embeds
	// trivially never needs it, so preparation failures are deferred
	// until routing is actually required.
	Routing    *sabre.PreparedCircuit
	routingErr error
}

// PrepareCircuit runs the per-circuit half of the pipeline (cleaning,
// consolidation, routing analysis) for reuse across TranspilePrepared
// calls. Routing-validation failures (too many qubits, disconnected
// topology) are captured, not returned: they only matter if a
// subsequent TranspilePrepared call actually needs to route, and the
// trivial-layout path must keep working without a routable pairing.
func PrepareCircuit(c *circuit.Circuit, topo *topology.Topology) *PreparedCircuit {
	// 1. Input cleaning.
	clean := circuit.UnrollTo2Q(c)
	clean = circuit.RemoveIdentities(clean)
	clean, _ = circuit.ElideSwaps(clean)

	// 2. Consolidate to coordinate-annotated 2Q blocks.
	blocks := circuit.ConsolidateBlocks(clean)

	pc := &PreparedCircuit{Source: c, Topo: topo, Clean: clean, Blocks: blocks}
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
	if opts.Basis == nil {
		opts.Basis = polytope.NewISwapRootCoverage(2)
	}
	opts.Layout = opts.Layout.WithDefaults()
	if opts.Parallelism != 0 {
		opts.Layout.Parallelism = opts.Parallelism
	}
	if opts.ConvergencePatience != 0 {
		opts.Layout.ConvergencePatience = opts.ConvergencePatience
	}

	rep := &Report{
		Name:   pc.Source.Name,
		Router: opts.Router.String(),
	}

	// 3. Trivial layout: if the interaction graph embeds in the
	// topology, no routing is needed and SABRE/MIRAGE are not invoked
	// (both transpilers behave identically here, paper Section V).
	if !opts.SkipTrivialLayout {
		if routed, layout, ok := tryTrivialLayout(pc.Blocks, pc.Topo); ok {
			rep.Routed = routed
			rep.InitialLayout = layout
			rep.FinalLayout = layout.Copy()
			rep.TrivialLayout = true
			fillMetrics(rep, opts.Basis)
			rep.Runtime = time.Since(start)
			return rep, nil
		}
	}

	// 4. Routed path. Only here does a failed routing preparation
	// surface: circuits that embedded trivially above never hit it.
	if pc.routingErr != nil {
		return nil, fmt.Errorf("transpile: %w", pc.routingErr)
	}
	// The cost table is per call, not part of the shared prepared
	// circuit: its prices depend on the basis, a per-call option.
	var costs *mirage.CostTable
	if opts.DepthSelection || opts.Router == MIRAGE {
		costs = mirage.NewCostTable(opts.Basis, pc.Blocks)
	}
	// Each metric comes with the lower bound on its score that lets the
	// trial grid cut trials which cannot win; results are unchanged.
	metric, bound := sabre.SwapCountMetric, sabre.SwapCountBound()
	if opts.DepthSelection {
		metric, bound = mirage.DepthMetric(costs), sabre.DepthBound(costs.CostOf)
	}
	var factory sabre.PolicyFactory
	if opts.Router == MIRAGE {
		if opts.FixedAggression != nil {
			factory = mirage.FixedPolicyFactory(costs, *opts.FixedAggression)
		} else {
			factory = mirage.PolicyFactory(costs, mirage.DefaultMix)
		}
	}
	route := sabre.FindBestRoutingPrepared
	if opts.RouteFn != nil {
		route = opts.RouteFn
	}
	res, err := route(pc.Routing, opts.Layout.WithBound(bound), metric, factory)
	if err != nil {
		return nil, fmt.Errorf("transpile: %w", err)
	}
	rep.Routed = res.Routed
	rep.InitialLayout = res.InitialLayout
	rep.FinalLayout = res.FinalLayout
	rep.SwapsInserted = res.SwapsInserted
	rep.MirrorsUsed = res.MirrorsUsed
	rep.TrialsExecuted = res.TrialsExecuted
	rep.TrialsBudgeted = res.TrialsBudgeted
	if res.TwoQubitGates > 0 {
		rep.MirrorAcceptRate = float64(res.MirrorsUsed) / float64(res.TwoQubitGates)
	}
	fillMetrics(rep, opts.Basis)
	rep.Runtime = time.Since(start)
	return rep, nil
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

func fillMetrics(rep *Report, basis *polytope.CoverageSet) {
	// Reconsolidate before measuring (paper Section V: "we incorporate
	// Qiskit's remaining optimizations and reconsolidate the circuit").
	// This is what lets the *baseline* absorb a router SWAP into an
	// adjacent same-pair gate (the iSWAP between pulses 7 and 9 of
	// paper Fig. 8b), so the comparison against MIRAGE is fair.
	rep.Reconsolidated = circuit.ConsolidateBlocks(rep.Routed)
	w := mirage.GateWeight(basis)
	rep.DepthTime = rep.Reconsolidated.Depth(w)
	rep.DepthPulses = rep.DepthTime / basis.PerGateCost
	rep.TotalBasisGates = rep.Reconsolidated.TotalCost(w) / basis.PerGateCost
	rep.Total2QBlocks = rep.Reconsolidated.Count2Q()
}

// Summary renders the report as a one-line table row.
func (r *Report) Summary() string {
	return fmt.Sprintf("%-20s %-7s depth=%7.2f pulses=%6.1f gates=%7.1f 2q=%4d swaps=%3d mirrors=%3d (%.1f%%) trials=%d/%d trivial=%v %.0fms",
		r.Name, r.Router, r.DepthTime, r.DepthPulses, r.TotalBasisGates,
		r.Total2QBlocks, r.SwapsInserted, r.MirrorsUsed, 100*r.MirrorAcceptRate,
		r.TrialsExecuted, r.TrialsBudgeted,
		r.TrivialLayout, float64(r.Runtime.Milliseconds()))
}
