// Package sabre implements the SABRE qubit routing algorithm (Li,
// Ding, Xie — ASPLOS 2019) that both the Qiskit baseline and MIRAGE
// build on: a greedy front-layer router with a lookahead window,
// decay-based parallelism promotion, and iterative forward-backward
// layout refinement with independent trials.
//
// Route runs on a delta-scoring engine (routingState): each stall
// builds flat scoring sets — the front and lookahead pairs, their
// distance sums and per-qubit partner slots under the live layout —
// and scores each SWAP candidate by delta, revisiting only the pairs
// on the swapped qubits. The logical pair lists are rebuilt only when
// a gate executed. The naive rebuild-everything formulation is kept in
// the tests as RouteReference (reference_test.go), the executable
// specification the engine is property-tested against.
//
// The trial hot path allocates nothing per steady-state trial: the
// dependency DAG is built once per circuit (PrepareCircuit) as an
// immutable circuit.FlatDAG shared read-only by every worker, and all
// mutable trial state — traversal, layout, decay, scoring sets,
// candidate dedup stamps, the routed-op buffer — lives in a per-worker
// trialArena reused across the whole grid, and across calls: arenas
// come from a process-wide pool and go back to it. The grid runs on the
// dispatch work queue, one layout row per item: a row refines one
// layout and routes its trials on one arena. RunGrids puts the rows of
// several grids on one local queue (dispatch.RunLocal), interleaved so
// every grid's first row comes before any second row, rebinding each
// worker's arena to the circuit of its row. The
// distributed transport (internal/distrib) leases whole rows to
// workers, which refine with TrialRunner.RefineLayout and route with
// TrialRunner.GridTrial, and returns one score per trial. Either way
// each Grid consumes its scores in trial order and replays the winner.
//
// The router exposes a MirrorPolicy hook: every two-qubit gate that
// becomes executable is offered to the policy, which may replace it
// with its mirror (gate followed by a virtual SWAP). The policy sees
// the gate, the slots of its class and of its mirror's in the
// circuit's class list and the two routing costs the engine evaluates
// in place (MirrorContext). The baseline uses no policy; package
// mirage supplies the paper's polytope-cost policy.
package sabre

import (
	"math/rand"

	"repro/internal/circuit"
	"repro/internal/topology"
)

// Options holds the SABRE parameters; defaults follow the paper's
// Section V setup.
type Options struct {
	ExtendedSetSize    int     // lookahead window |E| (default 20)
	ExtendedSetWeight  float64 // window weight W (default 0.5)
	DecayRate          float64 // decay increment (default 0.001)
	DecayResetInterval int     // reset decay every N swap selections (default 5)
	MaxSteps           int     // safety bound on swap insertions (default 10000 + 100*ops)
}

// WithDefaults fills unset fields with the paper's values.
func (o Options) WithDefaults() Options {
	if o.ExtendedSetSize <= 0 {
		o.ExtendedSetSize = 20
	}
	if o.ExtendedSetWeight <= 0 {
		o.ExtendedSetWeight = 0.5
	}
	if o.DecayRate <= 0 {
		o.DecayRate = 0.001
	}
	if o.DecayResetInterval <= 0 {
		o.DecayResetInterval = 5
	}
	return o
}

// MirrorContext is what a MirrorPolicy sees for an executable 2Q gate:
// the three inputs of the paper's mirror decision (Algorithm 2) — the
// gate, its mirror's class and the two routing costs — with both
// classes given as slots of the circuit's class list. The
// context is owned by the router's trial arena and rebound in place
// for every decision: the whole struct, RoutingCosts included, is
// valid only for the duration of the Decide call. Policies must not
// retain the pointer or defer evaluations; a retained context would
// silently describe a later gate.
type MirrorContext struct {
	Op circuit.Op // the logical gate (Coord annotated when available)
	// Classes is the class list of the circuit being routed
	// (PreparedCircuit.Classes); Class and MirrorClass are the slots
	// of Op's class and of its mirror's in it. The mirror's coordinate,
	// Classes.Coords[MirrorClass], is weyl.Mirror(circuit.OpCoordinate(Op)),
	// and the router annotates an accepted mirror with it. A policy
	// reads its prices by slot from a table over the same list.
	Classes            *circuit.Classes
	Class, MirrorClass int32
	// RoutingCosts returns the *summed* SABRE distance heuristic (total
	// front distance + weighted total lookahead distance) at the
	// current layout and at the layout after the mirror's SWAP on the
	// gate's two physical qubits. Sums — not the averaged form used for
	// SWAP selection — keep the units absolute, so one eliminated hop
	// is worth one future SWAP regardless of how many gates are
	// pending; this is what makes routing benefit commensurable with
	// the decomposition-cost delta in the mirror decision. The front is
	// the other ready 2Q gates plus the gate's direct 2Q successors,
	// the lookahead the 2Q ops of the extended window. The router
	// evaluates both points only when called, so a policy that never
	// asks pays nothing.
	RoutingCosts func() (current, swapped float64)
}

// MirrorPolicy decides whether to substitute the mirror gate
// (op + mirage SWAP). A nil policy never mirrors.
type MirrorPolicy interface {
	Decide(ctx *MirrorContext) bool
}

// Result is the outcome of one routing run.
type Result struct {
	Routed        *circuit.Circuit // ops on physical wires
	InitialLayout *topology.Layout
	FinalLayout   *topology.Layout
	SwapsInserted int
	MirrorsUsed   int
	TwoQubitGates int
	// TrialsExecuted / TrialsBudgeted describe the trial schedule that
	// produced this result (set by FindBestRoutingPrepared: executed counts the
	// trial indices the scheduler consumed, budgeted the full grid).
	// Zero for direct Route calls.
	TrialsExecuted int
	TrialsBudgeted int

	// lazy marks a Result whose mirrored ops still carry their source
	// gates (see mirrorTable); none leaves the package.
	lazy bool
}

// Route maps the logical circuit onto the topology starting from the
// given layout, inserting SWAPs as needed. All ops must act on at most
// two qubits. The input layout is not mutated.
//
// Each call builds the circuit's flat DAG (and, under a policy, its
// class list) and a fresh trial arena; the returned Result owns its
// buffers, and its accepted mirrors carry their mirror gates. The
// class list is the call's own, so a policy that prices by class list
// (mirage) must route through TrialRunner on the PreparedCircuit its
// prices were listed from. Callers routing the same circuit repeatedly
// should use TrialRunner too, which shares the DAG and reuses the
// arena so steady-state trials allocate O(1).
func Route(c *circuit.Circuit, topo *topology.Topology, initial *topology.Layout,
	opts Options, rng *rand.Rand, policy MirrorPolicy) (*Result, error) {

	if err := validateRoutable(c, topo); err != nil {
		return nil, err
	}
	fd := circuit.BuildFlatDAG(c)
	// The arena is transient, so handing its buffers to the caller via
	// the Result is safe: nothing resets them afterwards.
	res, err := newTrialArena().route(fd, newMirrorTable(c), topo, initial, opts, rng, policy, nil, false)
	if err != nil {
		return nil, err
	}
	if res.lazy {
		finishMirrors(res.Routed.Ops)
		res.lazy = false
	}
	return res, nil
}

// RandomLayout places the circuit's logical qubits on distinct random
// physical qubits.
func RandomLayout(numLogical int, topo *topology.Topology, rng *rand.Rand) *topology.Layout {
	perm := rng.Perm(topo.NumQubits)
	return topology.NewLayout(perm[:numLogical], topo.NumQubits)
}

// Metric scores a routing result; lower is better. Metrics must be
// deterministic functions of the Result: FindBestRoutingPrepared evaluates
// them inside trial workers on arena-backed Results that are only
// valid for the duration of the call (the winning trial is replayed to
// materialise the returned Result), so a metric must neither retain
// the Result nor depend on anything but its contents. A metric must
// read a mirrored op's class from its Coord (circuit.OpCoordinate) or
// Class, never from its gate: inside the grid an accepted mirror
// carries its source gate, and only the returned Result carries the
// mirror gate SWAP · U.
type Metric func(*Result) float64

// SwapCountMetric is the stock Qiskit-SABRE post-selection metric: the
// number of inserted SWAP gates.
func SwapCountMetric(r *Result) float64 { return float64(r.SwapsInserted) }

// LayoutOptions controls the iterative layout search.
type LayoutOptions struct {
	Routing       Options
	LayoutTrials  int // independent random starts (default 20)
	RoutingTrials int // independent routings of the final pass (default 20)
	FwdBwdPasses  int // forward/backward refinement rounds (default 4)
	Seed          int64
	// Parallelism bounds the worker count used to run layout rows
	// concurrently: 0 means one worker per CPU (GOMAXPROCS), 1 forces
	// serial execution. Every trial draws its randomness from its own
	// deterministically seeded generator, so the result is
	// bit-identical for a given Seed at any worker count.
	Parallelism int
	// ConvergencePatience, when positive, stops the grid once this many
	// consecutive trial *indices* fail to improve the best score. The
	// stop rule consumes trial results in index order — never
	// wall-clock arrival order — so the set of trials contributing to
	// the answer is a prefix [0, T) that is identical at any
	// Parallelism. A row that starts once every earlier row was
	// consumed stops routing at T, a row started earlier returns once
	// the grid has stopped, trials routed past T are discarded, and
	// rows past T are never refined. 0 keeps the
	// paper's fixed LayoutTrials x RoutingTrials grid.
	ConvergencePatience int

	// bound, set through WithBound, lets the grid cut trials that
	// cannot win. It is unexported so the options' gob wire form (the
	// distributed trial spec) does not carry it.
	bound *Bound
}

// WithDefaults fills unset fields with the paper's configuration.
func (o LayoutOptions) WithDefaults() LayoutOptions {
	o.Routing = o.Routing.WithDefaults()
	if o.LayoutTrials <= 0 {
		o.LayoutTrials = 20
	}
	if o.RoutingTrials <= 0 {
		o.RoutingTrials = 20
	}
	if o.FwdBwdPasses <= 0 {
		o.FwdBwdPasses = 4
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// PolicyFactory builds a mirror policy for a given trial index; nil
// factories (baseline SABRE) yield nil policies. Trial indices let
// MIRAGE distribute aggression levels across trials. Factories must be
// deterministic in the trial index: FindBestRoutingPrepared replays the
// winning trial — same index, same seed — to materialise its Result.
type PolicyFactory func(trial int) MirrorPolicy
