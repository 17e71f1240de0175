package sabre

import (
	"fmt"
	"math"
	"math/rand"
	"sync"

	"repro/internal/circuit"
	"repro/internal/gates"
	"repro/internal/rng"
	"repro/internal/topology"
	"repro/internal/weyl"
)

// routerSwapGate is the shared immutable SWAP gate the router emits;
// gates.SWAP() builds a fresh matrix per call, which would be the last
// per-swap allocation on the arena path. Gates are immutable by
// convention, so one instance serves every trial.
var routerSwapGate = gates.SWAP()

// trialArena owns every mutable buffer one routing trial needs: the
// engine state (routingState — traversal, layout, decay, scoring sets,
// candidate dedup stamps), the reusable routed-op buffer, the layout
// copies a Result exposes, the per-trial generator (math/rand's stream
// from the shared rng.Source, reseeded in O(1) per trial), the depth
// pass a score bound feeds, and a pre-bound MirrorContext whose
// RoutingCosts closure is allocated once per arena instead of once per
// decision.
//
// Ownership rules (the seam a layout row and a distributed worker run on):
// the circuit.FlatDAG and Topology a trial reads are immutable and
// shared across any number of arenas; the arena itself is single-
// goroutine and everything a route call returns — the Result, its
// Routed circuit, its layouts — aliases arena buffers and is valid
// only until the next route call on the same arena. Arenas outlive the
// call that used them: RunGrids and Grid.Result take theirs from a
// process-wide pool and put them back (getArena, putArena), and
// Grid.Result copies its Result out first (Result.own), so no Result
// that leaves the package aliases a pooled arena. A warm grid trial
// allocates nothing, mirror substitutions included: an accepted mirror
// emits its source gate with the class and coordinate prepared once
// per circuit (mirrorTable), so the only allocations left on the trial
// path are whatever the policy itself makes.
type trialArena struct {
	st  routingState
	out circuit.Circuit // reusable routed circuit (ops + qubit slices reused)

	initLayout topology.Layout // copy of the trial's initial layout
	h1, h2     topology.Layout // layout handoff buffers (fwd/bwd refinement)

	res   Result
	ctx   MirrorContext
	rng   *rand.Rand
	depth circuit.BlockDepth // the depth bound's pass over the emitted ops

	used int // most ops any route emitted since the last release: the slots release clears
}

// newTrialArena builds an empty arena. Buffers grow on first use and
// are reused afterwards; binding the same (or a smaller) circuit and
// topology again allocates nothing.
func newTrialArena() *trialArena {
	a := &trialArena{rng: rand.New(rng.NewSource(1))}
	// RoutingCosts closes over the embedded routing state once; a
	// decision only rearms it (armMirror).
	a.ctx.RoutingCosts = a.st.mirrorCosts
	return a
}

// arenas holds the trial arenas between calls, so a call routes on
// buffers an earlier call already grew instead of growing its own.
var arenas = sync.Pool{New: func() any { return newTrialArena() }}

// getArena takes an arena from the pool.
func getArena() *trialArena { return arenas.Get().(*trialArena) }

// putArena returns a to the pool. Every Result routed on a is invalid
// afterwards.
func putArena(a *trialArena) {
	a.release()
	arenas.Put(a)
}

// release drops the arena's references to the last call's circuit,
// DAG, topology, prices and emitted gates, so a pooled arena keeps
// only its own buffers alive.
func (a *trialArena) release() {
	st := &a.st
	st.c, st.topo, st.dist, st.fd, st.tr.D = nil, nil, nil, nil, nil
	ops := a.out.Ops[:max(a.used, len(a.out.Ops))]
	for i := range ops {
		ops[i].Gate, ops[i].Coord = gates.Gate{}, nil
	}
	a.used = 0
	a.out.Name, a.out.Ops, a.out.Classes = "", a.out.Ops[:0], nil
	a.res = Result{}
	a.ctx.Op, a.ctx.Classes = circuit.Op{}, nil
	a.depth.Start(0, nil) // drops the depth bound's cost
}

// nextOp extends the reusable op buffer by one slot, recycling the
// slot's previous qubit slice.
func (a *trialArena) nextOp() *circuit.Op {
	n := len(a.out.Ops)
	if n < cap(a.out.Ops) {
		a.out.Ops = a.out.Ops[:n+1]
	} else {
		a.out.Ops = append(a.out.Ops, circuit.Op{})
	}
	return &a.out.Ops[n]
}

// emit1 appends a single-qubit op on physical wire q. emit1 and emit2
// assign every field of the slot in place: a composite literal would
// build a temporary Op and copy it in.
func (a *trialArena) emit1(g gates.Gate, q int) {
	op := a.nextOp()
	qs := op.Qubits
	if cap(qs) < 1 {
		qs = make([]int, 1)
	}
	qs = qs[:1]
	qs[0] = q
	op.Gate, op.Qubits, op.Coord, op.Class, op.Mirrored, op.RouterSwap = g, qs, nil, 0, false, false
}

// emit2 appends a two-qubit op of class slot class on physical wires
// (qa, qb).
func (a *trialArena) emit2(g gates.Gate, qa, qb int, coord *weyl.Coordinate, class int32, mirrored, routerSwap bool) {
	op := a.nextOp()
	qs := op.Qubits
	if cap(qs) < 2 {
		qs = make([]int, 2)
	}
	qs = qs[:2]
	qs[0], qs[1] = qa, qb
	op.Gate, op.Qubits, op.Coord, op.Class, op.Mirrored, op.RouterSwap = g, qs, coord, class, mirrored, routerSwap
}

// route runs one SABRE routing trial of fd's circuit over the arena,
// starting from initial. The returned Result aliases arena buffers:
// it is valid until the next route call and must be copied out
// (Result.own) to outlive it. The caller is responsible
// for having validated the circuit/topology pair once (validateRoutable).
//
// The loop is bit-identical to RouteReference, the executable
// specification kept in the tests (reference_test.go): same execution
// schedule (FlatTraversal reproduces the naive traversal order), same
// candidate enumeration order, same score comparisons and tie-breaking
// RNG consumption.
//
// mirrors is the mirror data of fd's circuit (mirrorTable). A route
// under a policy needs it; the routes of layout refinement, whose
// Results never leave the package, pass nil. The route stamps its ops
// and its routed circuit with the circuit's class list exactly when it
// runs under a policy or a depth bound. An accepted mirror is emitted
// as its source gate with Mirrored set: finishMirrors must build its
// mirror gate before the Result leaves the package.
//
// A non-nil bound stops the route with errTrialCut as soon as the
// score bound it tracks over the emitted ops reaches bound.beat.
func (a *trialArena) route(fd *circuit.FlatDAG, mirrors *mirrorTable, topo *topology.Topology,
	initial *topology.Layout, rng *rand.Rand, policy MirrorPolicy, bound *trialBound) (*Result, error) {

	c := fd.Circ
	maxSteps := maxSwaps(len(c.Ops))

	st := &a.st
	st.bind(fd, topo, initial)
	var cls *circuit.Classes // non-nil: stamp emitted 2Q ops with class slots
	a.out.Name = c.Name
	if mirrors != nil {
		a.out.Name = mirrors.name
		if policy != nil || (bound != nil && bound.slots != nil) {
			cls = mirrors.getClasses()
		}
	}
	swapClass := int32(0)
	if cls != nil {
		swapClass = circuit.SwapSlot
	}
	a.out.NumQubits, a.out.Classes = topo.NumQubits, cls
	a.used = max(a.used, len(a.out.Ops))
	a.out.Ops = a.out.Ops[:0]
	a.initLayout.CopyFrom(initial)
	a.res = Result{InitialLayout: &a.initLayout}
	a.ctx.Classes = cls
	var bd *circuit.BlockDepth // non-nil: feed the depth bound every emitted 2Q op
	if bound != nil && bound.slots != nil {
		// Every run of the route carries a slot, so the pass needs no
		// coordinate cost.
		bd = &a.depth
		bd.Start(topo.NumQubits, nil)
		bd.PriceSlots(bound.slots)
	}

	// Execute/stall loop, worklist form. The naive formulation (the
	// tests' RouteReference) rescans a snapshot of the whole ready set
	// per pass until a pass makes no progress: O(|ready|) re-examinations per
	// executed gate, almost all of them no-ops. The worklist carries
	// only the ops whose executability can actually have changed:
	//
	//   - wlCur is the current pass; executing an op appends its newly
	//     ready successors (tr.LastReady, fed by in-degree decrements on
	//     the shared FlatDAG) to wlNext — the next pass, exactly the
	//     snapshot boundary the reference's per-pass ready copy imposes.
	//     Ready-list insertion order is seq order, so the pass order
	//     matches the reference snapshot order op for op.
	//   - A deferred (ready but uncoupled) gate is simply left in the
	//     ready set. Re-examining it is pure — no RNG, no policy call,
	//     no emission — so skipping the re-scan cannot diverge; it only
	//     needs re-queueing when a committed swap moves its endpoints.
	//   - A mirror swap exchanges the executing gate's own endpoints,
	//     and at most one ready op occupies any wire, so no *other*
	//     ready gate touches the swapped qubits: mid-pass mirrors only
	//     affect the gate's own successors, which arrive via LastReady.
	//   - A stall swap on (a, b) can change executability only for the
	//     (<= 2) deferred gates with a wire on a or b, found in O(1)
	//     through the per-wire ready index and seeded (in ready order)
	//     as the next pass.
	//
	// Net effect: each op is examined once when it becomes ready plus
	// once per committed swap touching it — the reference's execution
	// schedule, minus the redundant re-examinations it proves are no-ops.
	st.wlCur = st.tr.AppendReady(st.wlCur[:0])
	steps := 0
	for {
		for len(st.wlCur) > 0 {
			st.wlNext = st.wlNext[:0]
			for _, idx32 := range st.wlCur {
				if !st.tr.Pending(idx32) {
					continue // stale queue entry (already executed)
				}
				idx := int(idx32)
				op := &c.Ops[idx]
				switch len(op.Qubits) {
				case 1:
					a.emit1(op.Gate, st.layout.Phys(op.Qubits[0]))
					st.execute(idx)
					st.wlNext = append(st.wlNext, st.tr.LastReady...)
				case 2:
					pa, pb := st.layout.Phys(op.Qubits[0]), st.layout.Phys(op.Qubits[1])
					if !topo.HasEdge(pa, pb) {
						continue // deferred: stays in the ready set until a swap moves it
					}
					class := int32(0)
					if cls != nil {
						class = mirrors.slot[idx]
					}
					mirrored := false
					if policy != nil {
						st.armMirror(idx, pa, pb)
						a.ctx.Op, a.ctx.Class, a.ctx.MirrorClass = *op, class, cls.Mirror[class]
						mirrored = policy.Decide(&a.ctx)
					}
					coord := op.Coord
					if mirrored {
						class = cls.Mirror[class]
						coord = &cls.Coords[class]
						a.res.MirrorsUsed++
					}
					a.emit2(op.Gate, pa, pb, coord, class, mirrored, false)
					a.res.TwoQubitGates++
					if bd != nil {
						bd.Push(a.out.Ops, len(a.out.Ops)-1)
						if bound.depthReached(bd, pa, pb, idx) {
							return nil, errTrialCut
						}
					}
					if mirrored {
						// The gate's virtual SWAP moves only the layout:
						// the only ready gate on (pa, pb) is this one, and
						// its own distance is symmetric, so ready2QSum
						// holds; execute marks the scoring sets stale.
						st.layout.SwapPhysical(pa, pb)
					}
					st.execute(idx)
					st.wlNext = append(st.wlNext, st.tr.LastReady...)
					st.resetDecay()
				}
			}
			st.wlCur, st.wlNext = st.wlNext, st.wlCur
		}
		if st.tr.Done() {
			break
		}

		// Stalled: score every candidate SWAP against the stall's scoring
		// sets and select serially (identical comparisons and RNG
		// consumption to the reference, so the chosen SWAP sequence is
		// bit-identical).
		chosen, ok := st.chooseSwap(rng)
		if !ok {
			return nil, fmt.Errorf("sabre: stalled with no swap candidates (disconnected topology?)")
		}
		a.emit2(routerSwapGate, chosen.a, chosen.b, nil, swapClass, false, true)
		st.applySwap(chosen.a, chosen.b)
		// Seed the next execute phase with the deferred gates the swap
		// touched — the only ready ops whose executability can have
		// changed — in ready-list order (the order the reference's full
		// rescan would reach them in).
		st.wlCur = st.wlCur[:0]
		o1, o2 := st.readyGateAt(chosen.a), st.readyGateAt(chosen.b)
		if o2 == o1 {
			o2 = -1 // same gate on both swapped qubits
		}
		if o1 >= 0 && o2 >= 0 && st.tr.ReadySeq(o2) < st.tr.ReadySeq(o1) {
			o1, o2 = o2, o1
		}
		if o1 >= 0 {
			st.wlCur = append(st.wlCur, o1)
		}
		if o2 >= 0 {
			st.wlCur = append(st.wlCur, o2)
		}
		a.res.SwapsInserted++
		if bd != nil {
			bd.Push(a.out.Ops, len(a.out.Ops)-1)
			if bound.depthReached(bd, chosen.a, chosen.b, -1) {
				return nil, errTrialCut
			}
		} else if bound != nil && float64(a.res.SwapsInserted) >= bound.beat {
			return nil, errTrialCut
		}
		st.bumpDecay(chosen.a, chosen.b)
		steps++
		if steps%decayResetInterval == 0 {
			st.resetDecay()
		}
		if steps > maxSteps {
			return nil, fmt.Errorf("sabre: exceeded %d swap insertions; routing diverged", maxSteps)
		}
	}

	a.res.Routed = &a.out
	a.res.FinalLayout = &st.layout
	return &a.res, nil
}

// own returns a copy of r that shares no buffer with the arena it was
// routed on: the routed ops go into one op slice backed by one flat
// qubit slice (circuit.Copy), and both layouts are copied. Gates and
// coordinates are immutable, so the copy shares them; its mirrored ops
// get their mirror gates, built here for them alone.
func (r *Result) own() *Result {
	out := *r
	out.Routed = r.Routed.Copy()
	finishMirrors(out.Routed.Ops)
	out.InitialLayout, out.FinalLayout = r.InitialLayout.Copy(), r.FinalLayout.Copy()
	return &out
}

// validateRoutable performs the once-per-circuit checks the trial loop
// assumes: arity <= 2 and enough physical qubits.
func validateRoutable(c *circuit.Circuit, topo *topology.Topology) error {
	if c.NumQubits > topo.NumQubits {
		return fmt.Errorf("sabre: circuit needs %d qubits, topology has %d", c.NumQubits, topo.NumQubits)
	}
	for _, op := range c.Ops {
		if len(op.Qubits) > 2 {
			return fmt.Errorf("sabre: op %s has arity > 2; unroll first", op.Gate.String())
		}
	}
	return nil
}

// projectLayoutInto restricts a (possibly larger) layout to the first
// numLogical logical qubits, writing into dst's reusable buffers.
func projectLayoutInto(dst, src *topology.Layout, numLogical int) {
	dst.L2P = append(dst.L2P[:0], src.L2P[:numLogical]...)
	if cap(dst.P2L) < len(src.P2L) {
		dst.P2L = make([]int, len(src.P2L))
	}
	dst.P2L = dst.P2L[:len(src.P2L)]
	for i := range dst.P2L {
		dst.P2L[i] = -1
	}
	for l, p := range dst.L2P {
		dst.P2L[p] = l
	}
}

// TrialRunner is the public face of the trial arena: an immutable
// PreparedCircuit plus one reusable arena. It is the unit a trial
// scheduler hands to a worker — immutable inputs shared by everyone,
// one arena per worker, a layout row identified by nothing more than
// (options, row index, metric, policy factory).
//
// A TrialRunner is single-goroutine; create one runner per worker. The
// Result returned by Run (and everything it references: the routed
// circuit, both layouts) aliases the runner's arena and is valid only
// until the next call on the runner.
type TrialRunner struct {
	pc    *PreparedCircuit
	arena *trialArena
}

// Run executes one routing trial from the given initial layout with a
// deterministically seeded generator. All trial state lives in the
// runner's arena; a warm call allocates only the mirror gate SWAP · U
// of each accepted mirror, built in place on the arena's routed ops.
// See TrialRunner for the validity contract of the returned Result.
func (r *TrialRunner) Run(initial *topology.Layout, seed int64, policy MirrorPolicy) (*Result, error) {
	res, err := r.run(initial, seed, policy, nil)
	if err != nil {
		return nil, err
	}
	finishMirrors(res.Routed.Ops)
	return res, nil
}

// run is Run under an optional score bound, leaving accepted mirrors
// as their source gates (see route).
func (r *TrialRunner) run(initial *topology.Layout, seed int64, policy MirrorPolicy,
	bound *trialBound) (*Result, error) {

	r.arena.rng.Seed(seed)
	return r.arena.route(r.pc.FD(), &r.pc.mirrors, r.pc.Topo, initial, r.arena.rng, policy, bound)
}

// RefineLayout returns layout trial lt's initial layout: a random
// layout drawn from the generator seeded from (opts.Seed, lt), refined
// by FwdBwdPasses rounds that route the circuit forward and then the
// reversed circuit from the final layout, whose final layout becomes
// the new initial layout. The returned layout is the caller's.
func (r *TrialRunner) RefineLayout(opts LayoutOptions, lt int) (*topology.Layout, error) {
	opts = opts.WithDefaults()
	if lt < 0 || lt >= opts.LayoutTrials {
		return nil, fmt.Errorf("sabre: layout trial %d outside [0, %d)", lt, opts.LayoutTrials)
	}
	a, pc := r.arena, r.pc
	n := pc.Circ.NumQubits
	a.rng.Seed(trialSeed(opts.Seed, seedStreamLayout, lt))
	layout := RandomLayout(n, pc.Topo, a.rng)
	for pass := 0; pass < opts.FwdBwdPasses; pass++ {
		fwd, err := a.route(pc.FD(), nil, pc.Topo, layout, a.rng, nil, nil)
		if err != nil {
			return nil, err
		}
		projectLayoutInto(&a.h1, fwd.FinalLayout, n)
		bwd, err := a.route(pc.FDRev(), nil, pc.Topo, &a.h1, a.rng, nil, nil)
		if err != nil {
			return nil, err
		}
		projectLayoutInto(&a.h2, bwd.FinalLayout, n)
		layout = &a.h2
	}
	return layout.Copy(), nil
}

// GridTrial executes trial t of the FindBestRoutingPrepared grid and
// returns its score under metric: routing from layout — row t /
// opts.RoutingTrials's RefineLayout result — with the generator seeded
// from (opts.Seed, t). It is the single definition of a grid trial's
// identity, shared by the rows, the winner replay and the remote
// workers of the distributed transport: given equal (layout, opts, t,
// policy) the trial is bit-identical wherever it runs, which is what
// makes work-queue leases idempotent. The metric sees the routed
// Result as a grid's metric does, accepted mirrors as their source
// gates (see Metric).
func (r *TrialRunner) GridTrial(layout *topology.Layout, opts LayoutOptions, t int, policy MirrorPolicy, metric Metric) (float64, error) {
	return r.scoreTrial(layout, opts.WithDefaults(), t, policy, metric, nil)
}

// scoreTrial is GridTrial under an optional score bound: a trial the
// bound cuts scores +Inf. opts must already have defaults applied.
func (r *TrialRunner) scoreTrial(layout *topology.Layout, opts LayoutOptions, t int, policy MirrorPolicy,
	metric Metric, bound *trialBound) (float64, error) {

	res, err := r.gridTrial(layout, opts, t, policy, bound)
	switch {
	case err == errTrialCut:
		return math.Inf(1), nil
	case err != nil:
		return 0, err
	}
	return metric(res), nil
}

// gridTrial routes grid trial t under an optional score bound, leaving
// accepted mirrors as their source gates; opts must already have
// defaults applied.
func (r *TrialRunner) gridTrial(layout *topology.Layout, opts LayoutOptions, t int, policy MirrorPolicy,
	bound *trialBound) (*Result, error) {

	if t < 0 || t >= opts.LayoutTrials*opts.RoutingTrials {
		return nil, fmt.Errorf("sabre: grid trial %d outside the %dx%d grid", t, opts.LayoutTrials, opts.RoutingTrials)
	}
	return r.run(layout, trialSeed(opts.Seed, seedStreamRouting, t), policy, bound)
}
