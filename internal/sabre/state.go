package sabre

import (
	"repro/internal/circuit"
	"repro/internal/topology"
)

// This file is the incrementally-maintained routing engine. The naive
// formulation (kept as RouteReference) rebuilds the front/lookahead
// pair sets at every stall and walks all of them once per SWAP
// candidate: O(candidates x (|front| + |E|)) distance lookups per
// inserted SWAP. The engine observes that a swap of physical qubits
// (a, b) only changes the distance of gates touching a or b, so it
// keeps per-qubit indices into the cached pair sets and scores each
// candidate by delta against cached sums: O(candidates x deg).
//
// Exactness: distances are small integers, and sums of small integers
// are exact in float64 regardless of association order, so the
// incrementally maintained sums equal the freshly recomputed ones
// bit-for-bit — the engine's scores, tie-breaking RNG consumption, and
// emitted circuits are identical to RouteReference's. The equivalence
// property test enforces this.
//
// Layout of the hot data: distances live in the topology's flat
// row-major int16 table (dist[a*dn+b]), indexed directly — no
// slice-of-slice hop per lookup. Pair sets are SoA: logical endpoints,
// cached *physical* endpoints, and cached distances in parallel int32
// arrays, so a delta score is a straight walk over flat arrays with no
// layout indirection (the cached physical endpoints are maintained on
// every committed swap).
//
// All of the engine's mutable state lives in buffers owned by a
// trialArena (arena.go) and is rewound per trial with bind(): the DAG
// itself is an immutable shared circuit.FlatDAG, every slice below is
// reused across trials, and the one former map (the SWAP-candidate
// dedup set) is a generation-stamped flat array, so a steady-state
// trial performs O(1) allocations.

// swapCand is one candidate SWAP on a coupled physical pair (a < b).
type swapCand struct{ a, b int }

// pairSet caches one scoring set (the front layer or the extended
// lookahead window) in SoA form: logical endpoint pairs, their cached
// physical locations and distances under the current engine layout,
// the distance sum, and a physical-qubit -> pair index so swap deltas
// touch only affected pairs. reset() is O(touched): only per-qubit
// index lists registered since the last reset are cleared.
type pairSet struct {
	la, lb []int32   // logical endpoints
	pa, pb []int32   // cached physical endpoints under the engine layout
	sum    int64     // sum(dist); exact, so float64(sum) == naive float accumulation
	byPhys [][]int32 // physical qubit -> indices into the pair arrays
	// byOther[q] holds, for each pair touching physical qubit q, the
	// pair's *other* endpoint — the value the delta walk needs, stored
	// directly so scoring reads one sequential value list per qubit
	// with no hop through the pair arrays. Parallel to byPhys[q].
	byOther [][]int32
	touched []int32 // physical qubits with registered pairs (reset list)
}

// ensure sizes the per-qubit index against the topology width, keeping
// existing backing arrays when already large enough. The stale touched
// list is cleared at the *old* width first: rebinding the arena to a
// narrower topology must not leave per-qubit lists (or out-of-range
// touched entries) behind.
func (ps *pairSet) ensure(numPhys int) {
	for _, q := range ps.touched {
		ps.byPhys[q] = ps.byPhys[q][:0]
		ps.byOther[q] = ps.byOther[q][:0]
	}
	ps.touched = ps.touched[:0]
	if cap(ps.byPhys) < numPhys {
		ps.byPhys = make([][]int32, numPhys)
		ps.byOther = make([][]int32, numPhys)
	}
	ps.byPhys = ps.byPhys[:numPhys]
	ps.byOther = ps.byOther[:numPhys]
}

func (ps *pairSet) reset() {
	ps.la = ps.la[:0]
	ps.lb = ps.lb[:0]
	ps.pa = ps.pa[:0]
	ps.pb = ps.pb[:0]
	ps.sum = 0
	for _, q := range ps.touched {
		ps.byPhys[q] = ps.byPhys[q][:0]
		ps.byOther[q] = ps.byOther[q][:0]
	}
	ps.touched = ps.touched[:0]
}

func (ps *pairSet) add(la, lb int32, layout *topology.Layout, dist []int16, dn int) {
	idx := int32(len(ps.la))
	pa, pb := int32(layout.L2P[la]), int32(layout.L2P[lb])
	ps.la = append(ps.la, la)
	ps.lb = append(ps.lb, lb)
	ps.pa = append(ps.pa, pa)
	ps.pb = append(ps.pb, pb)
	ps.sum += int64(dist[int(pa)*dn+int(pb)])
	if len(ps.byPhys[pa]) == 0 && len(ps.byOther[pa]) == 0 {
		ps.touched = append(ps.touched, pa)
	}
	if len(ps.byPhys[pb]) == 0 && len(ps.byOther[pb]) == 0 {
		ps.touched = append(ps.touched, pb)
	}
	ps.byPhys[pa] = append(ps.byPhys[pa], idx)
	ps.byOther[pa] = append(ps.byOther[pa], pb)
	ps.byPhys[pb] = append(ps.byPhys[pb], idx)
	ps.byOther[pb] = append(ps.byOther[pb], pa)
}

// rebuildOther regenerates q's other-endpoint value list from its pair
// index list and the (already updated) cached endpoints. Idempotent,
// so callers may visit a qubit more than once.
func (ps *pairSet) rebuildOther(q int) {
	lst := ps.byOther[q][:0]
	for _, idx := range ps.byPhys[q] {
		lst = append(lst, ps.pa[idx]+ps.pb[idx]-int32(q)) // the endpoint not on q
	}
	ps.byOther[q] = lst
}

// applySwap updates cached endpoints and distances after the engine
// layout has already swapped physical qubits a and b. Endpoints are
// recomputed from the (post-swap) layout, so pairs touching both
// qubits are safe to visit twice — the recompute is idempotent.
func (ps *pairSet) applySwap(a, b int, layout *topology.Layout, dist []int16, dn int) {
	for _, q := range [2]int{a, b} {
		for _, idx := range ps.byPhys[q] {
			ps.sum -= int64(dist[int(ps.pa[idx])*dn+int(ps.pb[idx])])
			pa, pb := int32(layout.L2P[ps.la[idx]]), int32(layout.L2P[ps.lb[idx]])
			ps.pa[idx], ps.pb[idx] = pa, pb
			ps.sum += int64(dist[int(pa)*dn+int(pb)])
		}
	}
	// The pairs previously touching a now touch b and vice versa.
	ps.byPhys[a], ps.byPhys[b] = ps.byPhys[b], ps.byPhys[a]
	ps.byOther[a], ps.byOther[b] = ps.byOther[b], ps.byOther[a]
	ps.rebuildOther(a)
	ps.rebuildOther(b)
	// Every partner of a moved pair sees a different other-endpoint now;
	// regenerate their value lists too (idempotent, so overlapping
	// partner sets are fine).
	for _, q := range [2]int{a, b} {
		for _, r := range ps.byOther[q] {
			if int(r) != a && int(r) != b {
				ps.rebuildOther(int(r))
			}
		}
		if len(ps.byPhys[q]) > 0 {
			ps.touched = append(ps.touched, int32(q)) // duplicates are fine: reset is idempotent
		}
	}
}

// swapMap is where physical qubit x lands after swapping a and b.
func swapMap(x, a, b int) int {
	switch x {
	case a:
		return b
	case b:
		return a
	}
	return x
}

func swapMap32(x, a, b int32) int32 {
	switch x {
	case a:
		return b
	case b:
		return a
	}
	return x
}

// routingState is the engine: the flat-DAG traversal, the live layout
// and decay vector, and the incrementally maintained front/extended
// pair caches. It is single-goroutine.
type routingState struct {
	c    *circuit.Circuit
	topo *topology.Topology
	opts Options

	// Flat row-major distance table of the bound topology (shared
	// immutable backing array; dn is the row stride).
	dist []int16
	dn   int

	fd     *circuit.FlatDAG
	tr     circuit.FlatTraversal
	layout topology.Layout // arena-owned working layout (reset per trial)
	decay  []float64

	front pairSet
	ext   pairSet
	dirty bool // pair caches stale (a gate executed or a mirror moved the layout)

	// readyOpOn maps each logical wire to the ready op touching it (-1
	// when none). Wire dependencies totally order the ops on a wire, so
	// at most one ready op touches any wire; the map lets a committed
	// swap find the (<= 2) ready gates it could have made executable in
	// O(1) instead of rescanning the ready set.
	readyOpOn []int32

	// ready2QSum is sum(distance) over the 2Q ready pairs under the
	// current layout, maintained incrementally through the execute
	// phase (insertions, executions, swaps). It is the shared base of
	// every mirror decision's front cost: the decision on gate g needs
	// the summed distance of the other ready 2Q gates, which is exactly
	// ready2QSum minus g's own pair distance — no per-decision rescan.
	ready2QSum int64

	// Mirror-decision scratch. mirrorSkip is the gate under decision;
	// mirrorA/mirrorB its physical endpoints (set by the arena before
	// Decide). The pair lists back the generic RoutingCost evaluator
	// and are materialised lazily (mirrorListsFor tracks which gate
	// they describe, -1 = stale): the engine fast path RoutingCostSwap
	// computes both evaluation points directly from ready2QSum, the
	// successor walk and the lookahead BFS without building them.
	mirrorFront    [][2]int32
	mirrorExt      [][2]int32
	mirrorSkip     int
	mirrorListsFor int
	mirrorA        int
	mirrorB        int

	// Scratch for candidate collection: candStamp is the generation-
	// stamped replacement of the old map[swapCand]bool — one uint32 per
	// (a, b) physical pair, "seen this stall" iff stamped with the
	// current generation. Bumping candGen invalidates the whole set in
	// O(1); the array is only zeroed when the 32-bit counter wraps.
	cands     []swapCand
	candStamp []uint32
	candGen   uint32
	scores    []float64

	// Worklist buffers of the execute phase (arena.go): the pass being
	// examined and the ops that became ready during it (next pass).
	wlCur  []int32
	wlNext []int32
}

// bind rewinds the state for one trial over fd starting from initial.
// Buffers are reused whenever they are already large enough, so a
// steady-state rebind allocates nothing.
func (st *routingState) bind(fd *circuit.FlatDAG, topo *topology.Topology, initial *topology.Layout, opts Options) {
	st.c = fd.Circ
	st.topo = topo
	st.opts = opts
	st.dist = topo.DistanceTable()
	st.dn = topo.NumQubits
	st.fd = fd
	st.tr.Reset(fd)
	st.layout.CopyFrom(initial)

	n := topo.NumQubits
	if cap(st.decay) < n {
		st.decay = make([]float64, n)
	}
	st.decay = st.decay[:n]
	st.front.ensure(n)
	st.ext.ensure(n)
	st.front.reset()
	st.ext.reset()
	if cap(st.candStamp) < n*n {
		st.candStamp = make([]uint32, n*n)
		st.candGen = 0
	}
	st.candStamp = st.candStamp[:n*n]

	nl := st.c.NumQubits
	if cap(st.readyOpOn) < nl {
		st.readyOpOn = make([]int32, nl)
	}
	st.readyOpOn = st.readyOpOn[:nl]
	for i := range st.readyOpOn {
		st.readyOpOn[i] = -1
	}
	st.ready2QSum = 0
	for _, r := range fd.Roots {
		st.registerReady(r)
	}
	st.mirrorListsFor = -1

	st.dirty = true
	st.resetDecay()
}

// registerReady indexes a newly ready op by its wires and, for 2Q ops,
// adds its pair distance to the running ready sum.
func (st *routingState) registerReady(idx int32) {
	q0 := st.fd.Q0[idx]
	st.readyOpOn[q0] = idx
	if q1 := st.fd.Q1[idx]; q1 >= 0 {
		st.readyOpOn[q1] = idx
		pa, pb := st.layout.L2P[q0], st.layout.L2P[q1]
		st.ready2QSum += int64(st.dist[pa*st.dn+pb])
	}
}

func (st *routingState) resetDecay() {
	for i := range st.decay {
		st.decay[i] = 1.0
	}
}

// execute marks op idx done, maintains the ready-wire index and the
// running 2Q ready sum, and invalidates the pair caches (the front
// layer and lookahead window both change shape). Newly ready
// successors are left in tr.LastReady for the caller's worklist.
func (st *routingState) execute(idx int) {
	q0 := st.fd.Q0[idx]
	st.readyOpOn[q0] = -1
	if q1 := st.fd.Q1[idx]; q1 >= 0 {
		st.readyOpOn[q1] = -1
		pa, pb := st.layout.L2P[q0], st.layout.L2P[q1]
		st.ready2QSum -= int64(st.dist[pa*st.dn+pb])
	}
	st.tr.Execute(idx)
	for _, s := range st.tr.LastReady {
		st.registerReady(s)
	}
	st.dirty = true
	st.mirrorListsFor = -1
}

// refresh rebuilds the front/extended pair caches from the traversal
// when stale. Between consecutive stalls with no executed gates the
// caches stay valid and only distance updates (applySwap) happen.
func (st *routingState) refresh() {
	if !st.dirty {
		return
	}
	st.front.reset()
	for idx := st.tr.ReadyFirst(); idx >= 0; idx = st.tr.ReadyNext(idx) {
		if q1 := st.fd.Q1[idx]; q1 >= 0 {
			st.front.add(st.fd.Q0[idx], q1, &st.layout, st.dist, st.dn)
		}
	}
	st.ext.reset()
	for _, idx := range st.tr.Descendants(st.opts.ExtendedSetSize) {
		if q1 := st.fd.Q1[idx]; q1 >= 0 {
			st.ext.add(st.fd.Q0[idx], q1, &st.layout, st.dist, st.dn)
		}
	}
	st.dirty = false
}

// applySwap commits a router SWAP on physical qubits (a, b): the
// layout changes, the cached distances of affected pairs are updated
// in O(deg) instead of a full rebuild, and the running ready sum is
// fixed up through the (<= 2) ready gates touching the swapped qubits.
func (st *routingState) applySwap(a, b int) {
	// The ready gates whose wires currently sit on a or b are the only
	// ones whose pair distance the swap can change (one ready op per
	// wire). Subtract their pre-swap distances, move the layout, then
	// add the post-swap distances back.
	o1, o2 := st.readyGateAt(a), st.readyGateAt(b)
	if o2 == o1 {
		o2 = -1
	}
	st.addReadyPair(o1, -1)
	st.addReadyPair(o2, -1)
	st.layout.SwapPhysical(a, b)
	st.addReadyPair(o1, +1)
	st.addReadyPair(o2, +1)
	if st.dirty {
		return // caches are stale anyway; next refresh rebuilds
	}
	st.front.applySwap(a, b, &st.layout, st.dist, st.dn)
	st.ext.applySwap(a, b, &st.layout, st.dist, st.dn)
}

// readyGateAt returns the ready 2Q op with a wire on physical qubit p,
// or -1.
func (st *routingState) readyGateAt(p int) int32 {
	l := st.layout.P2L[p]
	if l < 0 || l >= len(st.readyOpOn) {
		return -1
	}
	idx := st.readyOpOn[l]
	if idx >= 0 && st.fd.Q1[idx] < 0 {
		return -1 // 1Q ops carry no pair distance
	}
	return idx
}

// addReadyPair adds sign * (op idx's current pair distance) to the
// running ready sum; idx < 0 is a no-op.
func (st *routingState) addReadyPair(idx int32, sign int64) {
	if idx < 0 {
		return
	}
	pa, pb := st.layout.L2P[st.fd.Q0[idx]], st.layout.L2P[st.fd.Q1[idx]]
	st.ready2QSum += sign * int64(st.dist[pa*st.dn+pb])
}

// applyMirrorSwap commits the virtual SWAP of an accepted mirror gate.
// Mirror decisions happen in the execute phase, where the caches are
// already stale, so only the layout moves. The running ready sum is
// unchanged by construction: the only ready gate touching the swapped
// qubits is the mirrored gate itself, and swapping its own endpoints
// leaves its distance alone.
func (st *routingState) applyMirrorSwap(a, b int) {
	st.layout.SwapPhysical(a, b)
	st.dirty = true
}

// collectCandidates enumerates the SWAP candidates of the current
// stall in the same deterministic order as the naive formulation:
// ready-op order, op-qubit order, sorted-neighbour order, first
// occurrence kept.
func (st *routingState) collectCandidates() []swapCand {
	st.cands = st.cands[:0]
	st.candGen++
	if st.candGen == 0 { // 32-bit generation wrapped: clear stamps once
		// Clear the full capacity: entries beyond the current length may
		// be resurfaced by a later rebind to a wider topology, and the
		// monotonic-generation argument only holds if they are zeroed too.
		full := st.candStamp[:cap(st.candStamp)]
		for i := range full {
			full[i] = 0
		}
		st.candGen = 1
	}
	// The front cache (refreshed by the caller just before this) lists
	// the ready 2Q gates in ready order with their physical endpoints
	// already resolved — the exact gate/qubit enumeration order of the
	// naive formulation, minus the ready-list walk and layout lookups.
	n := st.topo.NumQubits
	for i := range st.front.pa {
		for _, p32 := range [2]int32{st.front.pa[i], st.front.pb[i]} {
			p := int(p32)
			for _, nb := range st.topo.Neighbors(p) {
				a, b := p, nb
				if a > b {
					a, b = b, a
				}
				key := a*n + b
				if st.candStamp[key] != st.candGen {
					st.candStamp[key] = st.candGen
					st.cands = append(st.cands, swapCand{a, b})
				}
			}
		}
	}
	return st.cands
}

// scoreCandidates computes the decayed SABRE score of every candidate
// by delta against the cached sums, into a reused buffer.
func (st *routingState) scoreCandidates(cands []swapCand) []float64 {
	if cap(st.scores) < len(cands) {
		st.scores = make([]float64, len(cands))
	}
	scores := st.scores[:len(cands)]
	for i, sc := range cands {
		scores[i] = st.scoreCandidate(sc)
	}
	return scores
}

// scoreCandidate reproduces the naive averaged score exactly:
// decay * (mean front distance + W * mean extended distance) under the
// hypothetical swap, with the sums formed by integer deltas.
//
// Only pairs touching a or b shift under the hypothetical swap, and
// for a pair with one endpoint on a and the other at r the new
// distance is dist(b, r): the delta walks scan the per-qubit
// other-endpoint value lists against the a/b rows of the flat table —
// no endpoint remapping, no hop through the pair arrays. A pair
// touching both swapped qubits keeps its (symmetric) distance and is
// skipped in both directions. All four walks are inlined here so a
// candidate's score is one call with the table rows hoisted once.
func (st *routingState) scoreCandidate(sc swapCand) float64 {
	d := st.decay[sc.a]
	if st.decay[sc.b] > d {
		d = st.decay[sc.b]
	}
	a, b := int32(sc.a), int32(sc.b)
	rowA := st.dist[sc.a*st.dn : sc.a*st.dn+st.dn]
	rowB := st.dist[sc.b*st.dn : sc.b*st.dn+st.dn]
	var h float64
	if nf := len(st.front.la); nf > 0 {
		delta := int64(0)
		for _, r := range st.front.byOther[a] {
			if r != b {
				delta += int64(rowB[r]) - int64(rowA[r])
			}
		}
		for _, r := range st.front.byOther[b] {
			if r != a {
				delta += int64(rowA[r]) - int64(rowB[r])
			}
		}
		h += float64(st.front.sum+delta) / float64(nf)
	}
	if ne := len(st.ext.la); ne > 0 {
		delta := int64(0)
		for _, r := range st.ext.byOther[a] {
			if r != b {
				delta += int64(rowB[r]) - int64(rowA[r])
			}
		}
		for _, r := range st.ext.byOther[b] {
			if r != a {
				delta += int64(rowA[r]) - int64(rowB[r])
			}
		}
		h += st.opts.ExtendedSetWeight * (float64(st.ext.sum+delta) / float64(ne))
	}
	return d * h
}

// --- Mirror-decision cost views (MirrorContext plumbing) ---

// prepareMirror arms the mirror-decision scratch for op `skip`. The
// heavy state the decision needs — the summed distance of the other
// ready 2Q gates — is already maintained incrementally (ready2QSum),
// so arming is O(1); the pair lists backing the generic RoutingCost
// evaluator are only materialised if a policy actually calls it.
func (st *routingState) prepareMirror(skip int) {
	st.mirrorSkip = skip
	st.mirrorListsFor = -1
}

// materializeMirrorLists builds the explicit mirror front/extended
// pair lists for the armed gate: the other ready 2Q gates plus the
// gate's direct successors at full weight, and the extended window.
// Only the generic RoutingCost path needs them; RoutingCostSwap
// computes its two evaluation points without the intermediate lists.
func (st *routingState) materializeMirrorLists() {
	if st.mirrorListsFor == st.mirrorSkip {
		return
	}
	skip := st.mirrorSkip
	st.mirrorFront = st.mirrorFront[:0]
	for idx := st.tr.ReadyFirst(); idx >= 0; idx = st.tr.ReadyNext(idx) {
		if int(idx) == skip {
			continue
		}
		if q1 := st.fd.Q1[idx]; q1 >= 0 {
			st.mirrorFront = append(st.mirrorFront, [2]int32{st.fd.Q0[idx], q1})
		}
	}
	for _, s := range st.fd.SuccsOf(skip) {
		if q1 := st.fd.Q1[s]; q1 >= 0 {
			st.mirrorFront = append(st.mirrorFront, [2]int32{st.fd.Q0[s], q1})
		}
	}
	st.mirrorExt = st.mirrorExt[:0]
	for _, idx := range st.tr.Descendants(st.opts.ExtendedSetSize) {
		if q1 := st.fd.Q1[idx]; q1 >= 0 {
			st.mirrorExt = append(st.mirrorExt, [2]int32{st.fd.Q0[idx], q1})
		}
	}
	st.mirrorListsFor = skip
}

// mirrorCostAt evaluates the summed (non-averaged) heuristic of the
// armed mirror sets under an arbitrary layout.
func (st *routingState) mirrorCostAt(l *topology.Layout) float64 {
	st.materializeMirrorLists()
	var h float64
	if len(st.mirrorFront) > 0 {
		var s int64
		for _, p := range st.mirrorFront {
			s += int64(st.dist[l.L2P[p[0]]*st.dn+l.L2P[p[1]]])
		}
		h += float64(s)
	}
	if len(st.mirrorExt) > 0 {
		var s int64
		for _, p := range st.mirrorExt {
			s += int64(st.dist[l.L2P[p[0]]*st.dn+l.L2P[p[1]]])
		}
		h += st.opts.ExtendedSetWeight * float64(s)
	}
	return h
}

// mirrorCostSwap evaluates the armed sets at the current layout and at
// the layout after hypothetically swapping (mirrorA, mirrorB), without
// copying the layout and without materialising the pair lists:
//
//   - ready part: every ready 2Q gate except the armed one. One ready
//     op per wire means none of them touch the swapped qubits, so the
//     hypothetical swap cannot change their distances — both
//     evaluation points share ready2QSum minus the armed gate's own
//     pair distance, with no walk at all.
//   - successor part: the armed gate's direct 2Q successors, walked
//     once computing current and swapped distances together.
//   - extended part: the lookahead BFS, walked the same way.
//
// The integer sums match the materialised walk term for term, so the
// result agrees with RoutingCost bit-for-bit.
func (st *routingState) mirrorCostSwap() (current, swapped float64) {
	a, b := int32(st.mirrorA), int32(st.mirrorB)
	base := st.ready2QSum - int64(st.dist[int(a)*st.dn+int(b)])
	curF, swpF := base, base
	for _, s := range st.fd.SuccsOf(st.mirrorSkip) {
		q1 := st.fd.Q1[s]
		if q1 < 0 {
			continue
		}
		pa, pb := int32(st.layout.L2P[st.fd.Q0[s]]), int32(st.layout.L2P[q1])
		curF += int64(st.dist[int(pa)*st.dn+int(pb)])
		swpF += int64(st.dist[int(swapMap32(pa, a, b))*st.dn+int(swapMap32(pb, a, b))])
	}
	current = float64(curF)
	swapped = float64(swpF)
	var curE, swpE int64
	haveExt := false
	for _, idx := range st.tr.Descendants(st.opts.ExtendedSetSize) {
		q1 := st.fd.Q1[idx]
		if q1 < 0 {
			continue
		}
		haveExt = true
		pa, pb := int32(st.layout.L2P[st.fd.Q0[idx]]), int32(st.layout.L2P[q1])
		curE += int64(st.dist[int(pa)*st.dn+int(pb)])
		swpE += int64(st.dist[int(swapMap32(pa, a, b))*st.dn+int(swapMap32(pb, a, b))])
	}
	if haveExt {
		current += st.opts.ExtendedSetWeight * float64(curE)
		swapped += st.opts.ExtendedSetWeight * float64(swpE)
	}
	return current, swapped
}
