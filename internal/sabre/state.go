package sabre

import (
	"math/rand"

	"repro/internal/circuit"
	"repro/internal/topology"
)

// This file is the routing engine. The naive formulation (kept in the
// tests as RouteReference, reference_test.go) rebuilds the
// front/lookahead pair sets at every stall
// and walks all of them once per SWAP candidate, under a copied layout:
// O(candidates x (|front| + |E|)) distance lookups per inserted SWAP.
// The engine observes that a swap of physical qubits (a, b) only
// changes the distance of pairs touching a or b, so it scores each
// candidate by delta against the sets' distance sums:
// O(candidates x deg).
//
// Per-stall scoring sets: the front (logical pairs) and the lookahead
// window (the 2Q ops of the Descendants BFS, as op indices) are
// rebuilt only when the ready set changed; their physical view — the
// distance sums and, per physical qubit, the partner qubits of the
// pairs on it — is rebuilt from the live layout at every stall and
// cleared again before the chosen SWAP moves the layout. Front pairs
// are disjoint (one ready op per wire), so the front needs one partner
// slot per qubit; window pairs are at most extendedSetSize, so a
// qubit's window partners fit in a fixed-stride row of that width.
// Building a view costs O(|front| + |E|) flat writes, cheaper than
// keeping a cache in step with every committed SWAP when most stalls
// follow an executed gate.
//
// One window per ready set: a mirror decision prices its gate against
// the same lookahead window. A decision made right after a stall SWAP
// sees the ready set the stall saw (the SWAP moved only the layout),
// so it reads the stall's window instead of rerunning the BFS; only a
// decision after an executed gate runs its own. On the full Fig. 12
// suite at 10x10 trials on square-6x6 this drops 36% of the decision
// BFS runs (120,479 -> 76,581).
//
// Window bound: most candidates lose before their window walk starts.
// a and b are coupled, so for any partner r the hop distances obey
// dist(a, r) <= 1 + dist(b, r) (unreachable entries are -1 on both
// rows and cancel): every window term dist(b, r) - dist(a, r) is at
// least -1, and a pair on both a and b contributes 0. The window sum
// under the swap is therefore at least extSum - (deg(a) + deg(b)),
// and since float64 conversion, division by the positive window size,
// multiplication by the positive weight and decay, and addition are
// all monotone in IEEE arithmetic, the score computed with that sum is
// a lower bound on the candidate's score — provided it is computed in
// the score's own expression shape, so a fused multiply-add would
// round both alike. Once a best exists, a candidate whose bound is at
// least bestScore+1e-12 can neither win nor tie (a tie is what draws
// from rng), so it is skipped with its walk, and the SWAP sequence and
// RNG stream stay those of the reference. On the same suite the bound
// skips 61% of the candidates and the walks fall from 30.7 M window
// entries to 14.0 M.
//
// Exactness: distances are small integers, and sums of small integers
// are exact in float64 regardless of association order, so the delta
// sums equal the freshly recomputed ones bit-for-bit — the engine's
// scores, tie-breaking RNG consumption, and emitted circuits are
// identical to the tests' RouteReference's. The equivalence property
// tests enforce this across circuit sizes, topologies and seeds.
//
// Distances live in the topology's flat row-major int16 table
// (dist[a*dn+b]), indexed directly — no slice-of-slice hop per lookup.
// The hot loops read every slice header they index from a local, so
// the compiler keeps it in registers instead of reloading it through
// the state pointer after each store.
//
// All of the engine's mutable state lives in buffers owned by a
// trialArena (arena.go) and is rewound per trial with bind(): the DAG
// itself is an immutable shared circuit.FlatDAG, every slice below is
// reused across trials, and the SWAP-candidate dedup set is a
// generation-stamped flat array, so a steady-state trial allocates
// nothing.

// swapCand is one candidate SWAP on a coupled physical pair (a < b).
type swapCand struct{ a, b int }

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
// and decay vector, and the per-stall scoring sets. It is
// single-goroutine.
type routingState struct {
	c    *circuit.Circuit
	topo *topology.Topology

	// Flat row-major distance table of the bound topology (shared
	// immutable backing array; dn is the row stride).
	dist []int16
	dn   int

	fd     *circuit.FlatDAG
	tr     circuit.FlatTraversal
	layout topology.Layout // arena-owned working layout (reset per trial)
	decay  []float64
	bumped []int32 // qubits whose decay left 1.0 since the last reset

	// Scoring sets: the ready 2Q pairs (front), as logical pairs, and
	// the lookahead window's 2Q ops (win), as op indices in BFS order.
	// dirty marks them stale (a gate executed, so the ready set
	// changed); while they are clean, mirror decisions read win too.
	front [][2]int32
	win   []int32
	dirty bool

	// Physical view of the scoring sets, valid during one stall:
	// frontPeer[p] is the physical partner of p's front pair (-1 when
	// none); extPeer[p*stride : p*stride+extDeg[p]] lists the partners
	// of p's window pairs; the sums are the sets' total distances.
	frontPeer []int32
	extPeer   []int32
	extDeg    []int32
	stride    int
	frontSum  int64
	extSum    int64

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

	// Mirror-decision scratch (armMirror): mirrorSkip is the gate under
	// decision, mirrorA/mirrorB its physical endpoints. mirrorCosts
	// prices both evaluation points from ready2QSum, the gate's
	// successors and the lookahead window.
	mirrorSkip       int
	mirrorA, mirrorB int

	// candStamp dedups SWAP candidates: one uint32 per (a, b) physical
	// pair, "seen this stall" iff stamped with the current generation.
	// Bumping candGen invalidates the whole set in O(1); the array is
	// only zeroed when the 32-bit counter wraps.
	candStamp []uint32
	candGen   uint32

	// Worklist buffers of the execute phase (arena.go): the pass being
	// examined and the ops that became ready during it (next pass).
	wlCur  []int32
	wlNext []int32
}

// bind rewinds the state for one trial over fd starting from initial.
// Buffers are reused whenever they are already large enough, so a
// steady-state rebind allocates nothing. The per-qubit view slots are
// cleared at the new width, so a rebind to another topology or
// circuit size starts from empty slots.
func (st *routingState) bind(fd *circuit.FlatDAG, topo *topology.Topology, initial *topology.Layout) {
	st.c = fd.Circ
	st.topo = topo
	st.dist = topo.DistanceTable()
	st.dn = topo.NumQubits
	st.fd = fd
	st.tr.Reset(fd)
	st.layout.CopyFrom(initial)

	n := topo.NumQubits
	st.decay = resize(st.decay, n)
	for i := range st.decay {
		st.decay[i] = 1.0
	}
	st.bumped = st.bumped[:0]
	// A qubit sits in at most one pair per window op, and the window
	// holds at most min(extendedSetSize, ops) ops.
	st.stride = min(extendedSetSize, fd.NumOps)
	st.frontPeer = resize(st.frontPeer, n)
	st.extDeg = resize(st.extDeg, n)
	st.extPeer = resize(st.extPeer, n*st.stride)
	for p := range st.frontPeer {
		st.frontPeer[p] = -1
		st.extDeg[p] = 0
	}
	st.front = st.front[:0]
	st.win = st.win[:0]
	if cap(st.candStamp) < n*n {
		st.candStamp = make([]uint32, n*n)
		st.candGen = 0
	}
	st.candStamp = st.candStamp[:n*n]

	st.readyOpOn = resize(st.readyOpOn, st.c.NumQubits)
	for i := range st.readyOpOn {
		st.readyOpOn[i] = -1
	}
	st.ready2QSum = 0
	for _, r := range fd.Roots {
		st.registerReady(r)
	}
	st.dirty = true
}

// resize returns s with length n, reusing its backing array when large
// enough. Contents are unspecified.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
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

// bumpDecay raises the decay of the swapped qubits a and b, recording
// the qubits that leave 1.0 so resetDecay touches only those.
func (st *routingState) bumpDecay(a, b int) {
	for _, q := range [2]int{a, b} {
		if st.decay[q] == 1.0 {
			st.bumped = append(st.bumped, int32(q))
		}
		st.decay[q] += decayRate
	}
}

func (st *routingState) resetDecay() {
	for _, q := range st.bumped {
		st.decay[q] = 1.0
	}
	st.bumped = st.bumped[:0]
}

// execute marks op idx done, maintains the ready-wire index and the
// running 2Q ready sum, and marks the scoring sets stale (the front
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
}

// refresh rebuilds the scoring sets from the traversal when the ready
// set changed since the last stall: the front as logical pairs, the
// window as the 2Q ops of the lookahead BFS.
func (st *routingState) refresh() {
	if !st.dirty {
		return
	}
	q0, q1 := st.fd.Q0, st.fd.Q1
	front := st.front[:0]
	for idx := st.tr.ReadyFirst(); idx >= 0; idx = st.tr.ReadyNext(idx) {
		if q1[idx] >= 0 {
			front = append(front, [2]int32{q0[idx], q1[idx]})
		}
	}
	win := st.win[:0]
	for _, idx := range st.tr.Descendants(extendedSetSize) {
		if q1[idx] >= 0 {
			win = append(win, idx)
		}
	}
	st.front, st.win = front, win
	st.dirty = false
}

// window returns the lookahead window of the current ready set: the
// window refresh kept while the scoring sets are clean (the ready set
// has not changed since, only the layout), else a fresh BFS, which
// also lists 1Q ops. The BFS result is owned by the traversal and
// valid until its next Descendants call.
func (st *routingState) window() []int32 {
	if !st.dirty {
		return st.win
	}
	return st.tr.Descendants(extendedSetSize)
}

// buildView fills the physical view of the scoring sets under the
// current layout. The view slots are empty on entry (bind and
// clearView leave them so).
func (st *routingState) buildView() {
	l2p, dist, dn := st.layout.L2P, st.dist, st.dn
	frontPeer := st.frontPeer
	sum := int64(0)
	for _, pr := range st.front {
		pa, pb := l2p[pr[0]], l2p[pr[1]]
		frontPeer[pa], frontPeer[pb] = int32(pb), int32(pa)
		sum += int64(dist[pa*dn+pb])
	}
	st.frontSum = sum
	q0, q1 := st.fd.Q0, st.fd.Q1
	extPeer, extDeg, stride := st.extPeer, st.extDeg, st.stride
	sum = 0
	for _, idx := range st.win {
		pa, pb := l2p[q0[idx]], l2p[q1[idx]]
		extPeer[pa*stride+int(extDeg[pa])] = int32(pb)
		extDeg[pa]++
		extPeer[pb*stride+int(extDeg[pb])] = int32(pa)
		extDeg[pb]++
		sum += int64(dist[pa*dn+pb])
	}
	st.extSum = sum
}

// clearView empties the view slots buildView filled; the layout must
// not have moved in between.
func (st *routingState) clearView() {
	l2p, frontPeer, extDeg := st.layout.L2P, st.frontPeer, st.extDeg
	for _, pr := range st.front {
		frontPeer[l2p[pr[0]]] = -1
		frontPeer[l2p[pr[1]]] = -1
	}
	q0, q1 := st.fd.Q0, st.fd.Q1
	for _, idx := range st.win {
		extDeg[l2p[q0[idx]]] = 0
		extDeg[l2p[q1[idx]]] = 0
	}
}

// applySwap commits a router SWAP on physical qubits (a, b): the
// layout moves and the running ready sum is fixed up through the
// (<= 2) ready gates touching the swapped qubits.
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

// chooseSwap picks the stall's SWAP: it refreshes the scoring sets,
// enumerates the candidates in the naive formulation's order (ready-op
// order, op-qubit order, sorted-neighbour order, first occurrence
// kept), and scores and selects each as it is found, with the same
// comparisons and tie-breaking RNG draws as the reference. ok is false
// when the front has no candidates.
//
// A candidate's score reproduces the naive averaged score exactly:
// decay * (mean front distance + W * mean window distance) under the
// hypothetical swap, with the sums formed by integer deltas. For a
// pair with one endpoint on a and its partner at r the new distance is
// dist(b, r), read from the a/b rows of the flat table; a pair on both
// swapped qubits keeps its (symmetric) distance and is skipped. A
// candidate whose window bound (file header) already loses is dropped
// after its front delta, before its window walk.
func (st *routingState) chooseSwap(rng *rand.Rand) (chosen swapCand, ok bool) {
	st.refresh()
	st.buildView()
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

	n, dn, stride := st.topo.NumQubits, st.dn, st.stride
	nf, ne := float64(len(st.front)), float64(len(st.win))
	haveExt := len(st.win) > 0
	w := extendedSetWeight
	l2p, dist, decay, stamp, gen := st.layout.L2P, st.dist, st.decay, st.candStamp, st.candGen
	frontPeer, extPeer, extDeg := st.frontPeer, st.extPeer, st.extDeg
	frontSum, extSum := st.frontSum, st.extSum
	bestScore := 0.0
	for _, pr := range st.front {
		for _, p := range [2]int{l2p[pr[0]], l2p[pr[1]]} {
			for _, nb := range st.topo.Neighbors(p) {
				a, b := p, nb
				if a > b {
					a, b = b, a
				}
				if stamp[a*n+b] == gen {
					continue
				}
				stamp[a*n+b] = gen

				d := decay[a]
				if decay[b] > d {
					d = decay[b]
				}
				a32, b32 := int32(a), int32(b)
				rowA := dist[a*dn : a*dn+dn]
				rowB := dist[b*dn : b*dn+dn]
				delta := int64(0)
				if r := frontPeer[a]; r >= 0 && r != b32 {
					delta += int64(rowB[r]) - int64(rowA[r])
				}
				if r := frontPeer[b]; r >= 0 && r != a32 {
					delta += int64(rowA[r]) - int64(rowB[r])
				}
				h := float64(frontSum+delta) / nf
				if haveExt {
					peersA := extPeer[a*stride : a*stride+int(extDeg[a])]
					peersB := extPeer[b*stride : b*stride+int(extDeg[b])]
					// Each window term is >= -1 (see the file header),
					// so this is a lower bound on the score, built in
					// the score's own expression shape.
					lb := d * (h + w*(float64(extSum-int64(len(peersA)+len(peersB)))/ne))
					if ok && lb >= bestScore+1e-12 {
						continue // loses without drawing from rng
					}
					delta = 0
					for _, r := range peersA {
						if r != b32 {
							delta += int64(rowB[r]) - int64(rowA[r])
						}
					}
					for _, r := range peersB {
						if r != a32 {
							delta += int64(rowA[r]) - int64(rowB[r])
						}
					}
					h += w * (float64(extSum+delta) / ne)
				}
				score := d * h
				if !ok || score < bestScore-1e-12 ||
					(score < bestScore+1e-12 && rng.Intn(2) == 0) {
					bestScore, chosen, ok = score, swapCand{a, b}, true
				}
			}
		}
	}
	st.clearView()
	return chosen, ok
}

// --- Mirror-decision routing costs (MirrorContext.RoutingCosts) ---

// armMirror points the mirror-decision routing costs at op idx on
// physical qubits (pa, pb). The heavy state the decision needs — the
// summed distance of the other ready 2Q gates — is already maintained
// incrementally (ready2QSum), so arming is three stores.
func (st *routingState) armMirror(idx, pa, pb int) {
	st.mirrorSkip, st.mirrorA, st.mirrorB = idx, pa, pb
}

// mirrorCosts evaluates the armed gate's routing cost at the current
// layout and at the layout after hypothetically swapping (mirrorA,
// mirrorB), in one pass and without copying the layout:
//
//   - ready part: every ready 2Q gate except the armed one. One ready
//     op per wire means none of them touch the swapped qubits, so the
//     hypothetical swap cannot change their distances — both
//     evaluation points share ready2QSum minus the armed gate's own
//     pair distance, with no walk at all.
//   - successor part: the armed gate's direct 2Q successors, walked
//     once computing current and swapped distances together.
//   - extended part: the lookahead window, walked the same way. A
//     decision right after a stall SWAP reads the window the stall
//     kept; one after an executed gate reruns the BFS (window).
//
// Distances are small integers, so the integer sums are exact in any
// order: both values equal the tests' from-scratch evaluation under a
// copied, swapped layout bit for bit.
func (st *routingState) mirrorCosts() (current, swapped float64) {
	a, b := int32(st.mirrorA), int32(st.mirrorB)
	dist, dn, l2p := st.dist, st.dn, st.layout.L2P
	q0, q1 := st.fd.Q0, st.fd.Q1
	// pairDist returns op idx's pair distance now and after the swap.
	pairDist := func(idx int32) (cur, swp int64) {
		pa, pb := int32(l2p[q0[idx]]), int32(l2p[q1[idx]])
		return int64(dist[int(pa)*dn+int(pb)]),
			int64(dist[int(swapMap32(pa, a, b))*dn+int(swapMap32(pb, a, b))])
	}
	base := st.ready2QSum - int64(dist[int(a)*dn+int(b)])
	curF, swpF := base, base
	for _, s := range st.fd.SuccsOf(st.mirrorSkip) {
		if q1[s] >= 0 {
			c, w := pairDist(s)
			curF += c
			swpF += w
		}
	}
	current = float64(curF)
	swapped = float64(swpF)
	var curE, swpE int64
	haveExt := false
	for _, idx := range st.window() {
		if q1[idx] >= 0 {
			haveExt = true
			c, w := pairDist(idx)
			curE += c
			swpE += w
		}
	}
	if haveExt {
		current += extendedSetWeight * float64(curE)
		swapped += extendedSetWeight * float64(swpE)
	}
	return current, swapped
}
