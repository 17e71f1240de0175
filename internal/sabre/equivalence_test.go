package sabre

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/circuit"
	"repro/internal/gates"
	"repro/internal/topology"
	"repro/internal/weyl"
)

// costMirror mirrors whenever the summed routing heuristic improves.
// Running it under both Route (the engine prices both layouts in
// place) and RouteReference (the reference prices the live layout and
// a swapped copy) proves the two evaluations agree bit for bit: any
// disagreement flips a decision and the fingerprints diverge.
type costMirror struct{}

func (costMirror) Decide(ctx *MirrorContext) bool {
	cur, swapped := ctx.RoutingCosts()
	return swapped < cur
}

// consistentMirror checks, at every decision, that the engine's
// RoutingCosts agree bit for bit with a from-scratch recomputation on
// the live layout and on a swapped copy, then decides like costMirror.
// It reads the arena's engine state, so it runs under arena.route only.
type consistentMirror struct {
	t          *testing.T
	st         *routingState
	clean, bfs int // decisions made on the window a stall kept / on a fresh BFS
}

func (m *consistentMirror) Decide(ctx *MirrorContext) bool {
	if m.st.dirty {
		m.bfs++
	} else {
		m.clean++
	}
	cur, swapped := ctx.RoutingCosts()
	live := &m.st.layout
	trial := live.Copy()
	trial.SwapPhysical(live.Phys(ctx.Op.Qubits[0]), live.Phys(ctx.Op.Qubits[1]))
	for _, at := range []struct {
		name   string
		layout *topology.Layout
		fast   float64
	}{{"current", live, cur}, {"swapped", trial, swapped}} {
		if want := m.recompute(at.layout); want != at.fast {
			m.t.Errorf("op %d %s layout: RoutingCosts %v, recomputed %v (dirty=%v)",
				m.st.mirrorSkip, at.name, at.fast, want, m.st.dirty)
		}
	}
	return swapped < cur
}

// recompute is the summed mirror heuristic of the armed gate under l,
// from scratch: the other ready 2Q gates and the gate's 2Q successors,
// plus the weighted 2Q ops of a fresh lookahead BFS.
func (m *consistentMirror) recompute(l *topology.Layout) float64 {
	st := m.st
	dist := func(idx int32) int64 {
		return int64(st.topo.Distance(l.L2P[st.fd.Q0[idx]], l.L2P[st.fd.Q1[idx]]))
	}
	var front, ext int64
	for idx := st.tr.ReadyFirst(); idx >= 0; idx = st.tr.ReadyNext(idx) {
		if int(idx) != st.mirrorSkip && st.fd.Q1[idx] >= 0 {
			front += dist(idx)
		}
	}
	for _, s := range st.fd.SuccsOf(st.mirrorSkip) {
		if st.fd.Q1[s] >= 0 {
			front += dist(s)
		}
	}
	h := float64(front)
	haveExt := false
	for _, idx := range st.tr.Descendants(st.opts.ExtendedSetSize) {
		if st.fd.Q1[idx] >= 0 {
			haveExt = true
			ext += dist(idx)
		}
	}
	if haveExt {
		h += st.opts.ExtendedSetWeight * float64(ext)
	}
	return h
}

// TestMirrorDecisionCostsConsistent runs consistentMirror over the
// equivalence cases under three option sets and requires decisions on
// both window paths: right after a stall SWAP (the ready set is
// unchanged, so the decision reads the window the stall kept) and
// after an executed gate (a fresh BFS). A decision that reads a kept
// window after the ready set moved fails the recomputation.
func TestMirrorDecisionCostsConsistent(t *testing.T) {
	arena := newTrialArena()
	m := &consistentMirror{t: t, st: &arena.st}
	for _, opts := range []Options{{}, {ExtendedSetSize: 3}, {ExtendedSetWeight: 1.7, DecayRate: 0.1}} {
		for _, tc := range equivCases(t) {
			arena.rng.Seed(tc.seed)
			if _, err := arena.route(circuit.BuildFlatDAG(tc.circ), newMirrorTable(tc.circ), tc.topo, tc.layout,
				opts, arena.rng, m, nil, false); err != nil {
				t.Fatal(err)
			}
		}
	}
	if m.clean == 0 || m.bfs == 0 {
		t.Fatalf("%d decisions on a kept window, %d on a fresh BFS; want both paths covered", m.clean, m.bfs)
	}
	t.Logf("%d decisions on a kept window, %d on a fresh BFS", m.clean, m.bfs)
}

// equivCase is one randomized (circuit, topology, seed) instance.
type equivCase struct {
	name   string
	topo   *topology.Topology
	circ   *circuit.Circuit
	layout *topology.Layout
	seed   int64
}

func randomCircuit(name string, qubits, twoQ int, rng *rand.Rand) *circuit.Circuit {
	c := circuit.New(name, qubits)
	for g := 0; g < twoQ; g++ {
		a, b := rng.Intn(qubits), rng.Intn(qubits)
		if a == b {
			continue
		}
		switch rng.Intn(4) {
		case 0:
			c.Add(gates.CX(), a, b)
		case 1:
			c.Add(gates.CPhase(rng.Float64()*3), a, b)
		case 2:
			c.Add(gates.SWAP(), a, b)
		default:
			c.Add(gates.RY(rng.Float64()*3), a)
		}
	}
	return c
}

func equivCases(t *testing.T) []equivCase {
	t.Helper()
	topos := []*topology.Topology{
		topology.Line(7),
		topology.Ring(8),
		topology.Grid(3, 4),
		topology.Grid(5, 5),
		topology.HeavyHex(1, 5),
		topology.AllToAll(6),
	}
	var cases []equivCase
	caseRng := rand.New(rand.NewSource(2024))
	for i := 0; i < 24; i++ {
		topo := topos[i%len(topos)]
		q := 3 + caseRng.Intn(topo.NumQubits-2)
		c := randomCircuit(fmt.Sprintf("equiv-%d", i), q, 8+caseRng.Intn(30), caseRng)
		layout := RandomLayout(q, topo, caseRng)
		cases = append(cases, equivCase{
			name:   fmt.Sprintf("case%02d_%s_q%d", i, topo.Name, q),
			topo:   topo,
			circ:   c,
			layout: layout,
			seed:   caseRng.Int63(),
		})
	}
	return cases
}

// TestRouteMatchesReference is the engine's equivalence property: the
// incremental engine must reproduce the naive recompute formulation
// bit-identically — same SWAP sequence, same mirror decisions, same
// RNG consumption — across randomized circuits, topologies, layouts
// and seeds, with and without mirror policies.
func TestRouteMatchesReference(t *testing.T) {
	policies := []struct {
		name   string
		policy MirrorPolicy
	}{
		{"nopolicy", nil},
		{"parity", parityMirror{}},
		{"costbased", costMirror{}},
	}
	for _, tc := range equivCases(t) {
		for _, p := range policies {
			t.Run(tc.name+"/"+p.name, func(t *testing.T) {
				ref, err := RouteReference(mustPrepare(t, tc.circ, tc.topo), tc.layout, Options{},
					rand.New(rand.NewSource(tc.seed)), p.policy)
				if err != nil {
					t.Fatal(err)
				}
				got, err := Route(tc.circ, tc.topo, tc.layout, Options{},
					rand.New(rand.NewSource(tc.seed)), p.policy)
				if err != nil {
					t.Fatal(err)
				}
				if !sameFingerprint(routingFingerprint(ref), routingFingerprint(got)) {
					t.Fatalf("engine diverged from reference: ref swaps=%d mirrors=%d ops=%d, got swaps=%d mirrors=%d ops=%d",
						ref.SwapsInserted, ref.MirrorsUsed, len(ref.Routed.Ops),
						got.SwapsInserted, got.MirrorsUsed, len(got.Routed.Ops))
				}
			})
		}
	}
}

// TestRouteEquivalenceLongRandomWalk stresses the incremental distance
// bookkeeping over long swap streaks (a line topology forces many
// consecutive stalls between executions, the worst case for cache
// staleness bugs).
func TestRouteEquivalenceLongRandomWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(5150))
	topo := topology.Line(12)
	for trial := 0; trial < 6; trial++ {
		c := randomCircuit(fmt.Sprintf("walk-%d", trial), 12, 40, rng)
		layout := RandomLayout(12, topo, rng)
		seed := rng.Int63()
		ref, err := RouteReference(mustPrepare(t, c, topo), layout, Options{}, rand.New(rand.NewSource(seed)), parityMirror{})
		if err != nil {
			t.Fatal(err)
		}
		got, err := Route(c, topo, layout, Options{}, rand.New(rand.NewSource(seed)), parityMirror{})
		if err != nil {
			t.Fatal(err)
		}
		if !sameFingerprint(routingFingerprint(ref), routingFingerprint(got)) {
			t.Fatalf("trial %d: engine diverged from reference on line topology", trial)
		}
	}
}

// coordRecorder mirrors like parityMirror and records, per decision,
// the mirror coordinate the router offered by slot, and counts the
// decisions whose offered slot is not the class list's mirror of the
// op's own class or whose coordinate is not weyl.Mirror of the op's.
type coordRecorder struct {
	offered []weyl.Coordinate
	wrong   int
}

func (r *coordRecorder) Decide(ctx *MirrorContext) bool {
	mc := ctx.Classes.Coords[ctx.MirrorClass]
	if ctx.Classes.Mirror[ctx.Class] != ctx.MirrorClass || ctx.Classes.Coords[ctx.Class] != circuit.OpCoordinate(ctx.Op) ||
		mc != mirrorCoord(ctx.Op) {
		r.wrong++
	}
	r.offered = append(r.offered, mc)
	return costParity(ctx)
}

// TestMirrorDataMatchesReference: the engine reads each op's mirror
// coordinate and mirror gate from the per-circuit table, the reference
// recomputes them per decision. Both must offer the policy the same
// coordinate on every decision and emit every accepted mirror with the
// same gate matrix and the same coordinate annotation — the mirror of
// the op's own coordinate, which the emitted gate really has.
func TestMirrorDataMatchesReference(t *testing.T) {
	for _, tc := range equivCases(t) {
		engPolicy, refPolicy := &coordRecorder{}, &coordRecorder{}
		ref, err := RouteReference(mustPrepare(t, tc.circ, tc.topo), tc.layout, Options{},
			rand.New(rand.NewSource(tc.seed)), refPolicy)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Route(tc.circ, tc.topo, tc.layout, Options{},
			rand.New(rand.NewSource(tc.seed)), engPolicy)
		if err != nil {
			t.Fatal(err)
		}
		if len(engPolicy.offered) != len(refPolicy.offered) {
			t.Fatalf("%s: %d decisions vs reference %d", tc.name, len(engPolicy.offered), len(refPolicy.offered))
		}
		if engPolicy.wrong+refPolicy.wrong != 0 {
			t.Fatalf("%s: %d engine and %d reference decisions offered a slot or coordinate other than the op's mirror",
				tc.name, engPolicy.wrong, refPolicy.wrong)
		}
		for i, c := range engPolicy.offered {
			if c != refPolicy.offered[i] {
				t.Fatalf("%s decision %d: engine offered %v, reference %v", tc.name, i, c, refPolicy.offered[i])
			}
		}
		for i, op := range got.Routed.Ops {
			if !op.Mirrored {
				continue
			}
			rop := ref.Routed.Ops[i]
			if op.Coord == nil || rop.Coord == nil || *op.Coord != *rop.Coord {
				t.Fatalf("%s op %d: mirror annotation %v, reference %v", tc.name, i, op.Coord, rop.Coord)
			}
			if op.Gate.Matrix().MaxAbsDiff(rop.Gate.Matrix()) != 0 {
				t.Fatalf("%s op %d: mirror gate differs from the reference's", tc.name, i)
			}
			actual := weyl.MustCoordinateOf(op.Gate.Matrix())
			if !actual.ApproxEqual(*op.Coord, 1e-7) {
				t.Fatalf("%s op %d: annotated %v, gate is at %v", tc.name, i, *op.Coord, actual)
			}
		}
	}
}

// matchReference routes every equivalence case under opts with each
// test policy (none, parity, cost-based) through the engine and the
// reference, and fails on the first diverging fingerprint.
func matchReference(t *testing.T, opts Options) {
	t.Helper()
	for _, tc := range equivCases(t) {
		for _, policy := range []MirrorPolicy{nil, parityMirror{}, costMirror{}} {
			ref, err := RouteReference(mustPrepare(t, tc.circ, tc.topo), tc.layout, opts,
				rand.New(rand.NewSource(tc.seed)), policy)
			if err != nil {
				t.Fatal(err)
			}
			got, err := Route(tc.circ, tc.topo, tc.layout, opts,
				rand.New(rand.NewSource(tc.seed)), policy)
			if err != nil {
				t.Fatal(err)
			}
			if !sameFingerprint(routingFingerprint(ref), routingFingerprint(got)) {
				t.Fatalf("%+v %s policy %T: engine diverged from reference (swaps %d vs %d)",
					opts, tc.name, policy, got.SwapsInserted, ref.SwapsInserted)
			}
		}
	}
}

// TestRouteMatchesReferenceWindowSizes runs the equivalence property
// across lookahead windows and decay-reset intervals. The engine sizes
// its per-qubit window partner rows by ExtendedSetSize, so every
// window size is a different memory layout; the reset interval moves
// where the decay reset lands relative to the SWAP sequence.
func TestRouteMatchesReferenceWindowSizes(t *testing.T) {
	for _, window := range []int{1, 3, 20, 64} {
		for _, reset := range []int{1, 5} {
			matchReference(t, Options{ExtendedSetSize: window, DecayResetInterval: reset})
		}
	}
}

// TestRouteMatchesReferenceWeights runs the equivalence property under
// non-dyadic window weights and decay rates. Both enter the candidate
// score and its window lower bound as floats, so a bound that rounds
// differently from the score, or skips a candidate that could still
// tie and draw from the generator, diverges here; a fast decay rate
// makes the decay factor, and so the skips, vary across stalls.
func TestRouteMatchesReferenceWeights(t *testing.T) {
	for _, w := range []float64{0.3, 1.7} {
		for _, rate := range []float64{0.001, 0.1} {
			matchReference(t, Options{ExtendedSetWeight: w, DecayRate: rate})
		}
	}
}
