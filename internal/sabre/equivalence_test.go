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

// costMirror mirrors whenever the summed routing heuristic improves,
// using the engine's fast two-point evaluator when offered and the
// layout-copying slow path otherwise — exactly how the mirage policy
// consumes MirrorContext. Running it under both Route (fast path) and
// RouteReference (slow path) proves the two evaluators agree
// bit-for-bit: any disagreement flips a decision and the fingerprints
// diverge.
type costMirror struct{}

func (costMirror) Decide(ctx *MirrorContext) bool {
	var cur, swapped float64
	if ctx.RoutingCostSwap != nil {
		cur, swapped = ctx.RoutingCostSwap()
	} else {
		cur = ctx.RoutingCost(ctx.Layout)
		trial := ctx.Layout.Copy()
		trial.SwapPhysical(ctx.PhysA, ctx.PhysB)
		swapped = ctx.RoutingCost(trial)
	}
	return swapped < cur
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

// TestRouteMatchesReference is the tentpole equivalence property: the
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
				ref, err := RouteReference(tc.circ, tc.topo, tc.layout, Options{},
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
		ref, err := RouteReference(c, topo, layout, Options{}, rand.New(rand.NewSource(seed)), parityMirror{})
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
// the mirror coordinate the router offered (nil when absent).
type coordRecorder struct{ offered []*weyl.Coordinate }

func (r *coordRecorder) Decide(ctx *MirrorContext) bool {
	var c *weyl.Coordinate
	if ctx.MirrorCoord != nil {
		v := *ctx.MirrorCoord
		c = &v
	}
	r.offered = append(r.offered, c)
	return (ctx.PhysA+ctx.PhysB)%2 == 0
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
		ref, err := RouteReference(tc.circ, tc.topo, tc.layout, Options{},
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
		for i, c := range engPolicy.offered {
			if c == nil || refPolicy.offered[i] == nil || *c != *refPolicy.offered[i] {
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
