package sabre_test

// The engine against the reference router (reference_test.go) under
// the production mirror policy, which lives in package mirage: an
// external test, since mirage imports sabre.

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/circuit"
	"repro/internal/gates"
	"repro/internal/mirage"
	"repro/internal/polytope"
	"repro/internal/sabre"
	"repro/internal/topology"
)

// TestEndToEndPolicyDecisionsMatchReferenceRouter routes random
// consolidated circuits with the real polytope policy, priced through
// a cost table built over the prepared blocks' class list, under both
// the incremental engine (a TrialRunner on the prepared blocks, routing
// costs evaluated in place) and the reference router
// (routing costs of a copied, swapped layout). The routed op
// sequences — gate, physical qubits, mirror and router-SWAP flags —
// and both layouts must be identical, on two topologies, several
// seeds and both cost-comparing aggression levels.
func TestEndToEndPolicyDecisionsMatchReferenceRouter(t *testing.T) {
	cov := polytope.NewISwapRootCoverage(2)
	for _, topo := range []*topology.Topology{topology.Grid(3, 3), topology.HeavyHex(1, 5)} {
		mirrors := 0
		for seed := int64(1); seed <= 4; seed++ {
			rng := rand.New(rand.NewSource(seed))
			n := topo.NumQubits
			c := circuit.New("policyref", n)
			for g := 0; g < 40; g++ {
				a, b := rng.Intn(n), rng.Intn(n)
				if a == b {
					continue
				}
				if rng.Intn(3) == 0 {
					c.Add(gates.CPhase(rng.Float64()*3), a, b)
				} else {
					c.Add(gates.CX(), a, b)
				}
			}
			pc, err := sabre.PrepareCircuit(circuit.ConsolidateBlocks(c), topo)
			if err != nil {
				t.Fatal(err)
			}
			costs := mirage.NewCostTable(cov, pc.Classes())
			runner := sabre.NewTrialRunner(pc)
			layout := sabre.RandomLayout(n, topo, rng)
			for _, level := range []mirage.Aggression{mirage.AggressionLower, mirage.AggressionEqual} {
				name := fmt.Sprintf("%s seed %d level %d", topo.Name, seed, level)
				engine, err := runner.Run(layout, sabre.Options{}, seed, mirage.NewPolicy(costs, level))
				if err != nil {
					t.Fatal(err)
				}
				reference, err := sabre.RouteReference(pc, layout, sabre.Options{},
					rand.New(rand.NewSource(seed)), mirage.NewPolicy(costs, level))
				if err != nil {
					t.Fatal(err)
				}
				sameRouting(t, name, engine, reference)
				mirrors += engine.MirrorsUsed
			}
		}
		if mirrors == 0 {
			t.Fatalf("%s: the policy accepted no mirror", topo.Name)
		}
	}
}

// sameRouting fails unless got and want routed the same ops onto the
// same wires, with the same mirror and router-SWAP flags, between the
// same layouts.
func sameRouting(t *testing.T, name string, got, want *sabre.Result) {
	t.Helper()
	if len(got.Routed.Ops) != len(want.Routed.Ops) {
		t.Fatalf("%s: %d routed ops, reference %d", name, len(got.Routed.Ops), len(want.Routed.Ops))
	}
	for i, op := range got.Routed.Ops {
		ref := want.Routed.Ops[i]
		if op.Gate.Name != ref.Gate.Name || !slices.Equal(op.Qubits, ref.Qubits) ||
			op.Mirrored != ref.Mirrored || op.RouterSwap != ref.RouterSwap {
			t.Fatalf("%s op %d: %s on %v (mirrored %v, router SWAP %v), reference %s on %v (mirrored %v, router SWAP %v)",
				name, i, op.Gate.Name, op.Qubits, op.Mirrored, op.RouterSwap,
				ref.Gate.Name, ref.Qubits, ref.Mirrored, ref.RouterSwap)
		}
	}
	for _, l := range []struct {
		which     string
		got, want *topology.Layout
	}{{"initial", got.InitialLayout, want.InitialLayout}, {"final", got.FinalLayout, want.FinalLayout}} {
		if !slices.Equal(l.got.L2P, l.want.L2P) || !slices.Equal(l.got.P2L, l.want.P2L) {
			t.Fatalf("%s: %s layout %v, reference %v", name, l.which, l.got.L2P, l.want.L2P)
		}
	}
}
