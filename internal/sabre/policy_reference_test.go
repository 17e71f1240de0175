package sabre_test

// The engine against the reference router (reference_test.go) under
// the production mirror policy, which lives in package mirage: an
// external test, since mirage imports sabre.

import (
	"math/rand"
	"testing"

	"repro/internal/circuit"
	"repro/internal/gates"
	"repro/internal/mirage"
	"repro/internal/polytope"
	"repro/internal/sabre"
	"repro/internal/topology"
)

// TestEndToEndPolicyDecisionsMatchReferenceRouter routes a random
// circuit with the real polytope policy under both the incremental
// engine (fast path active) and the reference formulation (slow path
// only): identical outputs prove the production policy consumes both
// MirrorContext variants equivalently.
func TestEndToEndPolicyDecisionsMatchReferenceRouter(t *testing.T) {
	cov := polytope.NewISwapRootCoverage(2)
	rng := rand.New(rand.NewSource(88))
	topo := topology.Grid(3, 3)
	c := circuit.New("fastslow", 9)
	for g := 0; g < 30; g++ {
		a, b := rng.Intn(9), rng.Intn(9)
		if a == b {
			continue
		}
		c.Add(gates.CX(), a, b)
	}
	blocks := circuit.ConsolidateBlocks(c)
	layout := topology.TrivialLayout(9, 9)
	for _, level := range []mirage.Aggression{mirage.AggressionLower, mirage.AggressionEqual} {
		engine, err := sabre.Route(blocks, topo, layout, sabre.Options{},
			rand.New(rand.NewSource(6)), mirage.NewPolicy(mirage.NewCostTable(cov, nil), level))
		if err != nil {
			t.Fatal(err)
		}
		reference, err := sabre.RouteReference(blocks, topo, layout, sabre.Options{},
			rand.New(rand.NewSource(6)), mirage.NewPolicy(mirage.NewCostTable(cov, nil), level))
		if err != nil {
			t.Fatal(err)
		}
		if engine.MirrorsUsed != reference.MirrorsUsed ||
			engine.SwapsInserted != reference.SwapsInserted ||
			len(engine.Routed.Ops) != len(reference.Routed.Ops) {
			t.Fatalf("aggression %d: engine (mirrors=%d swaps=%d ops=%d) != reference (mirrors=%d swaps=%d ops=%d)",
				level, engine.MirrorsUsed, engine.SwapsInserted, len(engine.Routed.Ops),
				reference.MirrorsUsed, reference.SwapsInserted, len(reference.Routed.Ops))
		}
	}
}
