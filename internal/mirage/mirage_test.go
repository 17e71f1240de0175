package mirage

import (
	"math/rand"
	"testing"

	"repro/internal/circuit"
	"repro/internal/gates"
	"repro/internal/polytope"
	"repro/internal/sabre"
	"repro/internal/topology"
	"repro/internal/weyl"
)

func siswap() *polytope.CoverageSet { return polytope.NewISwapRootCoverage(2) }

// decisionFor offers op to a policy at layout, with the slots of op's
// class and of its mirror in the class list of a circuit holding op
// alone, and the two routing costs by the naive formulation: cost under
// layout and under a copy with op's physical qubits swapped. The
// returned table prices that list under cov.
func decisionFor(cov *polytope.CoverageSet, op circuit.Op, layout *topology.Layout,
	cost func(*topology.Layout) float64) (*CostTable, *sabre.MirrorContext) {

	classes, slots := circuit.NewClasses(&circuit.Circuit{Ops: []circuit.Op{op}})
	return NewCostTable(cov, classes), &sabre.MirrorContext{Op: op,
		Classes: classes, Class: slots[0], MirrorClass: classes.Mirror[slots[0]],
		RoutingCosts: func() (float64, float64) {
			swapped := layout.Copy()
			swapped.SwapPhysical(layout.Phys(op.Qubits[0]), layout.Phys(op.Qubits[1]))
			return cost(layout), cost(swapped)
		}}
}

// emptyTable prices the class list of a circuit without 2Q ops: the
// identity and the SWAP alone.
func emptyTable(cov *polytope.CoverageSet) *CostTable {
	classes, _ := circuit.NewClasses(&circuit.Circuit{})
	return NewCostTable(cov, classes)
}

func TestAggressionNeverAndAlways(t *testing.T) {
	cov := siswap()
	layout := topology.TrivialLayout(2, 2)
	op := circuit.Op{Gate: gates.CX(), Qubits: []int{0, 1}}
	flat := func(*topology.Layout) float64 { return 0 }

	costs, ctx := decisionFor(cov, op, layout, flat)
	if NewPolicy(costs, AggressionNever).Decide(ctx) {
		t.Fatal("aggression 0 accepted a mirror")
	}
	if !NewPolicy(costs, AggressionAlways).Decide(ctx) {
		t.Fatal("aggression 3 rejected a mirror")
	}
	// Neither level compares costs, so neither may ask the router for
	// the routing costs it evaluates on demand.
	unpriced := *ctx
	unpriced.RoutingCosts = func() (float64, float64) {
		t.Fatal("aggression 0 or 3 asked for the routing costs")
		return 0, 0
	}
	for _, level := range []Aggression{AggressionNever, AggressionAlways} {
		NewPolicy(costs, level).Decide(&unpriced)
	}
}

func TestAggressionLowerRequiresStrictImprovement(t *testing.T) {
	cov := siswap()
	layout := topology.TrivialLayout(2, 2)
	// CNOT and its mirror (CNS ~ iSWAP) cost the same in sqrt-iSWAP
	// (k=2 both, paper Fig. 1), so with a flat routing heuristic the
	// costs tie: level 1 must reject, level 2 must accept.
	op := circuit.Op{Gate: gates.CX(), Qubits: []int{0, 1}}
	flat := func(*topology.Layout) float64 { return 0 }
	costs, ctx := decisionFor(cov, op, layout, flat)
	if NewPolicy(costs, AggressionLower).Decide(ctx) {
		t.Fatal("aggression 1 accepted a cost-neutral mirror")
	}
	if !NewPolicy(costs, AggressionEqual).Decide(ctx) {
		t.Fatal("aggression 2 rejected a cost-neutral mirror")
	}
}

func TestDecideFavoursMirrorWhenRoutingImproves(t *testing.T) {
	cov := siswap()
	topo := topology.Line(3)
	layout := topology.TrivialLayout(3, 3)
	op := circuit.Op{Gate: gates.CX(), Qubits: []int{0, 1}}
	// Heuristic says a future gate wants qubit at physical 0 moved to
	// physical 1: the layout after the mirage swap scores better.
	cost := func(l *topology.Layout) float64 {
		// Future gate between logical 0 and logical 2.
		return float64(topo.Distance(l.Phys(0), l.Phys(2)))
	}
	costs, ctx := decisionFor(cov, op, layout, cost)
	if !NewPolicy(costs, AggressionLower).Decide(ctx) {
		t.Fatal("mirror with strictly better routing was rejected at level 1")
	}
}

func TestDecideRejectsMirrorWithDecompositionPenalty(t *testing.T) {
	cov := siswap()
	layout := topology.TrivialLayout(2, 2)
	// sqrt-iSWAP gate itself: k=1 (cost 0.5); its mirror is
	// (pi/4, pi/8, pi/8) which needs k=3 (cost 1.5). With no routing
	// benefit, levels 1 and 2 must reject.
	op := circuit.Op{Gate: gates.SqrtISwap(), Qubits: []int{0, 1}}
	flat := func(*topology.Layout) float64 { return 0 }
	costs, ctx := decisionFor(cov, op, layout, flat)
	if NewPolicy(costs, AggressionLower).Decide(ctx) {
		t.Fatal("level 1 accepted a decomposition-penalised mirror")
	}
	if NewPolicy(costs, AggressionEqual).Decide(ctx) {
		t.Fatal("level 2 accepted a decomposition-penalised mirror")
	}
}

func TestPolicyFactoryMixProportions(t *testing.T) {
	cov := siswap()
	factory := PolicyFactory(emptyTable(cov), DefaultMix)
	counts := map[Aggression]int{}
	const n = 400
	for i := 0; i < n; i++ {
		p := factory(i).(*Policy)
		counts[p.Aggression]++
	}
	// 5/45/45/5 distribution within generous tolerance.
	if counts[AggressionNever] < n/50 || counts[AggressionNever] > n/8 {
		t.Fatalf("level 0 count %d not near 5%% of %d", counts[AggressionNever], n)
	}
	if counts[AggressionLower] < n/3 || counts[AggressionEqual] < n/3 {
		t.Fatalf("levels 1/2 underrepresented: %v", counts)
	}
	if counts[AggressionAlways] < n/50 || counts[AggressionAlways] > n/8 {
		t.Fatalf("level 3 count %d not near 5%% of %d", counts[AggressionAlways], n)
	}
}

// TestPolicyFactoryOneHotMix: a mix with all its weight on one level
// gives every trial that level, which is how a fixed aggression runs.
func TestPolicyFactoryOneHotMix(t *testing.T) {
	costs := emptyTable(siswap())
	for level := AggressionNever; level <= AggressionAlways; level++ {
		var mix [4]float64
		mix[level] = 1
		factory := PolicyFactory(costs, mix)
		for trial := 0; trial < 1000; trial++ {
			if got := factory(trial).(*Policy).Aggression; got != level {
				t.Fatalf("one-hot mix on level %d gave trial %d level %d", level, trial, got)
			}
		}
	}
}

func TestGateWeightPricesMirrorsCorrectly(t *testing.T) {
	cov := siswap()
	w := GateWeight(cov)
	cx := circuit.Op{Gate: gates.CX(), Qubits: []int{0, 1}}
	if got := w(cx); got != 1.0 {
		t.Fatalf("CNOT weight = %g, want 1.0 (two sqrt-iSWAP pulses)", got)
	}
	swap := circuit.Op{Gate: gates.SWAP(), Qubits: []int{0, 1}, RouterSwap: true}
	if got := w(swap); got != 1.5 {
		t.Fatalf("SWAP weight = %g, want 1.5", got)
	}
	// A mirrored CNOT (CNS) is an iSWAP class gate: still 1.0 — the
	// absorbed SWAP is free.
	cns := circuit.Op{Gate: gates.CNS(), Qubits: []int{0, 1}, Mirrored: true}
	if got := w(cns); got != 1.0 {
		t.Fatalf("CNS weight = %g, want 1.0", got)
	}
	oneq := circuit.Op{Gate: gates.H(), Qubits: []int{0}}
	if got := w(oneq); got != 0 {
		t.Fatalf("1Q weight = %g, want 0", got)
	}
}

func TestDepthMetricOrdersResults(t *testing.T) {
	cov := siswap()
	metric := DepthMetric(emptyTable(cov))
	mk := func(withSwap bool) *sabre.Result {
		c := circuit.New("m", 3)
		c.Add(gates.CX(), 0, 1)
		if withSwap {
			// A SWAP on a different pair cannot be absorbed by
			// consolidation and must lengthen the critical path.
			c.Append(circuit.Op{Gate: gates.SWAP(), Qubits: []int{1, 2}, RouterSwap: true})
		}
		return &sabre.Result{Routed: c}
	}
	if metric(mk(true)) <= metric(mk(false)) {
		t.Fatal("depth metric does not penalise an unabsorbable SWAP")
	}
}

func TestDepthMetricAbsorbsSamePairSwap(t *testing.T) {
	// The flip side of the paper's Fig. 8b: a router SWAP adjacent to a
	// same-pair CNOT consolidates into a CNS block (iSWAP class) and
	// costs nothing extra.
	cov := siswap()
	metric := DepthMetric(emptyTable(cov))
	plain := circuit.New("p", 2)
	plain.Add(gates.CX(), 0, 1)
	merged := circuit.New("m", 2)
	merged.Add(gates.CX(), 0, 1)
	merged.Append(circuit.Op{Gate: gates.SWAP(), Qubits: []int{0, 1}, RouterSwap: true})
	if metric(&sabre.Result{Routed: merged}) != metric(&sabre.Result{Routed: plain}) {
		t.Fatal("same-pair SWAP was not absorbed by the metric")
	}
}

func TestMirrorCoordinateConsistency(t *testing.T) {
	// The mirrored gate emitted by the router (SWAP . U) must land at
	// the Weyl coordinate the policy predicted with weyl.Mirror.
	u := gates.CPhase(1.1).Matrix()
	mirrored := gates.SWAP().Matrix().Mul(u)
	predicted := weyl.Mirror(weyl.MustCoordinateOf(u))
	actual := weyl.MustCoordinateOf(mirrored)
	if !predicted.ApproxEqual(actual, 1e-7) {
		t.Fatalf("policy predicted %v, emitted gate is at %v", predicted, actual)
	}
}

func TestEndToEndMiragePreservesUnitary(t *testing.T) {
	// Route a random circuit with the real MIRAGE policy and verify the
	// routing contract including mirage swaps.
	cov := siswap()
	rng := rand.New(rand.NewSource(9))
	topo := topology.Line(4)
	for trial := 0; trial < 5; trial++ {
		c := circuit.New("e2e", 4)
		for g := 0; g < 10; g++ {
			a, b := rng.Intn(4), rng.Intn(4)
			if a == b {
				continue
			}
			c.Add(gates.CX(), a, b)
		}
		pc, err := sabre.PrepareCircuit(c, topo)
		if err != nil {
			t.Fatal(err)
		}
		policy := NewPolicy(NewCostTable(cov, pc.Classes()), AggressionEqual)
		res, err := sabre.NewTrialRunner(pc).Run(topology.TrivialLayout(4, 4), rng.Int63(), policy)
		if err != nil {
			t.Fatal(err)
		}
		ul, err := c.Unitary()
		if err != nil {
			t.Fatal(err)
		}
		ur, err := res.Routed.Unitary()
		if err != nil {
			t.Fatal(err)
		}
		pin := circuit.PermutationMatrix(res.InitialLayout.L2P)
		pout := circuit.PermutationMatrix(circuit.InversePermutation(res.FinalLayout.L2P))
		if !pout.Mul(ur).Mul(pin).EqualUpToGlobalPhase(ul, 1e-7) {
			t.Fatalf("MIRAGE routing broke the unitary (mirrors=%d)", res.MirrorsUsed)
		}
	}
}
