package transpile_test

import (
	"testing"

	"repro/internal/bench"
	"repro/internal/circuit"
	"repro/internal/gates"
	"repro/internal/mirage"
	"repro/internal/sabre"
	"repro/internal/topology"
	"repro/internal/transpile"
)

func quickOpts(router transpile.Router, depth bool) transpile.Options {
	return transpile.Options{
		Router:         router,
		DepthSelection: depth,
		Layout: sabre.LayoutOptions{
			LayoutTrials:  4,
			RoutingTrials: 4,
			FwdBwdPasses:  2,
			Seed:          7,
		},
	}
}

func TestTrivialLayoutShortCircuit(t *testing.T) {
	// GHZ is a line: it embeds in any line topology SWAP-free, so
	// neither router is invoked (paper Section V).
	c := bench.GHZ(5)
	rep, err := transpile.Transpile(c, topology.Line(8), quickOpts(transpile.SABRE, false))
	if err != nil {
		t.Fatal(err)
	}
	if !rep.TrivialLayout {
		t.Fatal("GHZ on a line should take the trivial-layout path")
	}
	if rep.SwapsInserted != 0 || rep.MirrorsUsed != 0 {
		t.Fatal("trivial layout must not insert SWAPs or mirrors")
	}
	// Both routers behave identically here.
	rep2, err := transpile.Transpile(c, topology.Line(8), quickOpts(transpile.MIRAGE, true))
	if err != nil {
		t.Fatal(err)
	}
	if rep2.DepthTime != rep.DepthTime {
		t.Fatalf("trivial-path depth differs between routers: %g vs %g", rep.DepthTime, rep2.DepthTime)
	}
}

func TestFig8TwoLocalOnLine(t *testing.T) {
	// Paper Fig. 8: TwoLocal (full entanglement, 4 qubits) on a 4-qubit
	// line. Qiskit needs 16 sqrt-iSWAP pulses with 3 SWAPs; MIRAGE
	// finds 10 pulses and no explicit SWAPs. We check the qualitative
	// claims: MIRAGE strictly reduces depth and eliminates most SWAPs.
	c := bench.TwoLocal(4)
	topo := topology.Line(4)

	sabreRep, err := transpile.Transpile(c, topo, quickOpts(transpile.SABRE, false))
	if err != nil {
		t.Fatal(err)
	}
	mirageRep, err := transpile.Transpile(c, topo, quickOpts(transpile.MIRAGE, true))
	if err != nil {
		t.Fatal(err)
	}
	if sabreRep.TrivialLayout || mirageRep.TrivialLayout {
		t.Fatal("TwoLocal(full) cannot have a SWAP-free line layout")
	}
	if sabreRep.SwapsInserted == 0 {
		t.Fatal("baseline should need SWAPs for full entanglement on a line")
	}
	if mirageRep.DepthPulses >= sabreRep.DepthPulses {
		t.Fatalf("MIRAGE depth %.1f pulses did not beat SABRE %.1f",
			mirageRep.DepthPulses, sabreRep.DepthPulses)
	}
	if mirageRep.MirrorsUsed == 0 {
		t.Fatal("MIRAGE used no mirror gates on the Fig. 8 workload")
	}
	if mirageRep.SwapsInserted >= sabreRep.SwapsInserted {
		t.Fatalf("MIRAGE swaps %d not fewer than SABRE %d",
			mirageRep.SwapsInserted, sabreRep.SwapsInserted)
	}
}

func TestTranspiledCircuitRespectsTopology(t *testing.T) {
	c := bench.QFT(6)
	topo := topology.Ring(8)
	for _, router := range []transpile.Router{transpile.SABRE, transpile.MIRAGE} {
		rep, err := transpile.Transpile(c, topo, quickOpts(router, router == transpile.MIRAGE))
		if err != nil {
			t.Fatal(err)
		}
		for _, op := range rep.Routed.Ops {
			if op.Is2Q() && !topo.HasEdge(op.Qubits[0], op.Qubits[1]) {
				t.Fatalf("%v: routed op %v violates coupling", router, op)
			}
		}
	}
}

func TestTranspileUnitaryEquivalenceSmall(t *testing.T) {
	// Full-pipeline equivalence: unroll + SWAP elision + consolidate +
	// route (with mirrors) must preserve the circuit unitary up to the
	// initial and final layout permutations, on the routed path and on
	// the trivial-layout path alike.
	mixed := circuit.New("small", 4)
	mixed.Add(gates.H(), 0)
	mixed.Add(gates.CX(), 0, 2)
	mixed.Add(gates.CPhase(0.7), 1, 3)
	mixed.Add(gates.CX(), 2, 1)
	mixed.Add(circuit.Toffoli(), 0, 1, 3)
	mixed.Add(gates.CX(), 3, 0)
	withSwap := mixed.Copy()
	withSwap.Name = "small_swap"
	withSwap.Add(gates.SWAP(), 0, 1)
	withSwap.Add(gates.CX(), 1, 2)
	// cx(1,2) after the elided swap(0,1) acts on wires 0 and 2: the
	// interaction path 1-0-2 embeds in the line without routing.
	trivial := circuit.New("trivial", 4)
	trivial.Add(gates.H(), 1)
	trivial.Add(gates.CX(), 0, 1)
	trivial.Add(gates.SWAP(), 0, 1)
	trivial.Add(gates.CX(), 1, 2)
	topo := topology.Line(4)

	for _, tc := range []struct {
		c       *circuit.Circuit
		trivial bool
	}{{mixed, false}, {withSwap, false}, {trivial, true}} {
		ul, err := circuit.UnrollTo2Q(tc.c).Unitary()
		if err != nil {
			t.Fatal(err)
		}
		for _, router := range []transpile.Router{transpile.SABRE, transpile.MIRAGE} {
			opts := quickOpts(router, router == transpile.MIRAGE)
			opts.SkipTrivialLayout = !tc.trivial
			rep, err := transpile.Transpile(tc.c, topo, opts)
			if err != nil {
				t.Fatal(err)
			}
			if rep.TrivialLayout != tc.trivial {
				t.Fatalf("%s/%v: TrivialLayout = %v, want %v", tc.c.Name, router, rep.TrivialLayout, tc.trivial)
			}
			ur, err := rep.Routed.Unitary()
			if err != nil {
				t.Fatal(err)
			}
			pin := circuit.PermutationMatrix(rep.InitialLayout.L2P)
			pout := circuit.PermutationMatrix(circuit.InversePermutation(rep.FinalLayout.L2P))
			got := pout.Mul(ur).Mul(pin)
			if !got.EqualUpToGlobalPhase(ul, 1e-6) {
				t.Fatalf("%s/%v pipeline broke the unitary (diff %g, mirrors=%d, swaps=%d)",
					tc.c.Name, router, got.MaxAbsDiff(ul), rep.MirrorsUsed, rep.SwapsInserted)
			}
		}
	}
}

func TestMirageReducesSwapsOnBenchmarks(t *testing.T) {
	if testing.Short() {
		t.Skip("routing benchmark comparison is slow")
	}
	// The paper's headline: MIRAGE eliminates most SWAPs and reduces
	// depth on real workloads. Use a small benchmark to keep runtime
	// in check.
	c := bench.WState(10)
	topo := topology.Grid(3, 4)
	sabreRep, err := transpile.Transpile(c, topo, quickOpts(transpile.SABRE, false))
	if err != nil {
		t.Fatal(err)
	}
	mirageRep, err := transpile.Transpile(c, topo, quickOpts(transpile.MIRAGE, true))
	if err != nil {
		t.Fatal(err)
	}
	if mirageRep.DepthTime > sabreRep.DepthTime {
		t.Fatalf("MIRAGE depth %.2f worse than SABRE %.2f", mirageRep.DepthTime, sabreRep.DepthTime)
	}
}

func TestFixedAggressionOption(t *testing.T) {
	c := bench.TwoLocal(4)
	topo := topology.Line(4)
	lvl := mirage.AggressionNever
	opts := quickOpts(transpile.MIRAGE, true)
	opts.FixedAggression = &lvl
	rep, err := transpile.Transpile(c, topo, opts)
	if err != nil {
		t.Fatal(err)
	}
	if rep.MirrorsUsed != 0 {
		t.Fatal("aggression 0 must never mirror")
	}
	lvl = mirage.AggressionAlways
	if rep, err = transpile.Transpile(c, topo, opts); err != nil {
		t.Fatal(err)
	}
	if rep.MirrorAcceptRate != 1 {
		t.Fatalf("aggression 3 mirrored %v of the 2Q gates, want all", rep.MirrorAcceptRate)
	}
	for _, bad := range []mirage.Aggression{-1, 4} {
		lvl = bad
		if _, err := transpile.Transpile(c, topo, opts); err == nil {
			t.Fatalf("fixed aggression %d was accepted", bad)
		}
	}
}

func TestReportMetricsConsistency(t *testing.T) {
	c := bench.TwoLocal(4)
	rep, err := transpile.Transpile(c, topology.Line(4), quickOpts(transpile.MIRAGE, true))
	if err != nil {
		t.Fatal(err)
	}
	if rep.DepthPulses < 1 || rep.TotalBasisGates < rep.DepthPulses {
		t.Fatalf("inconsistent metrics: pulses=%.1f total=%.1f", rep.DepthPulses, rep.TotalBasisGates)
	}
	if rep.DepthTime != rep.DepthPulses*0.5 {
		t.Fatalf("sqrt-iSWAP depth time %g != pulses %g * 0.5", rep.DepthTime, rep.DepthPulses)
	}
	if rep.Summary() == "" {
		t.Fatal("empty summary")
	}
}

// TestAdaptiveKnobsThreadThrough: Layout.ConvergencePatience must
// reach the trial scheduler (trials-executed < budget on a converging
// circuit), stay deterministic across Parallelism, and the report must
// carry the schedule that produced it.
func TestAdaptiveKnobsThreadThrough(t *testing.T) {
	c := bench.QFT(8)
	topo := topology.Grid(3, 3)
	base := transpile.Options{
		Router:            transpile.MIRAGE,
		Layout:            sabre.LayoutOptions{LayoutTrials: 6, RoutingTrials: 6, FwdBwdPasses: 1, Seed: 7},
		SkipTrivialLayout: true,
	}

	full, err := transpile.Transpile(c, topo, base)
	if err != nil {
		t.Fatal(err)
	}
	if full.TrialsExecuted != 36 || full.TrialsBudgeted != 36 {
		t.Fatalf("fixed grid reported %d/%d trials, want 36/36", full.TrialsExecuted, full.TrialsBudgeted)
	}

	adaptive := base
	adaptive.Layout.ConvergencePatience = 4
	var ref *transpile.Report
	for _, par := range []int{1, 4} {
		adaptive.Parallelism = par
		rep, err := transpile.Transpile(c, topo, adaptive)
		if err != nil {
			t.Fatal(err)
		}
		if rep.TrialsExecuted >= rep.TrialsBudgeted {
			t.Fatalf("parallel=%d: patience 4 executed %d of %d trials — no early stop",
				par, rep.TrialsExecuted, rep.TrialsBudgeted)
		}
		if ref == nil {
			ref = rep
			continue
		}
		if rep.TrialsExecuted != ref.TrialsExecuted ||
			rep.DepthPulses != ref.DepthPulses ||
			rep.SwapsInserted != ref.SwapsInserted ||
			rep.MirrorsUsed != ref.MirrorsUsed {
			t.Fatalf("adaptive results differ across parallelism: %d trials depth=%g swaps=%d vs %d trials depth=%g swaps=%d",
				rep.TrialsExecuted, rep.DepthPulses, rep.SwapsInserted,
				ref.TrialsExecuted, ref.DepthPulses, ref.SwapsInserted)
		}
	}
}
