package transpile

import (
	"testing"

	"repro/internal/bench"
	"repro/internal/circuit"
	"repro/internal/gates"
	"repro/internal/mirage"
	"repro/internal/sabre"
	"repro/internal/topology"
)

func quickOpts(router Router, depth bool) Options {
	return Options{
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
	rep, err := Transpile(c, topology.Line(8), quickOpts(SABRE, false))
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
	rep2, err := Transpile(c, topology.Line(8), quickOpts(MIRAGE, true))
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

	sabreRep, err := Transpile(c, topo, quickOpts(SABRE, false))
	if err != nil {
		t.Fatal(err)
	}
	mirageRep, err := Transpile(c, topo, quickOpts(MIRAGE, true))
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
	for _, router := range []Router{SABRE, MIRAGE} {
		rep, err := Transpile(c, topo, quickOpts(router, router == MIRAGE))
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
	// Full-pipeline equivalence: unroll + consolidate + route (with
	// mirrors) must preserve the circuit unitary up to the final
	// layout permutation.
	c := circuit.New("small", 4)
	c.Add(gates.H(), 0)
	c.Add(gates.CX(), 0, 2)
	c.Add(gates.CPhase(0.7), 1, 3)
	c.Add(gates.CX(), 2, 1)
	c.Add(circuit.Toffoli(), 0, 1, 3)
	c.Add(gates.CX(), 3, 0)
	topo := topology.Line(4)

	for _, router := range []Router{SABRE, MIRAGE} {
		opts := quickOpts(router, router == MIRAGE)
		opts.SkipTrivialLayout = true
		rep, err := Transpile(c, topo, opts)
		if err != nil {
			t.Fatal(err)
		}
		ul, err := circuit.UnrollTo2Q(c).Unitary()
		if err != nil {
			t.Fatal(err)
		}
		ur, err := rep.Routed.Unitary()
		if err != nil {
			t.Fatal(err)
		}
		pin := circuit.PermutationMatrix(rep.InitialLayout.L2P)
		pout := circuit.PermutationMatrix(circuit.InversePermutation(rep.FinalLayout.L2P))
		got := pout.Mul(ur).Mul(pin)
		if !got.EqualUpToGlobalPhase(ul, 1e-6) {
			t.Fatalf("%v pipeline broke the unitary (diff %g, mirrors=%d, swaps=%d)",
				router, got.MaxAbsDiff(ul), rep.MirrorsUsed, rep.SwapsInserted)
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
	sabreRep, err := Transpile(c, topo, quickOpts(SABRE, false))
	if err != nil {
		t.Fatal(err)
	}
	mirageRep, err := Transpile(c, topo, quickOpts(MIRAGE, true))
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
	opts := quickOpts(MIRAGE, true)
	opts.FixedAggression = &lvl
	rep, err := Transpile(c, topo, opts)
	if err != nil {
		t.Fatal(err)
	}
	if rep.MirrorsUsed != 0 {
		t.Fatal("aggression 0 must never mirror")
	}
}

func TestReportMetricsConsistency(t *testing.T) {
	c := bench.TwoLocal(4)
	rep, err := Transpile(c, topology.Line(4), quickOpts(MIRAGE, true))
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

// TestAdaptiveKnobsThreadThrough: Options.ConvergencePatience must
// reach the trial scheduler (trials-executed < budget on a converging
// circuit), stay deterministic across Parallelism, and the report must
// carry the schedule that produced it.
func TestAdaptiveKnobsThreadThrough(t *testing.T) {
	c := bench.QFT(8)
	topo := topology.Grid(3, 3)
	base := Options{
		Router:            MIRAGE,
		Layout:            sabre.LayoutOptions{LayoutTrials: 6, RoutingTrials: 6, FwdBwdPasses: 1, Seed: 7},
		SkipTrivialLayout: true,
	}

	full, err := Transpile(c, topo, base)
	if err != nil {
		t.Fatal(err)
	}
	if full.TrialsExecuted != 36 || full.TrialsBudgeted != 36 {
		t.Fatalf("fixed grid reported %d/%d trials, want 36/36", full.TrialsExecuted, full.TrialsBudgeted)
	}

	adaptive := base
	adaptive.ConvergencePatience = 4
	var ref *Report
	for _, par := range []int{1, 4} {
		adaptive.Parallelism = par
		rep, err := Transpile(c, topo, adaptive)
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
