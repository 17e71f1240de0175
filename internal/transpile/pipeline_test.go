package transpile_test

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/bench"
	"repro/internal/circuit"
	"repro/internal/gates"
	"repro/internal/polytope"
	"repro/internal/sabre"
	"repro/internal/topology"
	"repro/internal/transpile"
)

func TestTranspileFromQASMSource(t *testing.T) {
	src := `
OPENQASM 2.0;
include "qelib1.inc";
qreg q[4];
h q[0];
cx q[0],q[2];
cp(pi/4) q[1],q[3];
ccx q[0],q[1],q[3];
cx q[3],q[0];
`
	c, err := circuit.ParseQASM(src)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := transpile.Transpile(c, topology.Line(4), quickOpts(transpile.MIRAGE, true))
	if err != nil {
		t.Fatal(err)
	}
	if rep.DepthPulses <= 0 {
		t.Fatal("QASM pipeline produced empty output")
	}
}

func TestTranspileErrorOnOversizedCircuit(t *testing.T) {
	c := bench.GHZ(10)
	if _, err := transpile.Transpile(c, topology.Line(4), quickOpts(transpile.SABRE, false)); err == nil {
		t.Fatal("expected error for circuit larger than device")
	}
}

func TestTranspileDisconnectedTopologyFails(t *testing.T) {
	// Two disconnected pairs cannot route a gate across components.
	topo := topology.New("split", 4, [][2]int{{0, 1}, {2, 3}})
	c := circuit.New("cross", 4)
	c.Add(gates.CX(), 0, 1)
	c.Add(gates.CX(), 1, 2) // crosses the cut
	opts := quickOpts(transpile.SABRE, false)
	opts.SkipTrivialLayout = true
	if _, err := transpile.Transpile(c, topo, opts); err == nil {
		t.Fatal("expected routing failure on a disconnected topology")
	}
}

func TestMirrorAcceptRateBounds(t *testing.T) {
	rep, err := transpile.Transpile(bench.TwoLocal(6), topology.Line(6), quickOpts(transpile.MIRAGE, true))
	if err != nil {
		t.Fatal(err)
	}
	if rep.MirrorAcceptRate < 0 || rep.MirrorAcceptRate > 1 {
		t.Fatalf("mirror acceptance rate %g out of [0, 1]", rep.MirrorAcceptRate)
	}
}

// Property: for any random small circuit, the MIRAGE pipeline output
// respects the device coupling and never loses 2Q interactions
// (total basis gates >= the input's 2Q block count).
func TestPropertyPipelineInvariants(t *testing.T) {
	topo := topology.Ring(6)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := circuit.New("prop", 6)
		for g := 0; g < 12; g++ {
			a, b := rng.Intn(6), rng.Intn(6)
			if a == b {
				continue
			}
			c.Add(gates.CPhase(rng.Float64()*3), a, b)
		}
		if c.Count2Q() == 0 {
			return true
		}
		opts := quickOpts(transpile.MIRAGE, true)
		opts.SkipTrivialLayout = true
		opts.Layout = sabre.LayoutOptions{LayoutTrials: 2, RoutingTrials: 2, FwdBwdPasses: 1, Seed: seed}
		rep, err := transpile.Transpile(c, topo, opts)
		if err != nil {
			return false
		}
		for _, op := range rep.Routed.Ops {
			if op.Is2Q() && !topo.HasEdge(op.Qubits[0], op.Qubits[1]) {
				return false
			}
		}
		return rep.DepthTime > 0 && rep.TotalBasisGates >= rep.DepthPulses
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

func TestDepthSelectionNeverWorseThanSwapSelection(t *testing.T) {
	// With identical trial budgets and seeds, selecting on depth must
	// yield depth <= selecting on swaps (both search the same trial
	// set).
	c := bench.TwoLocal(6)
	topo := topology.Line(6)
	base := quickOpts(transpile.MIRAGE, false)
	base.SkipTrivialLayout = true
	deep := quickOpts(transpile.MIRAGE, true)
	deep.SkipTrivialLayout = true
	s, err := transpile.Transpile(c, topo, base)
	if err != nil {
		t.Fatal(err)
	}
	d, err := transpile.Transpile(c, topo, deep)
	if err != nil {
		t.Fatal(err)
	}
	if d.DepthTime > s.DepthTime+1e-9 {
		t.Fatalf("depth selection (%g) worse than swap selection (%g)", d.DepthTime, s.DepthTime)
	}
}

func TestCNOTBasisTranspilation(t *testing.T) {
	// MIRAGE is basis-agnostic (its advantage shrinks for CNOT, as the
	// paper discusses, but the machinery must work).
	opts := quickOpts(transpile.MIRAGE, true)
	opts.Basis = polytope.NewCNOTCoverage()
	opts.SkipTrivialLayout = true
	rep, err := transpile.Transpile(bench.TwoLocal(5), topology.Line(5), opts)
	if err != nil {
		t.Fatal(err)
	}
	if rep.DepthPulses <= 0 {
		t.Fatal("CNOT-basis pipeline produced no output")
	}
}
