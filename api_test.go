package mirage

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/gates"
)

func TestFacadeQuickstartFlow(t *testing.T) {
	circ := QFT(4)
	topo := Line(4)
	rep, err := Transpile(circ, topo, Options{
		Router:         MIRAGE,
		DepthSelection: true,
		Layout:         LayoutOptions{LayoutTrials: 3, RoutingTrials: 3, FwdBwdPasses: 2, Seed: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.DepthPulses <= 0 || rep.Routed == nil {
		t.Fatal("facade transpile returned an empty report")
	}
}

func TestFacadeTranspileBatch(t *testing.T) {
	topo := Line(6)
	circs := []*Circuit{QFT(4), GHZ(5), TwoLocal(4)}
	reports, err := TranspileBatch(circs, topo, Options{
		Router:         MIRAGE,
		DepthSelection: true,
		Layout:         LayoutOptions{LayoutTrials: 2, RoutingTrials: 2, FwdBwdPasses: 1, Seed: 2},
		Parallelism:    2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != len(circs) {
		t.Fatalf("got %d reports for %d circuits", len(reports), len(circs))
	}
	for i, rep := range reports {
		if rep == nil || rep.Routed == nil {
			t.Fatalf("report %d is empty", i)
		}
	}
}

func TestFacadeQASMRoundTrip(t *testing.T) {
	c := NewCircuit("rt", 2)
	c.Add(gates.H(), 0)
	c.Add(gates.CX(), 0, 1)
	parsed, err := ParseQASM(WriteQASM(c))
	if err != nil {
		t.Fatal(err)
	}
	if parsed.Count2Q() != 1 {
		t.Fatal("facade QASM round trip lost gates")
	}
}

func TestFacadeMirrorKnownPair(t *testing.T) {
	coord, err := CoordinateOf(gates.CX().Matrix())
	if err != nil {
		t.Fatal(err)
	}
	mirror := Mirror(coord)
	// CNOT's mirror is the iSWAP class: (pi/4, pi/4, 0).
	if math.Abs(mirror.X-math.Pi/4) > 1e-7 || math.Abs(mirror.Y-math.Pi/4) > 1e-7 ||
		math.Abs(mirror.Z) > 1e-7 {
		t.Fatalf("Mirror(CNOT) = %v, want iSWAP class", mirror)
	}
}

func TestFacadeCoverageCosts(t *testing.T) {
	cov := SqrtISwapCoverage()
	cx, _ := CoordinateOf(gates.CX().Matrix())
	sw, _ := CoordinateOf(gates.SWAP().Matrix())
	if cov.CostOf(cx, false) != 1.0 {
		t.Fatal("CNOT must cost two sqrt-iSWAP pulses (1.0)")
	}
	if cov.CostOf(sw, false) != 1.5 {
		t.Fatal("SWAP must cost three sqrt-iSWAP pulses (1.5)")
	}
	if cov.CostOf(sw, true) != 0 {
		t.Fatal("mirrored SWAP must be free")
	}
}

func TestFacadeHaarScoreSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("Monte Carlo")
	}
	res := HaarScore(SqrtISwapCoverage(), HaarStrategy{Mirror: true}, 150, 3)
	if res.Score <= 0.9 || res.Score >= 1.2 {
		t.Fatalf("mirror Haar score %.3f out of plausible range", res.Score)
	}
}

func TestFacadeBenchmarkSuite(t *testing.T) {
	// 15 Table III rows plus the self-verifying Mirror family.
	suite := BenchmarkSuite()
	mirrors := 0
	for _, e := range suite {
		if e.Mirror != nil {
			mirrors++
		}
	}
	if paper := len(suite) - mirrors; paper != 15 {
		t.Fatalf("suite has %d paper circuits, want 15 (Table III)", paper)
	}
	if mirrors == 0 || mirrors != len(MirrorBenchmarkSuite()) {
		t.Fatalf("suite has %d mirror rows, want %d", mirrors, len(MirrorBenchmarkSuite()))
	}
}

func TestFacadeMirrorRoundTrip(t *testing.T) {
	spec := MirrorSpec{Kind: MirrorRandomizedClifford, Qubits: 4, Layers: 3, Seed: 11}
	m := GenerateMirror(spec)
	rep, err := Transpile(m.Circuit, Grid(2, 3), Options{
		Router: MIRAGE, DepthSelection: true,
		Layout: LayoutOptions{LayoutTrials: 2, RoutingTrials: 2, FwdBwdPasses: 1, Seed: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	fid, err := VerifyMirror(rep.Routed, rep.FinalLayout, m.Expected, 1e-9)
	if err != nil {
		t.Fatalf("transpiled mirror rejected: %v (fidelity %v)", err, fid)
	}
}

func TestFacadeCustomTopology(t *testing.T) {
	topo := NewTopology("tri", 3, [][2]int{{0, 1}, {1, 2}, {0, 2}})
	if !topo.HasEdge(0, 2) || topo.Distance(0, 2) != 1 {
		t.Fatal("custom topology misbehaves")
	}
}

func TestFacadeHaarSampleDeterministic(t *testing.T) {
	a := HaarSampleCoordinate(rand.New(rand.NewSource(5)))
	b := HaarSampleCoordinate(rand.New(rand.NewSource(5)))
	if !a.ApproxEqual(b, 0) {
		t.Fatal("Haar sampling is not deterministic for equal seeds")
	}
}

// TestLocalMinimaEscape is the Fig. 9 study as a test: a single greedy
// trial can land in a worse minimum than the best of several
// independent trials; the trial machinery must recover the best.
func TestLocalMinimaEscape(t *testing.T) {
	circ := NewCircuit("fig9", 4)
	circ.Add(gates.CX(), 0, 1)
	circ.Add(gates.CX(), 2, 3)
	circ.Add(gates.CX(), 0, 2)
	circ.Add(gates.CX(), 1, 3)
	circ.Add(gates.CX(), 0, 3)
	topo := Line(4)

	single, err := Transpile(circ, topo, Options{
		Router: MIRAGE, DepthSelection: true,
		Layout:            LayoutOptions{LayoutTrials: 1, RoutingTrials: 1, FwdBwdPasses: 1, Seed: 3},
		SkipTrivialLayout: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	many, err := Transpile(circ, topo, Options{
		Router: MIRAGE, DepthSelection: true,
		Layout:            LayoutOptions{LayoutTrials: 10, RoutingTrials: 10, FwdBwdPasses: 3, Seed: 3},
		SkipTrivialLayout: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if many.DepthPulses > single.DepthPulses {
		t.Fatalf("more trials made the result worse: %g vs %g",
			many.DepthPulses, single.DepthPulses)
	}
}
