package sabre

import (
	"math/rand"
	"testing"

	"repro/internal/circuit"
	"repro/internal/gates"
	"repro/internal/topology"
)

// findBestRouting prepares c on topo and routes its grid: the one-shot
// call most tests make.
func findBestRouting(c *circuit.Circuit, topo *topology.Topology, opts LayoutOptions,
	metric Metric, factory PolicyFactory) (*Result, error) {

	pc, err := PrepareCircuit(c, topo)
	if err != nil {
		return nil, err
	}
	return FindBestRoutingPrepared(pc, opts, metric, factory)
}

// Route maps the logical circuit onto the topology starting from the
// given layout, inserting SWAPs as needed: one trial on a fresh arena,
// the unprepared twin of TrialRunner.Run that the tests route single
// trials with. All ops must act on at most two qubits. The input layout
// is not mutated. The class list is the call's own, so a policy that
// prices by class list (mirage) must route through TrialRunner on the
// PreparedCircuit its prices were listed from.
func Route(c *circuit.Circuit, topo *topology.Topology, initial *topology.Layout,
	rng *rand.Rand, policy MirrorPolicy) (*Result, error) {

	if err := validateRoutable(c, topo); err != nil {
		return nil, err
	}
	fd := circuit.BuildFlatDAG(c)
	// The arena is transient, so handing its buffers to the caller via
	// the Result is safe: nothing resets them afterwards.
	res, err := newTrialArena().route(fd, newMirrorTable(c), topo, initial, rng, policy, nil)
	if err != nil {
		return nil, err
	}
	finishMirrors(res.Routed.Ops)
	return res, nil
}

func newMirrorTable(c *circuit.Circuit) *mirrorTable {
	return &mirrorTable{circ: c, name: c.Name + "_routed"}
}

// padded returns the circuit extended to the full topology width so
// layouts are bijections and unitary contracts are exact.
func padded(c *circuit.Circuit, topo *topology.Topology) *circuit.Circuit {
	out := circuit.New(c.Name, topo.NumQubits)
	for _, op := range c.Ops {
		out.Append(op)
	}
	return out
}

// verifyRouting checks the routing contract:
// U(logical) = Perm(inv(finalL2P)) . U(routed) . Perm(initialL2P).
func verifyRouting(t *testing.T, logical *circuit.Circuit, res *Result) {
	t.Helper()
	ul, err := logical.Unitary()
	if err != nil {
		t.Fatal(err)
	}
	ur, err := res.Routed.Unitary()
	if err != nil {
		t.Fatal(err)
	}
	pin := circuit.PermutationMatrix(res.InitialLayout.L2P)
	pout := circuit.PermutationMatrix(circuit.InversePermutation(res.FinalLayout.L2P))
	got := pout.Mul(ur).Mul(pin)
	if !got.EqualUpToGlobalPhase(ul, 1e-7) {
		t.Fatalf("routing broke the unitary (diff %g)", got.MaxAbsDiff(ul))
	}
}

func TestRouteAdjacentGatesNoSwaps(t *testing.T) {
	topo := topology.Line(3)
	c := circuit.New("adj", 3)
	c.Add(gates.CX(), 0, 1)
	c.Add(gates.CX(), 1, 2)
	rng := rand.New(rand.NewSource(1))
	res, err := Route(c, topo, topology.TrivialLayout(3, 3), rng, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.SwapsInserted != 0 {
		t.Fatalf("inserted %d swaps for an already-routable circuit", res.SwapsInserted)
	}
	verifyRouting(t, c, res)
}

func TestRouteDistantGateInsertsSwaps(t *testing.T) {
	topo := topology.Line(4)
	c := circuit.New("far", 4)
	c.Add(gates.CX(), 0, 3)
	rng := rand.New(rand.NewSource(2))
	res, err := Route(c, topo, topology.TrivialLayout(4, 4), rng, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.SwapsInserted < 2 {
		t.Fatalf("distance-3 gate routed with %d swaps, need >= 2", res.SwapsInserted)
	}
	verifyRouting(t, c, res)
}

func TestRoutePreservesUnitaryRandomCircuits(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	topo := topology.Ring(5)
	for trial := 0; trial < 10; trial++ {
		c := circuit.New("rand", 5)
		for g := 0; g < 12; g++ {
			a := rng.Intn(5)
			b := rng.Intn(5)
			for b == a {
				b = rng.Intn(5)
			}
			switch rng.Intn(3) {
			case 0:
				c.Add(gates.CX(), a, b)
			case 1:
				c.Add(gates.CPhase(rng.Float64()*3), a, b)
			case 2:
				c.Add(gates.RY(rng.Float64()*3), a)
			}
		}
		layout := RandomLayout(5, topo, rng)
		res, err := Route(c, topo, layout, rng, nil)
		if err != nil {
			t.Fatal(err)
		}
		verifyRouting(t, c, res)
	}
}

func TestRouteRespectsTopology(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	topo := topology.Line(5)
	c := circuit.New("resp", 5)
	for g := 0; g < 10; g++ {
		a, b := rng.Intn(5), rng.Intn(5)
		if a == b {
			continue
		}
		c.Add(gates.CX(), a, b)
	}
	res, err := Route(c, topo, topology.TrivialLayout(5, 5), rng, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range res.Routed.Ops {
		if op.Is2Q() && !topo.HasEdge(op.Qubits[0], op.Qubits[1]) {
			t.Fatalf("routed op %v not on a coupled edge", op)
		}
	}
}

func TestRouteRejectsOversizedCircuit(t *testing.T) {
	c := circuit.New("big", 10)
	if _, err := Route(c, topology.Line(4), topology.TrivialLayout(4, 4), rand.New(rand.NewSource(1)), nil); err == nil {
		t.Fatal("expected error for circuit larger than topology")
	}
}

func TestRouteRejects3QOps(t *testing.T) {
	c := circuit.New("ccx", 3)
	c.Add(circuit.Toffoli(), 0, 1, 2)
	if _, err := Route(c, topology.Line(3), topology.TrivialLayout(3, 3), rand.New(rand.NewSource(1)), nil); err == nil {
		t.Fatal("expected error for unrolled 3Q op")
	}
}

// alwaysMirror flips every executable gate; used to verify the mirror
// bookkeeping end to end.
type alwaysMirror struct{}

func (alwaysMirror) Decide(*MirrorContext) bool { return true }

func TestMirroredRoutingPreservesUnitary(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	topo := topology.Line(4)
	for trial := 0; trial < 8; trial++ {
		c := circuit.New("mirror", 4)
		for g := 0; g < 8; g++ {
			a, b := rng.Intn(4), rng.Intn(4)
			if a == b {
				continue
			}
			c.Add(gates.CX(), a, b)
		}
		res, err := Route(c, topo, topology.TrivialLayout(4, 4), rng, alwaysMirror{})
		if err != nil {
			t.Fatal(err)
		}
		if res.MirrorsUsed == 0 && c.Count2Q() > 0 {
			t.Fatal("alwaysMirror policy mirrored nothing")
		}
		verifyRouting(t, c, res)
	}
}

func TestFindBestRoutingImprovesOverWorst(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	topo := topology.Line(6)
	c := circuit.New("opt", 6)
	for g := 0; g < 15; g++ {
		a, b := rng.Intn(6), rng.Intn(6)
		if a == b {
			continue
		}
		c.Add(gates.CX(), a, b)
	}
	best, err := findBestRouting(c, topo, LayoutOptions{
		LayoutTrials: 4, RoutingTrials: 4, FwdBwdPasses: 2, Seed: 7,
	}, SwapCountMetric, nil)
	if err != nil {
		t.Fatal(err)
	}
	// A single unoptimised routing from the trivial layout.
	single, err := Route(c, topo, topology.TrivialLayout(6, 6), rand.New(rand.NewSource(99)), nil)
	if err != nil {
		t.Fatal(err)
	}
	if best.SwapsInserted > single.SwapsInserted {
		t.Fatalf("best-of-trials (%d swaps) worse than single trivial run (%d swaps)",
			best.SwapsInserted, single.SwapsInserted)
	}
	verifyRouting(t, c, best)
}

func TestRandomLayoutIsValid(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	topo := topology.Grid(3, 3)
	for trial := 0; trial < 20; trial++ {
		l := RandomLayout(5, topo, rng)
		seen := map[int]bool{}
		for _, p := range l.L2P {
			if p < 0 || p >= 9 || seen[p] {
				t.Fatalf("invalid layout %v", l.L2P)
			}
			seen[p] = true
		}
	}
}

func TestDeterministicGivenSeed(t *testing.T) {
	topo := topology.Line(5)
	c := circuit.New("det", 5)
	c.Add(gates.CX(), 0, 4)
	c.Add(gates.CX(), 1, 3)
	r1, err := Route(c, topo, topology.TrivialLayout(5, 5), rand.New(rand.NewSource(42)), nil)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Route(c, topo, topology.TrivialLayout(5, 5), rand.New(rand.NewSource(42)), nil)
	if err != nil {
		t.Fatal(err)
	}
	if r1.SwapsInserted != r2.SwapsInserted || len(r1.Routed.Ops) != len(r2.Routed.Ops) {
		t.Fatal("routing is not deterministic for a fixed seed")
	}
}
