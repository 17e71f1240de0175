package distrib

import (
	"fmt"
	"math/rand"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/circuit"
	"repro/internal/dispatch"
	"repro/internal/gates"
	"repro/internal/mirrorbench"
	"repro/internal/polytope"
	"repro/internal/sabre"
	"repro/internal/topology"
	"repro/internal/transpile"
)

// --- Fixtures ---

// e2eCircuit builds a routing-needing circuit with a mix of 1Q,
// parameterised and 2Q gates so the wire codec is exercised end to
// end, not just on CX.
func e2eCircuit(name string, qubits, twoQ int, seed int64) *circuit.Circuit {
	rng := rand.New(rand.NewSource(seed))
	c := circuit.New(name, qubits)
	for g := 0; g < twoQ; g++ {
		a, b := rng.Intn(qubits), rng.Intn(qubits)
		if a == b {
			continue
		}
		switch g % 4 {
		case 0:
			c.Add(gates.CX(), a, b)
		case 1:
			c.Add(gates.CZ(), a, b)
		case 2:
			c.Add(gates.RZ(0.1+0.2*float64(g%5)), a)
			c.Add(gates.ISwap(), a, b)
		default:
			c.Add(gates.H(), a)
			c.Add(gates.SqrtISwap(), a, b)
		}
	}
	return c
}

// startCluster wires n in-process workers (plus optional flaky ones)
// to a fresh cluster over pipes. When a flaky worker is present the
// healthy ones are slowed slightly so the flaky worker reliably wins
// enough leases to reach its fatal one — otherwise a fast healthy
// worker can drain the queue first and the death never happens.
func startCluster(t *testing.T, healthy, flaky int, failAfter int) *Cluster {
	t.Helper()
	h := dispatch.NewHub()
	t.Cleanup(h.Close)
	var healthyOpts *dispatch.ServeOptions
	if flaky > 0 {
		healthyOpts = &dispatch.ServeOptions{
			Chaos: &dispatch.ChaosConfig{SlowPerItem: 2 * time.Millisecond},
		}
	}
	for w := 0; w < healthy; w++ {
		server, client := net.Pipe()
		h.AddConn(server)
		go dispatch.ServeConn(client, Handlers(), healthyOpts)
	}
	for w := 0; w < flaky; w++ {
		server, client := net.Pipe()
		h.AddConn(server)
		go dispatch.ServeConn(client, Handlers(), &dispatch.ServeOptions{Chaos: &dispatch.ChaosConfig{CrashOnLease: failAfter}})
	}
	return NewCluster(h)
}

// mirageDepth is the MIRAGE-Depth pipeline configuration on the
// default sqrt-iSWAP basis.
var mirageDepth = transpile.Options{Router: transpile.MIRAGE, DepthSelection: true}

// testPolicy is the wire form of opts, coverage set included, with
// the metric and policy factory transpile builds from opts over pc —
// the pair the coordinator replays the winning trial with.
func testPolicy(t *testing.T, opts transpile.Options, pc *sabre.PreparedCircuit) (wireOptions, sabre.Metric, sabre.PolicyFactory) {
	t.Helper()
	w, err := optionsToWire(opts)
	if err != nil {
		t.Fatal(err)
	}
	metric, _, factory := transpile.RoutingPolicy(opts, pc)
	return w, metric, factory
}

// --- Equality (bit-identity, wall time excluded) ---

func opsEqual(t *testing.T, ctx string, a, b *circuit.Circuit) {
	t.Helper()
	if a == nil || b == nil {
		if a != b {
			t.Fatalf("%s: one circuit nil (%v vs %v)", ctx, a == nil, b == nil)
		}
		return
	}
	if a.Name != b.Name || a.NumQubits != b.NumQubits || len(a.Ops) != len(b.Ops) {
		t.Fatalf("%s: circuit shape differs: %s/%d/%d vs %s/%d/%d",
			ctx, a.Name, a.NumQubits, len(a.Ops), b.Name, b.NumQubits, len(b.Ops))
	}
	for i := range a.Ops {
		ao, bo := a.Ops[i], b.Ops[i]
		if ao.Gate.Name != bo.Gate.Name || ao.RouterSwap != bo.RouterSwap || ao.Mirrored != bo.Mirrored {
			t.Fatalf("%s: op %d differs: %v vs %v", ctx, i, ao, bo)
		}
		if len(ao.Qubits) != len(bo.Qubits) {
			t.Fatalf("%s: op %d arity differs", ctx, i)
		}
		for k := range ao.Qubits {
			if ao.Qubits[k] != bo.Qubits[k] {
				t.Fatalf("%s: op %d qubits differ: %v vs %v", ctx, i, ao.Qubits, bo.Qubits)
			}
		}
		am, bm := ao.Gate.Matrix(), bo.Gate.Matrix()
		if am.Rows != bm.Rows || am.Cols != bm.Cols {
			t.Fatalf("%s: op %d matrix shape differs", ctx, i)
		}
		for k := range am.Data {
			if am.Data[k] != bm.Data[k] {
				t.Fatalf("%s: op %d matrix differs at %d: %v vs %v (not bit-identical)",
					ctx, i, k, am.Data[k], bm.Data[k])
			}
		}
	}
}

func layoutsEqual(t *testing.T, ctx string, a, b *topology.Layout) {
	t.Helper()
	if (a == nil) != (b == nil) {
		t.Fatalf("%s: layout nil mismatch", ctx)
	}
	if a == nil {
		return
	}
	if len(a.L2P) != len(b.L2P) {
		t.Fatalf("%s: layout width differs", ctx)
	}
	for i := range a.L2P {
		if a.L2P[i] != b.L2P[i] {
			t.Fatalf("%s: layout differs at %d: %v vs %v", ctx, i, a.L2P, b.L2P)
		}
	}
}

func resultsEqual(t *testing.T, ctx string, a, b *sabre.Result) {
	t.Helper()
	if a.SwapsInserted != b.SwapsInserted || a.MirrorsUsed != b.MirrorsUsed ||
		a.TwoQubitGates != b.TwoQubitGates ||
		a.TrialsExecuted != b.TrialsExecuted || a.TrialsBudgeted != b.TrialsBudgeted {
		t.Fatalf("%s: counters differ: %+v vs %+v", ctx, *a, *b)
	}
	layoutsEqual(t, ctx+"/initial", a.InitialLayout, b.InitialLayout)
	layoutsEqual(t, ctx+"/final", a.FinalLayout, b.FinalLayout)
	opsEqual(t, ctx+"/routed", a.Routed, b.Routed)
}

func reportsEqual(t *testing.T, ctx string, a, b *transpile.Report) {
	t.Helper()
	if a.Name != b.Name || a.Router != b.Router ||
		a.DepthTime != b.DepthTime || a.DepthPulses != b.DepthPulses ||
		a.TotalBasisGates != b.TotalBasisGates || a.Total2QBlocks != b.Total2QBlocks ||
		a.SwapsInserted != b.SwapsInserted || a.MirrorsUsed != b.MirrorsUsed ||
		a.MirrorAcceptRate != b.MirrorAcceptRate ||
		a.TrialsExecuted != b.TrialsExecuted || a.TrialsBudgeted != b.TrialsBudgeted ||
		a.TrivialLayout != b.TrivialLayout {
		t.Fatalf("%s: report metrics differ:\n%+v\nvs\n%+v", ctx, *a, *b)
	}
	layoutsEqual(t, ctx+"/initial", a.InitialLayout, b.InitialLayout)
	layoutsEqual(t, ctx+"/final", a.FinalLayout, b.FinalLayout)
	opsEqual(t, ctx+"/routed", a.Routed, b.Routed)
	opsEqual(t, ctx+"/reconsolidated", circuit.ConsolidateBlocks(a.Routed), circuit.ConsolidateBlocks(b.Routed))
}

// --- Codec roundtrip ---

func TestCodecRoundtrip(t *testing.T) {
	c := e2eCircuit("codec", 6, 24, 3)
	c.Ops[0].RouterSwap = true
	c.Ops[1].Mirrored = true
	blocks := circuit.ConsolidateBlocks(c) // coordinate-annotated custom gates
	for _, cc := range []*circuit.Circuit{c, blocks} {
		got, err := circuitFromWire(circuitToWire(cc))
		if err != nil {
			t.Fatal(err)
		}
		opsEqual(t, "roundtrip "+cc.Name, cc, got)
		for i := range cc.Ops {
			a, b := cc.Ops[i].Coord, got.Ops[i].Coord
			if (a == nil) != (b == nil) {
				t.Fatalf("op %d coord nil mismatch", i)
			}
			if a != nil && *a != *b {
				t.Fatalf("op %d coord differs: %v vs %v", i, *a, *b)
			}
		}
	}

	topo := topology.HeavyHex(2, 8)
	got, err := topologyFromWire(topologyToWire(topo))
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != topo.Name || got.NumQubits != topo.NumQubits {
		t.Fatalf("topology shape differs")
	}
	for a := 0; a < topo.NumQubits; a++ {
		for b := 0; b < topo.NumQubits; b++ {
			if topo.Distance(a, b) != got.Distance(a, b) {
				t.Fatalf("distance(%d,%d) differs after roundtrip", a, b)
			}
		}
	}
}

func TestCodecRejectsMalformed(t *testing.T) {
	w := circuitToWire(e2eCircuit("bad", 4, 6, 1))
	w.Ops[0].Qubits = []int{0, 99}
	if _, err := circuitFromWire(w); err == nil {
		t.Fatal("out-of-range qubit decoded")
	}
	w = circuitToWire(e2eCircuit("bad2", 4, 6, 1))
	w.Ops[0].Mat = w.Ops[0].Mat[:3]
	if _, err := circuitFromWire(w); err == nil {
		t.Fatal("truncated matrix decoded")
	}
	// A well-formed Toffoli: routing takes no 3Q op, so the decoder
	// refuses it before any worker prepares the circuit.
	c3 := circuit.New("bad3", 4)
	c3.Add(circuit.Toffoli(), 0, 1, 2)
	if _, err := circuitFromWire(circuitToWire(c3)); err == nil {
		t.Fatal("3-qubit op decoded")
	}
	if _, err := topologyFromWire(wireTopology{Name: "t", NumQubits: 3, Edges: [][2]int{{0, 7}}}); err == nil {
		t.Fatal("invalid edge decoded")
	}
}

// --- End-to-end bit-identity (the acceptance property) ---

// TestDistributedFindBestRoutingBitIdentical: the distributed trial
// grid must reproduce sabre.FindBestRoutingPrepared bit for bit at every
// worker count x lease size x patience, for both the SABRE baseline
// and MIRAGE with depth selection.
func TestDistributedFindBestRoutingBitIdentical(t *testing.T) {
	topo := topology.Grid(3, 3)
	c := e2eCircuit("fbr", 7, 22, 11)
	blocks := circuit.ConsolidateBlocks(circuit.UnrollTo2Q(c))
	pc, err := sabre.PrepareCircuit(blocks, topo)
	if err != nil {
		t.Fatal(err)
	}

	for _, mir := range []bool{false, true} {
		topts := transpile.Options{DepthSelection: mir, SkipTrivialLayout: true}
		if mir {
			topts.Router = transpile.MIRAGE
		}
		spec, metric, factory := testPolicy(t, topts, pc)
		for _, patience := range []int{0, 3} {
			opts := sabre.LayoutOptions{
				LayoutTrials: 3, RoutingTrials: 4, FwdBwdPasses: 1, Seed: 17,
				ConvergencePatience: patience,
			}
			want, err := sabre.FindBestRoutingPrepared(pc, opts, metric, factory)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 3} {
				for _, lease := range []int{1, 5} {
					cl := startCluster(t, workers, 0, 0)
					cl.TrialLease = lease
					got, err := cl.findBestRouting(pc, opts, spec, metric, factory)
					if err != nil {
						t.Fatal(err)
					}
					ctx := "mir=" + map[bool]string{false: "off", true: "on"}[mir]
					resultsEqual(t, ctx, want, got)
				}
			}
		}
	}
}

// TestDistributedTranspileBitIdentical drives the RouteFn seam: a full
// transpile whose routing grid runs on the cluster must produce a
// report bit-identical to the local pipeline.
func TestDistributedTranspileBitIdentical(t *testing.T) {
	topo := topology.Grid(3, 3)
	c := e2eCircuit("pipeline", 8, 26, 23)
	base := transpile.Options{
		Router: transpile.MIRAGE, DepthSelection: true, SkipTrivialLayout: true,
		Layout: sabre.LayoutOptions{LayoutTrials: 2, RoutingTrials: 3, FwdBwdPasses: 1, Seed: 5},
	}
	want, err := transpile.Transpile(c, topo, base)
	if err != nil {
		t.Fatal(err)
	}
	cl := startCluster(t, 2, 0, 0)
	dopts, err := cl.Options(base)
	if err != nil {
		t.Fatal(err)
	}
	got, err := transpile.Transpile(c, topo, dopts)
	if err != nil {
		t.Fatal(err)
	}
	reportsEqual(t, "routefn", want, got)
}

// TestDistributedBatchBitIdentical: a batch whose layout rows run on
// the cluster must match the local batch report for report at every
// worker count x row lease, with and without patience. A circuit has
// two rows, so leases of one row, one circuit and three rows
// (straddling circuits) are all covered.
func TestDistributedBatchBitIdentical(t *testing.T) {
	topo := topology.Grid(3, 3)
	circuits := []*circuit.Circuit{
		e2eCircuit("batch-a", 6, 16, 41),
		e2eCircuit("batch-b", 7, 20, 42),
		e2eCircuit("batch-c", 5, 12, 43),
		e2eCircuit("batch-d", 8, 18, 44),
	}
	for _, patience := range []int{0, 2} {
		base := transpile.Options{
			Router: transpile.MIRAGE, DepthSelection: true, SkipTrivialLayout: true,
			Layout: sabre.LayoutOptions{LayoutTrials: 2, RoutingTrials: 2, FwdBwdPasses: 1, Seed: 9,
				ConvergencePatience: patience},
		}
		want, err := transpile.TranspileBatch(circuits, topo, base)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 2, 3} {
			for _, lease := range []int{1, 2, 3} {
				cl := startCluster(t, workers, 0, 0)
				cl.TrialLease = lease
				got, err := cl.TranspileBatch(circuits, topo, base)
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != len(want) {
					t.Fatalf("workers=%d: %d reports, want %d", workers, len(got), len(want))
				}
				for i := range want {
					reportsEqual(t, fmt.Sprintf("batch patience=%d workers=%d lease=%d", patience, workers, lease), want[i], got[i])
				}
			}
		}
	}
}

// TestDistributedWorkerDeathBitIdentical is the acceptance property's
// failure half: a worker dying mid-lease (trial job and batch job)
// must leave the outcome bit-identical — its leases are re-granted and
// deterministically reproduced by the survivor.
func TestDistributedWorkerDeathBitIdentical(t *testing.T) {
	topo := topology.Grid(3, 3)
	c := e2eCircuit("death", 7, 20, 77)
	blocks := circuit.ConsolidateBlocks(circuit.UnrollTo2Q(c))
	pc, err := sabre.PrepareCircuit(blocks, topo)
	if err != nil {
		t.Fatal(err)
	}
	spec, metric, factory := testPolicy(t, transpile.Options{Router: transpile.MIRAGE, DepthSelection: true, SkipTrivialLayout: true}, pc)

	for _, patience := range []int{0, 4} {
		// Six one-row leases, so the flaky worker lives to its second.
		opts := sabre.LayoutOptions{
			LayoutTrials: 6, RoutingTrials: 2, FwdBwdPasses: 1, Seed: 29,
			ConvergencePatience: patience,
		}
		want, err := sabre.FindBestRoutingPrepared(pc, opts, metric, factory)
		if err != nil {
			t.Fatal(err)
		}
		// One healthy worker + one that dies on its second lease.
		cl := startCluster(t, 1, 1, 2)
		cl.TrialLease = 1
		got, err := cl.findBestRouting(pc, opts, spec, metric, factory)
		if err != nil {
			t.Fatal(err)
		}
		resultsEqual(t, "death", want, got)
		if cl.Hub.Workers() != 1 {
			t.Fatalf("dead worker still pooled (%d workers)", cl.Hub.Workers())
		}
	}

	// Batch flavour: the dead worker's rows are re-routed by the
	// survivor, bit-identically.
	circuits := []*circuit.Circuit{
		e2eCircuit("death-a", 6, 14, 81),
		e2eCircuit("death-b", 7, 16, 82),
		e2eCircuit("death-c", 6, 12, 83),
	}
	base := transpile.Options{
		Router: transpile.MIRAGE, DepthSelection: true, SkipTrivialLayout: true,
		Layout: sabre.LayoutOptions{LayoutTrials: 2, RoutingTrials: 2, FwdBwdPasses: 1, Seed: 57},
	}
	want, err := transpile.TranspileBatch(circuits, topo, base)
	if err != nil {
		t.Fatal(err)
	}
	cl := startCluster(t, 1, 1, 2)
	got, err := cl.TranspileBatch(circuits, topo, base)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		reportsEqual(t, "batch-death", want[i], got[i])
	}
}

// TestDistributedOverLoopbackTCP runs the trial job over real TCP
// sockets — the transport the CI smoke lane and miraged use.
func TestDistributedOverLoopbackTCP(t *testing.T) {
	h := dispatch.NewHub()
	defer h.Close()
	addr, err := h.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	for w := 0; w < 2; w++ {
		go dispatch.ServeLoop(addr.String(), Handlers(), nil, dispatch.ReconnectOptions{})
	}
	if err := h.WaitWorkers(2, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	cl := NewCluster(h)

	topo := topology.Line(6)
	c := e2eCircuit("tcp", 6, 18, 99)
	blocks := circuit.ConsolidateBlocks(circuit.UnrollTo2Q(c))
	opts := sabre.LayoutOptions{LayoutTrials: 2, RoutingTrials: 3, FwdBwdPasses: 1, Seed: 13}
	pc, err := sabre.PrepareCircuit(blocks, topo)
	if err != nil {
		t.Fatal(err)
	}
	spec, metric, factory := testPolicy(t, mirageDepth, pc)
	want, err := sabre.FindBestRoutingPrepared(pc, opts, metric, factory)
	if err != nil {
		t.Fatal(err)
	}
	got, err := cl.findBestRouting(pc, opts, spec, metric, factory)
	if err != nil {
		t.Fatal(err)
	}
	resultsEqual(t, "tcp", want, got)
}

// countingRunner counts the items a worker runs.
type countingRunner struct {
	dispatch.JobRunner
	items *atomic.Int64
}

func (r countingRunner) Run(i int) dispatch.WireItem {
	r.items.Add(1)
	return r.JobRunner.Run(i)
}

// TestDistributedFloorSkipsRows: grids that meet their floor route on
// two loopback TCP workers to the local reports bit for bit, through
// the RouteFn seam and as a batch; the batch's workers run fewer items
// than its K grids of L x n trials, because the coordinator leases no
// row of a grid that finished at its floor.
func TestDistributedFloorSkipsRows(t *testing.T) {
	var items atomic.Int64
	handlers := map[string]dispatch.Handler{}
	for kind, handle := range Handlers() {
		handle := handle
		handlers[kind] = func(spec, warm []byte) (dispatch.JobRunner, error) {
			r, err := handle(spec, warm)
			if err != nil {
				return nil, err
			}
			return countingRunner{r, &items}, nil
		}
	}
	h := dispatch.NewHub()
	defer h.Close()
	addr, err := h.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	for w := 0; w < 2; w++ {
		go dispatch.ServeLoop(addr.String(), handlers, nil, dispatch.ReconnectOptions{})
	}
	if err := h.WaitWorkers(2, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	cl := NewCluster(h)

	topo := topology.Grid(3, 4)
	base := transpile.Options{
		Router: transpile.MIRAGE, DepthSelection: true, SkipTrivialLayout: true,
		Layout: sabre.LayoutOptions{LayoutTrials: 6, RoutingTrials: 4, FwdBwdPasses: 1, Seed: 3},
	}
	var circuits []*circuit.Circuit
	for i := 0; i < 4; i++ {
		m := mirrorbench.Generate(mirrorbench.Spec{
			Kind: mirrorbench.Kind(i % 2), Qubits: 3 + i, Layers: 3, Seed: int64(100 + i),
		})
		circuits = append(circuits, m.Circuit)
	}

	dopts, err := cl.Options(base)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range circuits {
		want, err := transpile.Transpile(c, topo, base)
		if err != nil {
			t.Fatal(err)
		}
		got, err := transpile.Transpile(c, topo, dopts)
		if err != nil {
			t.Fatal(err)
		}
		reportsEqual(t, "routefn "+c.Name, want, got)
	}

	want, err := transpile.TranspileBatch(circuits, topo, base)
	if err != nil {
		t.Fatal(err)
	}
	items.Store(0)
	got, err := cl.TranspileBatch(circuits, topo, base)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		reportsEqual(t, "batch "+circuits[i].Name, want[i], got[i])
	}
	full := int64(len(circuits) * base.Layout.LayoutTrials * base.Layout.RoutingTrials)
	t.Logf("batch workers ran %d of %d items", items.Load(), full)
	if n := items.Load(); n >= full {
		t.Fatalf("batch workers ran %d items, want fewer than the full %d", n, full)
	}
}

// TestDistributedMirrorSurvival: self-verifying mirror circuits —
// whose Haar-random su4 blocks ride the wire codec as raw matrices —
// transpiled through the cluster must be bit-identical to the local
// pipeline AND still map |0...0> to their analytically-known
// bitstring. This is the semantic half of the determinism contract:
// not merely "same answer everywhere" but "the right answer".
func TestDistributedMirrorSurvival(t *testing.T) {
	topo := topology.Grid(3, 4)
	base := transpile.Options{
		Router: transpile.MIRAGE, DepthSelection: true, SkipTrivialLayout: true,
		Layout: sabre.LayoutOptions{LayoutTrials: 2, RoutingTrials: 3, FwdBwdPasses: 1, Seed: 3},
	}
	specs := []mirrorbench.Spec{
		{Kind: mirrorbench.RandomizedClifford, Qubits: 5, Layers: 4, Seed: 1},
		{Kind: mirrorbench.QuantumVolume, Qubits: 4, Layers: 3, Seed: 7},
	}

	// RouteFn seam: remote trial grids, one circuit at a time.
	for _, s := range specs {
		m := mirrorbench.Generate(s)
		want, err := transpile.Transpile(m.Circuit, topo, base)
		if err != nil {
			t.Fatal(err)
		}
		cl := startCluster(t, 2, 0, 0)
		dopts, err := cl.Options(base)
		if err != nil {
			t.Fatal(err)
		}
		got, err := transpile.Transpile(m.Circuit, topo, dopts)
		if err != nil {
			t.Fatal(err)
		}
		reportsEqual(t, s.Name(), want, got)
		if _, err := mirrorbench.Verify(got.Routed, got.FinalLayout, m.Expected, 1e-9); err != nil {
			t.Errorf("%s violated its survival identity after distributed routing: %v", s.Name(), err)
		}
	}

	// Batch seam (the miraged coordinator path): both mirror circuits
	// in one job, their rows on the workers.
	var circuits []*circuit.Circuit
	var mirrors []*mirrorbench.Mirror
	for _, s := range specs {
		m := mirrorbench.Generate(s)
		mirrors = append(mirrors, m)
		circuits = append(circuits, m.Circuit)
	}
	cl := startCluster(t, 2, 0, 0)
	reps, err := cl.TranspileBatch(circuits, topo, base)
	if err != nil {
		t.Fatal(err)
	}
	for i, rep := range reps {
		if _, err := mirrorbench.Verify(rep.Routed, rep.FinalLayout, mirrors[i].Expected, 1e-9); err != nil {
			t.Errorf("%s violated its survival identity after batch dispatch: %v", specs[i].Name(), err)
		}
	}
}

// TestDistributedRejectsCustomBasis: a non-recipe basis cannot be
// distributed and must fail loudly, not silently mis-score.
func TestDistributedRejectsCustomBasis(t *testing.T) {
	opts := transpile.Options{Basis: polytope.NewCNOTCoverage()}
	if _, err := optionsToWire(opts); err == nil {
		t.Fatal("CNOT basis (no iSWAP root) accepted for distribution")
	}
}
