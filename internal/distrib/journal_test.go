package distrib

import (
	"bytes"
	"errors"
	"net"
	"testing"

	"repro/internal/circuit"
	"repro/internal/dispatch"
	"repro/internal/sabre"
	"repro/internal/topology"
	"repro/internal/transpile"
)

// TestSpecEncodingDeterministic pins the precondition of journal
// recovery: a restarted coordinator re-derives every job spec from
// scratch and matches it byte-for-byte against the journaled one, so
// two independent encodings of the same logical job must be identical.
// Both spec kinds are all-slice/struct gob (no maps), and
// topology.Edges() is sorted — this test fails if either ever grows a
// nondeterministic field.
func TestSpecEncodingDeterministic(t *testing.T) {
	// Each build re-derives the policy, coverage bytes included.
	policy := func() PolicySpec {
		spec, err := SpecFromOptions(mirageDepth)
		if err != nil {
			t.Fatal(err)
		}
		return spec
	}
	// A score bound rides in LayoutOptions but never on the wire: the
	// trial job ignores it and its spec bytes do not change.
	buildTrial := func(bound *sabre.Bound) []byte {
		topo := topology.Grid(3, 3)
		c := e2eCircuit("det", 7, 22, 11)
		blocks := circuit.ConsolidateBlocks(circuit.UnrollTo2Q(c))
		pc, err := sabre.PrepareCircuit(blocks, topo)
		if err != nil {
			t.Fatal(err)
		}
		opts := sabre.LayoutOptions{LayoutTrials: 3, RoutingTrials: 4, FwdBwdPasses: 1, Seed: 17}.WithDefaults()
		raw, err := encodeSpec(trialSpec{
			Circuit: circuitToWire(pc.Circ),
			Topo:    topologyToWire(pc.Topo),
			DAG:     flatDAGToWire(pc.FD),
			Opts:    opts.WithBound(bound),
			Policy:  policy(),
		})
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	if !bytes.Equal(buildTrial(nil), buildTrial(nil)) {
		t.Fatal("two from-scratch trialSpec encodings differ; journal recovery cannot match restarted jobs")
	}
	if !bytes.Equal(buildTrial(nil), buildTrial(sabre.SwapCountBound())) {
		t.Fatal("a score bound changed the trialSpec encoding")
	}

	buildBatch := func() []byte {
		topo := topology.Grid(3, 3)
		wire := []wireCircuit{
			circuitToWire(e2eCircuit("det-a", 6, 16, 41)),
			circuitToWire(e2eCircuit("det-b", 7, 20, 42)),
		}
		raw, err := encodeSpec(batchSpec{
			Circuits: wire,
			Topo:     topologyToWire(topo),
			Opts: wireBatchOptions{
				Policy: policy(),
				Layout: sabre.LayoutOptions{LayoutTrials: 2, RoutingTrials: 2, FwdBwdPasses: 1, Seed: 9},
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	if !bytes.Equal(buildBatch(), buildBatch()) {
		t.Fatal("two from-scratch batchSpec encodings differ; journal recovery cannot match restarted jobs")
	}
}

// journaledHub builds a hub over the given journal dir with n pipe
// workers, mirroring the miraged coordinator's wiring.
func journaledHub(t *testing.T, dir string, workers int, chaos *dispatch.ChaosConfig) *Cluster {
	t.Helper()
	return journaledHubWith(t, dir, workers, chaos, Handlers())
}

// journaledHubWith is journaledHub with the workers serving handlers.
func journaledHubWith(t *testing.T, dir string, workers int, chaos *dispatch.ChaosConfig, handlers map[string]dispatch.Handler) *Cluster {
	t.Helper()
	jd, err := dispatch.OpenJournalDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	h := dispatch.NewHub()
	h.Journal = jd
	h.Chaos = chaos
	h.Logf = t.Logf
	t.Cleanup(h.Close)
	for w := 0; w < workers; w++ {
		server, client := net.Pipe()
		h.AddConn(server)
		go dispatch.ServeConn(client, handlers, nil)
	}
	cl := NewCluster(h)
	cl.CircuitLease = 1
	cl.TrialLease = 2
	return cl
}

// TestDistributedBatchJournalRecovery is the end-to-end crash-safety
// property for the miraged coordinator path: a journaled batch job
// whose coordinator dies mid-run (torn final frame and all) is resumed
// by a fresh coordinator over the same journal dir, re-executes only
// the unjournaled remainder, and emits reports bit-identical to the
// serial pipeline.
func TestDistributedBatchJournalRecovery(t *testing.T) {
	topo := topology.Grid(3, 3)
	circuits := []*circuit.Circuit{
		e2eCircuit("wal-a", 6, 16, 41),
		e2eCircuit("wal-b", 7, 20, 42),
		e2eCircuit("wal-c", 5, 12, 43),
		e2eCircuit("wal-d", 8, 18, 44),
	}
	base := transpile.Options{
		Router: transpile.MIRAGE, DepthSelection: true, SkipTrivialLayout: true,
		Layout: sabre.LayoutOptions{LayoutTrials: 2, RoutingTrials: 2, FwdBwdPasses: 1, Seed: 9},
	}
	want, err := transpile.TranspileBatch(circuits, topo, base)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	// Run 1: crash while journaling the second result batch. The tear
	// leaves a half-written frame, exactly what SIGKILL leaves behind.
	cl := journaledHub(t, dir, 2, &dispatch.ChaosConfig{CrashOnResultBatch: 2})
	if _, err := cl.TranspileBatch(circuits, topo, base); !errors.Is(err, dispatch.ErrSimulatedCrash) {
		t.Fatalf("crash run returned %v, want ErrSimulatedCrash", err)
	}
	cl.Hub.Close()

	// Run 2: a fresh coordinator over the same journal dir resumes.
	jd, err := dispatch.OpenJournalDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if jd.Recovered() != 1 || jd.TruncatedFrames() != 1 {
		t.Fatalf("recovered=%d truncated=%d, want 1 resumable job with 1 torn frame",
			jd.Recovered(), jd.TruncatedFrames())
	}
	cl2 := journaledHub(t, dir, 2, nil)
	got, err := cl2.TranspileBatch(circuits, topo, base)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		reportsEqual(t, "wal-batch", want[i], got[i])
	}
	st := cl2.Hub.Stats()
	if st.Recovered != 1 {
		t.Fatalf("Recovered = %d, want 1 (the resumed job)", st.Recovered)
	}
}

// TestDistributedTrialsJournalRecovery: the trial-grid flavour. The
// resumed coordinator re-derives the trial spec from scratch (layout
// refinement and all) and must match the journaled job, then finish
// the grid to the same winner as an uninterrupted run.
func TestDistributedTrialsJournalRecovery(t *testing.T) {
	topo := topology.Grid(3, 3)
	c := e2eCircuit("wal-fbr", 7, 22, 11)
	blocks := circuit.ConsolidateBlocks(circuit.UnrollTo2Q(c))
	pc, err := sabre.PrepareCircuit(blocks, topo)
	if err != nil {
		t.Fatal(err)
	}
	spec, metric, factory := testPolicy(t, mirageDepth, blocks)
	opts := sabre.LayoutOptions{LayoutTrials: 3, RoutingTrials: 4, FwdBwdPasses: 1, Seed: 17}
	want, err := sabre.FindBestRouting(blocks, topo, opts, metric, factory)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	cl := journaledHub(t, dir, 2, &dispatch.ChaosConfig{CrashOnResultBatch: 2})
	if _, err := cl.FindBestRouting(pc, opts, spec, metric, factory); !errors.Is(err, dispatch.ErrSimulatedCrash) {
		t.Fatalf("crash run returned %v, want ErrSimulatedCrash", err)
	}
	cl.Hub.Close()

	cl2 := journaledHub(t, dir, 2, nil)
	got, err := cl2.FindBestRouting(pc, opts, spec, metric, factory)
	if err != nil {
		t.Fatal(err)
	}
	resultsEqual(t, "wal-trials", want, got)
	if st := cl2.Hub.Stats(); st.Recovered != 1 {
		t.Fatalf("Recovered = %d, want 1", st.Recovered)
	}
}
