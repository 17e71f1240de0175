package distrib

import (
	"bytes"
	"errors"
	"fmt"
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
	// Each build re-derives the options, coverage bytes included.
	options := func(layout sabre.LayoutOptions) wireOptions {
		w, err := optionsToWire(mirageDepth)
		if err != nil {
			t.Fatal(err)
		}
		w.Layout = layout
		return w
	}
	// A score bound rides in LayoutOptions but never on the wire: the
	// trial job ignores it and its spec bytes do not change.
	buildTrial := func(bound *sabre.Bound) []byte {
		topo := topology.Grid(3, 3)
		c := e2eCircuit("det", 7, 22, 11)
		blocks := circuit.ConsolidateBlocks(circuit.UnrollTo2Q(c))
		opts := sabre.LayoutOptions{LayoutTrials: 3, RoutingTrials: 4, FwdBwdPasses: 1, Seed: 17}.WithDefaults()
		raw, err := encodeSpec(trialSpec{
			Circuits: []wireCircuit{circuitToWire(blocks)},
			Topo:     topologyToWire(topo),
			Opts:     options(opts.WithBound(bound)),
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
		var circuits []wireCircuit
		for _, c := range []*circuit.Circuit{e2eCircuit("det-a", 6, 16, 41), e2eCircuit("det-b", 7, 20, 42)} {
			circuits = append(circuits, circuitToWire(circuit.ConsolidateBlocks(circuit.UnrollTo2Q(c))))
		}
		raw, err := encodeSpec(trialSpec{
			Circuits: circuits,
			Topo:     topologyToWire(topology.Grid(3, 3)),
			Opts:     options(sabre.LayoutOptions{LayoutTrials: 2, RoutingTrials: 2, FwdBwdPasses: 1, Seed: 9}),
		})
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	if !bytes.Equal(buildBatch(), buildBatch()) {
		t.Fatal("two from-scratch encodings of a two-circuit trialSpec differ; journal recovery cannot match restarted jobs")
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
	cl.TrialLease = 2
	return cl
}

// TestDistributedBatchJournalRecovery is the end-to-end crash-safety
// property for the miraged coordinator path: a journaled batch job
// whose coordinator dies mid-run (torn final frame and all) is resumed
// by a fresh coordinator over the same journal dir, re-executes only
// the unjournaled remainder, and emits reports bit-identical to the
// serial pipeline, at every worker count and lease size and with and
// without patience. A circuit has two rows, so leases of one row, one
// circuit and three rows (straddling circuits) are all covered.
func TestDistributedBatchJournalRecovery(t *testing.T) {
	topo := topology.Grid(3, 3)
	circuits := []*circuit.Circuit{
		e2eCircuit("wal-a", 6, 16, 41),
		e2eCircuit("wal-b", 7, 20, 42),
		e2eCircuit("wal-c", 5, 12, 43),
		e2eCircuit("wal-d", 8, 18, 44),
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
				ctx := fmt.Sprintf("patience=%d workers=%d lease=%d", patience, workers, lease)
				dir := t.TempDir()
				// Run 1: crash while journaling the second result batch.
				// The tear leaves a half-written frame, exactly what
				// SIGKILL leaves behind.
				cl := journaledHub(t, dir, workers, &dispatch.ChaosConfig{CrashOnResultBatch: 2})
				cl.TrialLease = lease
				if _, err := cl.TranspileBatch(circuits, topo, base); !errors.Is(err, dispatch.ErrSimulatedCrash) {
					t.Fatalf("%s: crash run returned %v, want ErrSimulatedCrash", ctx, err)
				}
				cl.Hub.Close()

				// Run 2: a fresh coordinator over the same journal dir resumes.
				jd, err := dispatch.OpenJournalDir(dir)
				if err != nil {
					t.Fatal(err)
				}
				if jd.Recovered() != 1 || jd.TruncatedFrames() != 1 {
					t.Fatalf("%s: recovered=%d truncated=%d, want 1 resumable job with 1 torn frame",
						ctx, jd.Recovered(), jd.TruncatedFrames())
				}
				cl2 := journaledHub(t, dir, workers, nil)
				cl2.TrialLease = lease
				got, err := cl2.TranspileBatch(circuits, topo, base)
				if err != nil {
					t.Fatal(err)
				}
				for i := range want {
					reportsEqual(t, "wal-batch "+ctx, want[i], got[i])
				}
				if st := cl2.Hub.Stats(); st.Recovered != 1 {
					t.Fatalf("%s: Recovered = %d, want 1 (the resumed job)", ctx, st.Recovered)
				}
			}
		}
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
	want, err := sabre.FindBestRoutingPrepared(pc, opts, metric, factory)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	cl := journaledHub(t, dir, 2, &dispatch.ChaosConfig{CrashOnResultBatch: 2})
	if _, err := cl.findBestRouting(pc, opts, spec, metric, factory); !errors.Is(err, dispatch.ErrSimulatedCrash) {
		t.Fatalf("crash run returned %v, want ErrSimulatedCrash", err)
	}
	cl.Hub.Close()

	cl2 := journaledHub(t, dir, 2, nil)
	got, err := cl2.findBestRouting(pc, opts, spec, metric, factory)
	if err != nil {
		t.Fatal(err)
	}
	resultsEqual(t, "wal-trials", want, got)
	if st := cl2.Hub.Stats(); st.Recovered != 1 {
		t.Fatalf("Recovered = %d, want 1", st.Recovered)
	}
}
