package distrib

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/circuit"
	"repro/internal/dispatch"
	"repro/internal/polytope"
	"repro/internal/sabre"
	"repro/internal/topology"
	"repro/internal/transpile"
)

// --- Warm tier: the shipped coverage library ---

// TestWarmTierBatchBitIdenticalAndHitRate is the warm-tier property
// for KindBatch: repeated jobs on one cluster stay bit-identical to the
// serial pipeline, and the handshake hit rate — the share of worker
// launches that find the coverage snapshot already held — climbs from
// 0 on the cold first job to 1 once every worker holds it.
func TestWarmTierBatchBitIdenticalAndHitRate(t *testing.T) {
	topo := topology.Grid(3, 3)
	circuits := []*circuit.Circuit{
		e2eCircuit("warm-a", 6, 16, 61),
		e2eCircuit("warm-b", 7, 20, 62),
		e2eCircuit("warm-c", 5, 12, 63),
	}
	base := transpile.Options{
		Router: transpile.MIRAGE, DepthSelection: true, SkipTrivialLayout: true,
		Layout: sabre.LayoutOptions{LayoutTrials: 2, RoutingTrials: 2, FwdBwdPasses: 1, Seed: 19},
	}
	want, err := transpile.TranspileBatch(circuits, topo, base)
	if err != nil {
		t.Fatal(err)
	}

	cl := startCluster(t, 2, 0, 0)
	if cl.Master == nil {
		t.Fatal("NewCluster did not enable the warm tier")
	}
	var prev dispatch.FleetStats
	for job := 1; job <= 3; job++ {
		got, err := cl.TranspileBatch(circuits, topo, base)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			reportsEqual(t, "warm-batch", want[i], got[i])
		}
		st := cl.Hub.Stats()
		sends, skips := st.WarmSends-prev.WarmSends, st.WarmSkips-prev.WarmSkips
		prev = st
		if sends+skips == 0 {
			t.Fatalf("job %d launched no worker with the warm snapshot", job)
		}
		rate := float64(skips) / float64(sends+skips)
		// Every worker connection is launched into every job, so each
		// one receives v1 on job 1 and holds it from then on.
		wantRate := 1.0
		if job == 1 {
			wantRate = 0
		}
		if rate != wantRate {
			t.Fatalf("job %d handshake hit rate %.2f (%d sends, %d skips), want %.0f",
				job, rate, sends, skips, wantRate)
		}
	}
	if ws := cl.Master.Stats(); ws.SnapshotVersion != 1 || ws.CoverageSets == 0 {
		t.Fatalf("master snapshot v%d with %d coverage sets, want v1 with the sqrt-iSWAP set",
			ws.SnapshotVersion, ws.CoverageSets)
	}
	// Job 1 shipped the v1 snapshot; it never changed, so jobs 2 and 3
	// skip the transfer on every worker that already holds it.
	st := cl.Hub.Stats()
	if st.WarmSends < 1 || st.WarmSkips < 2 || st.WarmBytesSkipped == 0 {
		t.Fatalf("handshake counters sends=%d skips=%d bytesSkipped=%d, want sends>=1 skips>=2",
			st.WarmSends, st.WarmSkips, st.WarmBytesSkipped)
	}
}

// TestWarmTierTrialsBitIdenticalAndFold is the KindTrials half: the
// coordinator folds the workers' trial results into one winner, and on
// a warm cluster that fold is the local winner on every grid, while the
// second grid skips the snapshot transfer.
func TestWarmTierTrialsBitIdenticalAndFold(t *testing.T) {
	topo := topology.Grid(3, 3)
	c := e2eCircuit("warm-fbr", 7, 22, 67)
	blocks := circuit.ConsolidateBlocks(circuit.UnrollTo2Q(c))
	pc, err := sabre.PrepareCircuit(blocks, topo)
	if err != nil {
		t.Fatal(err)
	}
	spec := PolicySpec{Mirage: true, DepthSelection: true}
	metric, factory := spec.build(blocks)
	opts := sabre.LayoutOptions{LayoutTrials: 3, RoutingTrials: 4, FwdBwdPasses: 1, Seed: 37}
	want, err := sabre.FindBestRouting(blocks, topo, opts, metric, factory)
	if err != nil {
		t.Fatal(err)
	}

	cl := startCluster(t, 2, 0, 0)
	for job := 1; job <= 2; job++ {
		got, err := cl.FindBestRouting(pc, opts, spec, metric, factory)
		if err != nil {
			t.Fatal(err)
		}
		resultsEqual(t, "warm-trials", want, got)
	}
	if st := cl.Hub.Stats(); st.WarmSends < 1 || st.WarmSkips < 1 {
		t.Fatalf("handshake counters sends=%d skips=%d, want the second grid to skip the snapshot",
			st.WarmSends, st.WarmSkips)
	}
}

// TestWarmSnapshotCarriesCoverage: the snapshot is the coordinator's
// coverage library, which a worker merges into its registry; other
// job kinds get none, and a corrupt blob is an error, not a cold start.
func TestWarmSnapshotCarriesCoverage(t *testing.T) {
	polytope.NewISwapRootCoverage(2)
	m := NewMasterCache()
	ws, ok := m.Warm(KindTrials)
	if !ok || ws.Version != 1 || len(ws.Blob) == 0 {
		t.Fatalf("Warm(%s) = (v%d, %d bytes, %v), want a v1 snapshot", KindTrials, ws.Version, len(ws.Blob), ok)
	}
	if again, _ := m.Warm(KindBatch); again.Version != ws.Version {
		t.Fatalf("unchanged library re-versioned: v%d -> v%d", ws.Version, again.Version)
	}
	if _, ok := m.Warm("other/kind"); ok {
		t.Fatal("Warm served a job kind it does not know")
	}
	if err := loadWarm(ws.Blob); err != nil {
		t.Fatal(err)
	}
	if err := loadWarm(nil); err != nil {
		t.Fatalf("cold start: %v", err)
	}
	if err := loadWarm([]byte("not a coverage library")); err == nil {
		t.Fatal("corrupt warm blob accepted")
	}
}

// TestWarmFoldDeterminismAcrossWorkerCounts: the coordinator folds
// per-worker rows back into input order, and with the warm tier on that
// fold reconstructs exactly the serial batch at any worker count or
// lease size, while every cluster ships one and the same snapshot — v1,
// byte for byte — whatever the fleet shape.
func TestWarmFoldDeterminismAcrossWorkerCounts(t *testing.T) {
	topo := topology.Grid(3, 3)
	circuits := []*circuit.Circuit{
		e2eCircuit("fold-a", 6, 16, 71),
		e2eCircuit("fold-b", 7, 20, 72),
		e2eCircuit("fold-c", 5, 12, 73),
		e2eCircuit("fold-d", 8, 18, 74),
	}
	base := transpile.Options{
		Router: transpile.MIRAGE, DepthSelection: true, SkipTrivialLayout: true,
		Layout: sabre.LayoutOptions{LayoutTrials: 2, RoutingTrials: 2, FwdBwdPasses: 1, Seed: 23},
	}
	want, err := transpile.TranspileBatch(circuits, topo, base)
	if err != nil {
		t.Fatal(err)
	}

	var wantBlob []byte
	for _, workers := range []int{1, 2, 3} {
		for _, lease := range []int{1, 2} {
			cl := startCluster(t, workers, 0, 0)
			cl.CircuitLease = lease
			got, err := cl.TranspileBatch(circuits, topo, base)
			if err != nil {
				t.Fatal(err)
			}
			for i := range want {
				reportsEqual(t, "warm-fold", want[i], got[i])
			}
			ws, ok := cl.Master.Warm(KindBatch)
			if !ok || ws.Version != 1 {
				t.Fatalf("workers=%d lease=%d: master snapshot (v%d, %v), want v1", workers, lease, ws.Version, ok)
			}
			if wantBlob == nil {
				wantBlob = ws.Blob
			} else if !bytes.Equal(ws.Blob, wantBlob) {
				t.Fatalf("workers=%d lease=%d: master snapshot differs from the first cluster's", workers, lease)
			}
			if st := cl.Hub.Stats(); st.WarmSends != int64(workers) {
				t.Fatalf("workers=%d lease=%d: %d snapshot sends, want one per worker", workers, lease, st.WarmSends)
			}
		}
	}
}

// TestWarmMasterSharedWithCallerCache: the master holds no private copy
// of the coverage library — it snapshots the caller's own process
// registry (the NewISwapRootCoverage cache), so what a job ships is
// byte-identical to what the caller would save itself, and merging it
// back into the caller's registry inserts nothing.
func TestWarmMasterSharedWithCallerCache(t *testing.T) {
	topo := topology.Grid(3, 3)
	circuits := []*circuit.Circuit{
		e2eCircuit("shared-a", 6, 14, 75),
		e2eCircuit("shared-b", 7, 16, 76),
	}
	base := transpile.Options{
		Router: transpile.MIRAGE, DepthSelection: true, SkipTrivialLayout: true,
		Layout: sabre.LayoutOptions{LayoutTrials: 2, RoutingTrials: 2, FwdBwdPasses: 1, Seed: 29},
	}
	cl := startCluster(t, 1, 0, 0)
	if _, err := cl.TranspileBatch(circuits, topo, base); err != nil {
		t.Fatal(err)
	}
	ws, ok := cl.Master.Warm(KindBatch)
	if !ok {
		t.Fatal("master served no snapshot after a job")
	}
	var caller bytes.Buffer
	if err := polytope.SaveRootCoverage(&caller); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ws.Blob, caller.Bytes()) {
		t.Fatal("master snapshot diverged from the caller's coverage registry")
	}
	if got := cl.Master.Stats().CoverageSets; got != polytope.RootCoverageCount() {
		t.Fatalf("master snapshot holds %d coverage sets, caller registry %d", got, polytope.RootCoverageCount())
	}
	if n, err := polytope.LoadRootCoverage(bytes.NewReader(ws.Blob)); err != nil || n != 0 {
		t.Fatalf("merging the shipped library into the caller's registry inserted %d sets (err %v), want 0", n, err)
	}
}

// TestWarmJournalReplayNoDoubleFold: a journaled job whose coordinator
// crashes is resumed by a fresh coordinator; replayed rows fold into
// the result exactly once (bit-identical to the serial pipeline), and
// the replay never re-versions the coverage snapshot — the resumed
// master ships the crashed one's v1, byte for byte.
func TestWarmJournalReplayNoDoubleFold(t *testing.T) {
	topo := topology.Grid(3, 3)
	circuits := []*circuit.Circuit{
		e2eCircuit("wfold-a", 6, 16, 91),
		e2eCircuit("wfold-b", 7, 20, 92),
		e2eCircuit("wfold-c", 5, 12, 93),
		e2eCircuit("wfold-d", 8, 18, 94),
	}
	base := transpile.Options{
		Router: transpile.MIRAGE, DepthSelection: true, SkipTrivialLayout: true,
		Layout: sabre.LayoutOptions{LayoutTrials: 2, RoutingTrials: 2, FwdBwdPasses: 1, Seed: 47},
	}
	want, err := transpile.TranspileBatch(circuits, topo, base)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	cl := journaledHub(t, dir, 2, &dispatch.ChaosConfig{CrashOnResultBatch: 2})
	if _, err := cl.TranspileBatch(circuits, topo, base); !errors.Is(err, dispatch.ErrSimulatedCrash) {
		t.Fatalf("crash run returned %v, want ErrSimulatedCrash", err)
	}
	crashed, _ := cl.Master.Warm(KindBatch)
	cl.Hub.Close()

	cl2 := journaledHub(t, dir, 2, nil)
	got, err := cl2.TranspileBatch(circuits, topo, base)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("resumed job returned %d rows, want %d", len(got), len(want))
	}
	for i := range want {
		reportsEqual(t, "wfold", want[i], got[i])
	}
	resumed, _ := cl2.Master.Warm(KindBatch)
	if resumed.Version != 1 || !bytes.Equal(resumed.Blob, crashed.Blob) {
		t.Fatalf("resumed master snapshot v%d (same bytes: %v), want the crashed run's v1",
			resumed.Version, bytes.Equal(resumed.Blob, crashed.Blob))
	}
	if st := cl2.Hub.Stats(); st.Recovered != 1 {
		t.Fatalf("Recovered = %d, want 1", st.Recovered)
	}
}
