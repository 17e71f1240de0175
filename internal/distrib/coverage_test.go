package distrib

import (
	"bytes"
	"errors"
	"math"
	"net"
	"reflect"
	"sync"
	"testing"

	"repro/internal/circuit"
	"repro/internal/dispatch"
	"repro/internal/gates"
	"repro/internal/polytope"
	"repro/internal/sabre"
	"repro/internal/topology"
	"repro/internal/transpile"
	"repro/internal/weyl"
)

// --- The coverage set travels in the job spec ---

// specLog records, per worker launch, the spec bytes and the coverage
// bytes a worker prepared its job from.
type specLog struct {
	mu       sync.Mutex
	raw      [][]byte
	coverage [][]byte
	warm     int // launches handed a non-nil warm blob
}

func (l *specLog) handlers() map[string]dispatch.Handler {
	out := make(map[string]dispatch.Handler)
	for kind, h := range Handlers() {
		kind, h := kind, h
		out[kind] = func(raw, warm []byte) (dispatch.JobRunner, error) {
			l.record(kind, raw, warm)
			return h(raw, warm)
		}
	}
	return out
}

func (l *specLog) record(kind string, raw, warm []byte) {
	var policy PolicySpec
	switch kind {
	case KindTrials:
		var s trialSpec
		if decodeSpec(raw, &s) == nil {
			policy = s.Policy
		}
	case KindBatch:
		var s batchSpec
		if decodeSpec(raw, &s) == nil {
			policy = s.Opts.Policy
		}
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.raw = append(l.raw, raw)
	l.coverage = append(l.coverage, policy.Coverage)
	if warm != nil {
		l.warm++
	}
}

// check asserts that exactly launches jobs were prepared, each from a
// spec whose coverage bytes are want and with no warm blob.
func (l *specLog) check(t *testing.T, ctx string, launches int, want []byte) {
	t.Helper()
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.coverage) != launches {
		t.Fatalf("%s: %d worker launches, want %d", ctx, len(l.coverage), launches)
	}
	for i, cov := range l.coverage {
		if !bytes.Equal(cov, want) {
			t.Fatalf("%s: launch %d prepared from %d coverage bytes that differ from the caller's basis (%d bytes)",
				ctx, i, len(cov), len(want))
		}
	}
	if l.warm != 0 {
		t.Fatalf("%s: %d launches were handed a warm blob, want none", ctx, l.warm)
	}
}

// recordingCluster is startCluster with healthy workers whose every
// job preparation is recorded.
func recordingCluster(t *testing.T, workers int) (*Cluster, *specLog) {
	t.Helper()
	log := &specLog{}
	h := dispatch.NewHub()
	t.Cleanup(h.Close)
	handlers := log.handlers()
	for w := 0; w < workers; w++ {
		server, client := net.Pipe()
		h.AddConn(server)
		go dispatch.ServeConn(client, handlers, nil)
	}
	return NewCluster(h), log
}

// savedCoverage is cs in CoverageSet.Save form.
func savedCoverage(t *testing.T, cs *polytope.CoverageSet) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := cs.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestWarmTierBatchBitIdenticalAndHitRate: repeated KindBatch jobs on
// one cluster stay bit-identical to the serial pipeline, and every
// worker launch of every job — the first included, since there is no
// state left to warm — prepares from the coverage set its spec
// carries, byte-identical to the caller's basis.
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

	const workers, jobs = 2, 3
	cl, log := recordingCluster(t, workers)
	for job := 1; job <= jobs; job++ {
		got, err := cl.TranspileBatch(circuits, topo, base)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			reportsEqual(t, "warm-batch", want[i], got[i])
		}
	}
	// Every worker connection is launched into every job.
	log.check(t, "warm-batch", workers*jobs, savedCoverage(t, polytope.NewISwapRootCoverage(2)))
}

// TestWarmTierTrialsBitIdenticalAndFold is the KindTrials half: the
// coordinator folds the workers' trial scores into one winner, and
// that fold is the local winner on every grid, each grid's workers
// pricing from the coverage set in its spec.
func TestWarmTierTrialsBitIdenticalAndFold(t *testing.T) {
	topo := topology.Grid(3, 3)
	c := e2eCircuit("warm-fbr", 7, 22, 67)
	blocks := circuit.ConsolidateBlocks(circuit.UnrollTo2Q(c))
	pc, err := sabre.PrepareCircuit(blocks, topo)
	if err != nil {
		t.Fatal(err)
	}
	spec, metric, factory := testPolicy(t, mirageDepth, blocks)
	opts := sabre.LayoutOptions{LayoutTrials: 3, RoutingTrials: 4, FwdBwdPasses: 1, Seed: 37}
	want, err := sabre.FindBestRouting(blocks, topo, opts, metric, factory)
	if err != nil {
		t.Fatal(err)
	}

	const workers, grids = 2, 2
	cl, log := recordingCluster(t, workers)
	for grid := 1; grid <= grids; grid++ {
		got, err := cl.FindBestRouting(pc, opts, spec, metric, factory)
		if err != nil {
			t.Fatal(err)
		}
		resultsEqual(t, "warm-trials", want, got)
	}
	log.check(t, "warm-trials", workers*grids, savedCoverage(t, polytope.NewISwapRootCoverage(2)))
}

// trialSpecFor encodes a valid KindTrials spec for a small circuit
// under policy.
func trialSpecFor(t *testing.T, policy PolicySpec) []byte {
	t.Helper()
	topo := topology.Grid(3, 3)
	blocks := circuit.ConsolidateBlocks(circuit.UnrollTo2Q(e2eCircuit("spec", 6, 14, 5)))
	pc, err := sabre.PrepareCircuit(blocks, topo)
	if err != nil {
		t.Fatal(err)
	}
	opts := sabre.LayoutOptions{LayoutTrials: 2, RoutingTrials: 2, FwdBwdPasses: 1, Seed: 3}.WithDefaults()
	raw, err := encodeSpec(trialSpec{
		Circuit: circuitToWire(pc.Circ),
		Topo:    topologyToWire(pc.Topo),
		DAG:     flatDAGToWire(pc.FD),
		Opts:    opts,
		Policy:  policy,
	})
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestWarmSnapshotCarriesCoverage: the spec carries the caller's basis
// set region for region (the default sqrt-iSWAP set when none is
// given), a basis with no iSWAP root is refused, and both job kinds
// decline a spec whose coverage is missing or corrupt instead of
// pricing from anywhere else.
func TestWarmSnapshotCarriesCoverage(t *testing.T) {
	basis := polytope.NewISwapRootCoverage(2)
	spec, err := SpecFromOptions(transpile.Options{Basis: basis})
	if err != nil {
		t.Fatal(err)
	}
	got, err := spec.coverage()
	if err != nil {
		t.Fatal(err)
	}
	if got == basis {
		t.Fatal("the spec's coverage decoded to the registry's own set")
	}
	if got.Name != basis.Name || got.Root != basis.Root || got.PerGateCost != basis.PerGateCost ||
		got.BasisCoord != basis.BasisCoord || len(got.Regions) != len(basis.Regions) {
		t.Fatalf("spec coverage identity %q root %d, %d regions; want %q root %d, %d regions",
			got.Name, got.Root, len(got.Regions), basis.Name, basis.Root, len(basis.Regions))
	}
	for i, r := range basis.Regions {
		g := got.Regions[i]
		if g.K != r.K || g.Cost != r.Cost || g.Region.Label != r.Region.Label ||
			!reflect.DeepEqual(g.Region.Halfspaces, r.Region.Halfspaces) {
			t.Fatalf("region %d: spec carries k=%d cost=%g %q, basis has k=%d cost=%g %q (or the halfspaces differ)",
				i, g.K, g.Cost, g.Region.Label, r.K, r.Cost, r.Region.Label)
		}
	}
	def, err := SpecFromOptions(transpile.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(def.Coverage, spec.Coverage) {
		t.Fatal("a nil basis did not ship the default sqrt-iSWAP set")
	}
	if _, err := SpecFromOptions(transpile.Options{Basis: polytope.NewCNOTCoverage()}); err == nil {
		t.Fatal("a basis with no iSWAP root was accepted")
	}

	for _, tc := range []struct {
		name     string
		coverage []byte
	}{
		{"missing", nil},
		{"corrupt", []byte("not a coverage set")},
	} {
		bad := spec
		bad.Coverage = tc.coverage
		if _, err := trialHandler(trialSpecFor(t, bad), nil); err == nil {
			t.Errorf("%s coverage: trial job prepared", tc.name)
		}
		raw, err := encodeSpec(batchSpec{
			Circuits: []wireCircuit{circuitToWire(e2eCircuit("spec", 5, 10, 7))},
			Topo:     topologyToWire(topology.Grid(3, 3)),
			Opts:     wireBatchOptions{Policy: bad},
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := batchHandler(raw, nil); err == nil {
			t.Errorf("%s coverage: batch job prepared", tc.name)
		}
	}
	if _, err := trialHandler(trialSpecFor(t, spec), nil); err != nil {
		t.Fatalf("fixture: a valid trial spec was declined: %v", err)
	}
}

// TestWarmFoldDeterminismAcrossWorkerCounts: the coordinator folds
// per-worker rows back into input order, and that fold reconstructs
// exactly the serial batch at any worker count or lease size, while
// every worker of every fleet shape prepares from one and the same
// spec, byte for byte.
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

	var wantSpec []byte
	for _, workers := range []int{1, 2, 3} {
		for _, lease := range []int{1, 2} {
			cl, log := recordingCluster(t, workers)
			cl.CircuitLease = lease
			got, err := cl.TranspileBatch(circuits, topo, base)
			if err != nil {
				t.Fatal(err)
			}
			for i := range want {
				reportsEqual(t, "warm-fold", want[i], got[i])
			}
			log.mu.Lock()
			if len(log.raw) != workers {
				t.Fatalf("workers=%d lease=%d: %d launches, want one per worker", workers, lease, len(log.raw))
			}
			for _, raw := range log.raw {
				if wantSpec == nil {
					wantSpec = raw
				} else if !bytes.Equal(raw, wantSpec) {
					t.Fatalf("workers=%d lease=%d: a worker's spec differs from the first cluster's", workers, lease)
				}
			}
			log.mu.Unlock()
		}
	}
}

// TestWarmMasterSharedWithCallerCache: a job ships the caller's own
// coverage set byte for byte, and the workers — here sharing the
// caller's process — price from their decoded copy without adding to
// or reading from the process registry.
func TestWarmMasterSharedWithCallerCache(t *testing.T) {
	topo := topology.Grid(3, 3)
	circuits := []*circuit.Circuit{
		e2eCircuit("shared-a", 6, 14, 75),
		e2eCircuit("shared-b", 7, 16, 76),
	}
	caller := polytope.NewISwapRootCoverage(2)
	base := transpile.Options{
		Router: transpile.MIRAGE, DepthSelection: true, SkipTrivialLayout: true,
		Basis:  caller,
		Layout: sabre.LayoutOptions{LayoutTrials: 2, RoutingTrials: 2, FwdBwdPasses: 1, Seed: 29},
	}
	sets := polytope.RootCoverageCount()
	cl, log := recordingCluster(t, 1)
	if _, err := cl.TranspileBatch(circuits, topo, base); err != nil {
		t.Fatal(err)
	}
	log.check(t, "shared", 1, savedCoverage(t, caller))
	if got := polytope.RootCoverageCount(); got != sets {
		t.Fatalf("a distributed job changed the process registry from %d to %d coverage sets", sets, got)
	}
}

// TestWarmJournalReplayNoDoubleFold: a journaled job whose coordinator
// crashes is resumed by a fresh coordinator; replayed rows fold into
// the result exactly once (bit-identical to the serial pipeline), and
// the resumed job's workers prepare from the coverage set its spec —
// the journaled one, byte for byte — carries.
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
	cl.Hub.Close()

	log := &specLog{}
	cl2 := journaledHubWith(t, dir, 2, nil, log.handlers())
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
	if st := cl2.Hub.Stats(); st.Recovered != 1 {
		t.Fatalf("Recovered = %d, want 1", st.Recovered)
	}
	log.check(t, "wfold", 2, savedCoverage(t, polytope.NewISwapRootCoverage(2)))
}

// syntheticRoot3 is a valid iSWAP^(1/3) coverage set assembled from
// exported fields, with no empirical polytope build. Its regions are
// not the true root-3 polytopes, so a worker pricing from anything
// but the set in its spec routes differently.
func syntheticRoot3() *polytope.CoverageSet {
	const n = 3
	name := "iswap^1/3"
	coord := weyl.RootISwapCoord(n)
	narrow := polytope.FullChamber()
	narrow.Label = name + "-k2"
	narrow.Halfspaces = append(narrow.Halfspaces, polytope.Halfspace{A: [3]float64{1, 0, 0}, B: math.Pi / 8})
	k3 := polytope.SqrtISwapK2()
	k3.Label = name + "-k3"
	full := polytope.FullChamber()
	full.Label = name + "-k4"
	regions := []*polytope.Convex{
		polytope.PointRegion("identity", weyl.IdentityCoord, 1e-7),
		polytope.PointRegion(name+"-k1", coord, 1e-7),
		narrow, k3, full,
	}
	cs := &polytope.CoverageSet{
		Name:        name,
		Basis:       gates.SqrtISwapN(n),
		BasisCoord:  coord,
		PerGateCost: 1.0 / n,
		Root:        n,
	}
	for k, r := range regions {
		cs.Regions = append(cs.Regions, polytope.CostedRegion{K: k, Cost: float64(k) / n, Region: r})
	}
	return cs
}

// TestClusterPricesFromSpecCoverage: with a root-3 basis the process
// registry does not hold, both job kinds on a 2-worker cluster return
// rows bit-identical to local TranspileBatch and Transpile, and the
// registry gains no entry — the workers priced from the spec alone.
func TestClusterPricesFromSpecCoverage(t *testing.T) {
	basis := syntheticRoot3()
	topo := topology.Grid(3, 3)
	circuits := []*circuit.Circuit{
		e2eCircuit("root3-a", 6, 16, 81),
		e2eCircuit("root3-b", 7, 20, 82),
	}
	opts := transpile.Options{
		Router: transpile.MIRAGE, DepthSelection: true, SkipTrivialLayout: true, Basis: basis,
		Layout: sabre.LayoutOptions{LayoutTrials: 2, RoutingTrials: 3, FwdBwdPasses: 1, Seed: 31},
	}
	polytope.NewISwapRootCoverage(2) // the default basis is present either way
	sets := polytope.RootCoverageCount()

	want, err := transpile.TranspileBatch(circuits, topo, opts)
	if err != nil {
		t.Fatal(err)
	}
	cl, log := recordingCluster(t, 2)
	batch, err := cl.TranspileBatch(circuits, topo, opts)
	if err != nil {
		t.Fatal(err)
	}
	dopts, err := cl.Options(opts)
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range circuits {
		reportsEqual(t, "root3-batch", want[i], batch[i])
		single, err := transpile.Transpile(c, topo, opts)
		if err != nil {
			t.Fatal(err)
		}
		reportsEqual(t, "root3-local", want[i], single)
		trials, err := transpile.Transpile(c, topo, dopts)
		if err != nil {
			t.Fatal(err)
		}
		reportsEqual(t, "root3-trials", want[i], trials)
	}
	if got := polytope.RootCoverageCount(); got != sets {
		t.Fatalf("routing with a spec-carried root-3 set grew the process registry from %d to %d sets", sets, got)
	}
	// One batch job plus one trial grid per circuit, on both workers.
	log.check(t, "root3", 2*(1+len(circuits)), savedCoverage(t, basis))
}
