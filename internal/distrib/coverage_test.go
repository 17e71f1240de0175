package distrib

import (
	"bytes"
	"errors"
	"fmt"
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
	var opts wireOptions
	switch kind {
	case KindTrials:
		var s trialSpec
		if decodeSpec(raw, &s) == nil {
			opts = s.Opts
		}
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.raw = append(l.raw, raw)
	l.coverage = append(l.coverage, opts.Coverage)
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

// TestRepeatedBatchesPriceFromSpecCoverage: repeated batches on one
// cluster stay bit-identical to the serial pipeline, and every worker
// launch of every job — the first included — prepares from the
// coverage set its spec carries, byte-identical to the caller's basis.
func TestRepeatedBatchesPriceFromSpecCoverage(t *testing.T) {
	topo := topology.Grid(3, 3)
	circuits := []*circuit.Circuit{
		e2eCircuit("repeat-a", 6, 16, 61),
		e2eCircuit("repeat-b", 7, 20, 62),
		e2eCircuit("repeat-c", 5, 12, 63),
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
			reportsEqual(t, "repeat-batch", want[i], got[i])
		}
	}
	// Every worker connection is launched into every job.
	log.check(t, "repeat-batch", workers*jobs, savedCoverage(t, polytope.NewISwapRootCoverage(2)))
}

// TestRepeatedGridsPriceFromSpecCoverage is the single-grid half:
// the winner the coordinator picks from the workers' trial scores is
// the local winner on every grid, each grid's workers pricing from the
// coverage set in its spec.
func TestRepeatedGridsPriceFromSpecCoverage(t *testing.T) {
	topo := topology.Grid(3, 3)
	c := e2eCircuit("repeat-fbr", 7, 22, 67)
	blocks := circuit.ConsolidateBlocks(circuit.UnrollTo2Q(c))
	pc, err := sabre.PrepareCircuit(blocks, topo)
	if err != nil {
		t.Fatal(err)
	}
	spec, metric, factory := testPolicy(t, mirageDepth, blocks)
	opts := sabre.LayoutOptions{LayoutTrials: 3, RoutingTrials: 4, FwdBwdPasses: 1, Seed: 37}
	want, err := sabre.FindBestRoutingPrepared(pc, opts, metric, factory)
	if err != nil {
		t.Fatal(err)
	}

	const workers, grids = 2, 2
	cl, log := recordingCluster(t, workers)
	for grid := 1; grid <= grids; grid++ {
		got, err := cl.findBestRouting(pc, opts, spec, metric, factory)
		if err != nil {
			t.Fatal(err)
		}
		resultsEqual(t, "repeat-trials", want, got)
	}
	log.check(t, "repeat-trials", workers*grids, savedCoverage(t, polytope.NewISwapRootCoverage(2)))
}

// trialSpecFor encodes a valid KindTrials spec for one small circuit
// under w.
func trialSpecFor(t testing.TB, w wireOptions) []byte {
	return trialSpecOf(t, w, e2eCircuit("spec", 6, 14, 5))
}

// trialSpecOf encodes a valid KindTrials spec over sources, each
// consolidated and given a 2x2 grid on a 3x3 lattice, under w.
func trialSpecOf(t testing.TB, w wireOptions, sources ...*circuit.Circuit) []byte {
	t.Helper()
	topo := topology.Grid(3, 3)
	w.Layout = sabre.LayoutOptions{LayoutTrials: 2, RoutingTrials: 2, FwdBwdPasses: 1, Seed: 3}.WithDefaults()
	spec := trialSpec{Topo: topologyToWire(topo), Opts: w}
	for _, c := range sources {
		spec.Circuits = append(spec.Circuits, circuitToWire(circuit.ConsolidateBlocks(circuit.UnrollTo2Q(c))))
	}
	raw, err := encodeSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestSpecCarriesCoverage: the spec carries the caller's basis set
// region for region (the default sqrt-iSWAP set when none is given), a
// basis with no iSWAP root is refused, and the trial job declines a
// spec whose coverage is missing or corrupt instead of pricing from
// anywhere else.
func TestSpecCarriesCoverage(t *testing.T) {
	basis := polytope.NewISwapRootCoverage(2)
	spec, err := optionsToWire(transpile.Options{Basis: basis})
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := spec.options()
	if err != nil {
		t.Fatal(err)
	}
	got := decoded.Basis
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
	def, err := optionsToWire(transpile.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(def.Coverage, spec.Coverage) {
		t.Fatal("a nil basis did not ship the default sqrt-iSWAP set")
	}
	if _, err := optionsToWire(transpile.Options{Basis: polytope.NewCNOTCoverage()}); err == nil {
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
	}
	if _, err := trialHandler(trialSpecFor(t, spec), nil); err != nil {
		t.Fatalf("fixture: a valid trial spec was declined: %v", err)
	}
}

// TestBatchBitIdenticalAcrossFleetShapes: every grid of a batch
// consumes its own trials from the one queue of the batch's job, and
// reconstructs exactly the serial batch at any worker count and lease
// size, with and without patience, while every worker of every fleet
// shape prepares from one and the same spec, byte for byte. A circuit
// has two rows, so leases of one row, one circuit and three rows
// (straddling circuits) are all covered.
func TestBatchBitIdenticalAcrossFleetShapes(t *testing.T) {
	topo := topology.Grid(3, 3)
	circuits := []*circuit.Circuit{
		e2eCircuit("shape-a", 6, 16, 71),
		e2eCircuit("shape-b", 7, 20, 72),
		e2eCircuit("shape-c", 5, 12, 73),
		e2eCircuit("shape-d", 8, 18, 74),
	}
	for _, patience := range []int{0, 2} {
		base := transpile.Options{
			Router: transpile.MIRAGE, DepthSelection: true, SkipTrivialLayout: true,
			Layout: sabre.LayoutOptions{LayoutTrials: 2, RoutingTrials: 2, FwdBwdPasses: 1, Seed: 23,
				ConvergencePatience: patience},
		}
		want, err := transpile.TranspileBatch(circuits, topo, base)
		if err != nil {
			t.Fatal(err)
		}

		var wantSpec []byte
		for _, workers := range []int{1, 2, 3} {
			for _, lease := range []int{1, 2, 3} {
				cl, log := recordingCluster(t, workers)
				cl.TrialLease = lease
				got, err := cl.TranspileBatch(circuits, topo, base)
				if err != nil {
					t.Fatal(err)
				}
				for i := range want {
					reportsEqual(t, fmt.Sprintf("shape patience=%d workers=%d lease=%d", patience, workers, lease), want[i], got[i])
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
}

// TestSpecShipsCallerCoverage: a job ships the caller's own coverage
// set byte for byte, and the workers — here sharing the caller's
// process — price from their decoded copy without adding to or reading
// from the process registry.
func TestSpecShipsCallerCoverage(t *testing.T) {
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

// TestJournalReplayConsumesOnce: a journaled job whose coordinator
// crashes is resumed by a fresh coordinator; replayed trials reach the
// grids exactly once (bit-identical to the serial pipeline), and the
// resumed job's workers prepare from the coverage set its spec — the
// journaled one, byte for byte — carries.
func TestJournalReplayConsumesOnce(t *testing.T) {
	topo := topology.Grid(3, 3)
	circuits := []*circuit.Circuit{
		e2eCircuit("replay-a", 6, 16, 91),
		e2eCircuit("replay-b", 7, 20, 92),
		e2eCircuit("replay-c", 5, 12, 93),
		e2eCircuit("replay-d", 8, 18, 94),
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
		reportsEqual(t, "replay", want[i], got[i])
	}
	if st := cl2.Hub.Stats(); st.Recovered != 1 {
		t.Fatalf("Recovered = %d, want 1", st.Recovered)
	}
	log.check(t, "replay", 2, savedCoverage(t, polytope.NewISwapRootCoverage(2)))
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
	// One job for the batch plus one per circuit, on both workers.
	log.check(t, "root3", 2*(1+len(circuits)), savedCoverage(t, basis))
}
