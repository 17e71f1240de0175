package sabre

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/circuit"
	"repro/internal/topology"
)

// TestArenaReuseBitIdentical is the arena-reuse property: one arena
// replayed across a stream of random (circuit, topology, layout,
// policy, seed) trials must produce exactly what a fresh-state Route
// call produces for each trial — no state may leak between trials
// through the reused buffers. The case mix deliberately alternates
// topology sizes so buffers shrink as well as grow.
func TestArenaReuseBitIdentical(t *testing.T) {
	policies := []MirrorPolicy{nil, parityMirror{}, costMirror{}}
	arena := newTrialArena()
	for i, tc := range equivCases(t) {
		policy := policies[i%len(policies)]
		fresh, err := Route(tc.circ, tc.topo, tc.layout, Options{},
			rand.New(rand.NewSource(tc.seed)), policy)
		if err != nil {
			t.Fatal(err)
		}
		fd := circuit.BuildFlatDAG(tc.circ)
		arena.rng.Seed(tc.seed)
		reused, err := arena.route(fd, newMirrorTable(tc.circ), tc.topo, tc.layout, Options{}, arena.rng, policy, nil, true)
		if err != nil {
			t.Fatal(err)
		}
		if !sameFingerprint(routingFingerprint(fresh), routingFingerprint(reused)) {
			t.Fatalf("case %s: arena-reused trial diverged from fresh-state trial", tc.name)
		}
	}
}

// TestTrialRunnerMatchesRoute pins the public arena seam to the
// one-shot path: repeated Run calls with varying seeds must each match
// a fresh Route with the same seed, and Run must leave no residue that
// changes the next trial.
func TestTrialRunnerMatchesRoute(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	topo := topology.Grid(4, 4)
	c := randomCircuit("runner", 12, 60, rng)
	layouts := []*topology.Layout{
		RandomLayout(12, topo, rng),
		RandomLayout(12, topo, rng),
	}
	pc, err := PrepareCircuit(c, topo)
	if err != nil {
		t.Fatal(err)
	}
	runner := NewTrialRunner(pc)
	for _, policy := range []MirrorPolicy{nil, parityMirror{}, costMirror{}} {
		for trial := 0; trial < 8; trial++ {
			seed := int64(1000*trial + 7)
			layout := layouts[trial%len(layouts)]
			got, err := runner.Run(layout, Options{}, seed, policy)
			if err != nil {
				t.Fatal(err)
			}
			gotFP := routingFingerprint(got) // copy before the next Run clobbers the arena
			want, err := Route(c, topo, layout, Options{}, rand.New(rand.NewSource(seed)), policy)
			if err != nil {
				t.Fatal(err)
			}
			if !sameFingerprint(routingFingerprint(want), gotFP) {
				t.Fatalf("policy %T trial %d: TrialRunner diverged from Route", policy, trial)
			}
		}
	}
}

// TestFindBestRoutingInvariantAcrossSchedulers sweeps Parallelism x
// patience x policy and requires one fingerprint per (policy,
// patience) cell: the row fan-out and the worker count must be
// invisible in the result.
func TestFindBestRoutingInvariantAcrossSchedulers(t *testing.T) {
	rng := rand.New(rand.NewSource(4096))
	topo := topology.Grid(3, 4)
	c := randomCircuit("sched-inv", 10, 45, rng)
	factories := []PolicyFactory{
		nil,
		func(trial int) MirrorPolicy { return parityMirror{} },
		func(trial int) MirrorPolicy {
			if trial%3 == 0 {
				return costMirror{}
			}
			return parityMirror{}
		},
	}
	for fi, factory := range factories {
		for _, patience := range []int{0, 3} {
			var ref []int
			var refTrials int
			for _, par := range []int{1, 3, 8} {
				res, err := findBestRouting(c, topo, LayoutOptions{
					LayoutTrials: 4, RoutingTrials: 4, FwdBwdPasses: 2, Seed: 17,
					Parallelism:         par,
					ConvergencePatience: patience,
				}, SwapCountMetric, factory)
				if err != nil {
					t.Fatal(err)
				}
				fp := routingFingerprint(res)
				if ref == nil {
					ref, refTrials = fp, res.TrialsExecuted
					continue
				}
				if !sameFingerprint(ref, fp) {
					t.Fatalf("factory %d patience %d: result differs at parallelism=%d", fi, patience, par)
				}
				if res.TrialsExecuted != refTrials {
					t.Fatalf("factory %d patience %d: TrialsExecuted %d != %d at parallelism=%d",
						fi, patience, res.TrialsExecuted, refTrials, par)
				}
			}
		}
	}
}

// TestSharedFlatDAGManyWorkers hammers one shared FlatDAG through the
// public TrialRunner seam: many goroutines, each with its own runner,
// route the same prepared circuit concurrently and must all obtain the
// reference fingerprint. The workers also share one mirror table that
// nobody has built yet, so its lazy first build races too. Run under
// -race (the CI race lane) this is the immutability proof for the
// shared-DAG design.
func TestSharedFlatDAGManyWorkers(t *testing.T) {
	rng := rand.New(rand.NewSource(515))
	topo := topology.Grid(4, 4)
	c := randomCircuit("hammer", 14, 80, rng)
	layout := RandomLayout(14, topo, rng)

	first, err := PrepareCircuit(c, topo)
	if err != nil {
		t.Fatal(err)
	}
	proto := NewTrialRunner(first)
	want, err := proto.Run(layout, Options{}, 99, parityMirror{})
	if err != nil {
		t.Fatal(err)
	}
	ref := routingFingerprint(want)
	// A second preparation whose mirror data nobody has built yet.
	pc, err := PrepareCircuit(c, topo)
	if err != nil {
		t.Fatal(err)
	}

	const workers = 8
	var wg sync.WaitGroup
	errs := make(chan string, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			runner := NewTrialRunner(pc) // shared DAG and mirror data, private arena
			for rep := 0; rep < 10; rep++ {
				res, err := runner.Run(layout, Options{}, 99, parityMirror{})
				if err != nil {
					errs <- fmt.Sprintf("worker %d rep %d: %v", w, rep, err)
					return
				}
				if !sameFingerprint(ref, routingFingerprint(res)) {
					errs <- fmt.Sprintf("worker %d rep %d: fingerprint diverged", w, rep)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// TestArenaRebindWideToNarrow routes on one arena rebound between a
// narrow topology with a narrow window and a wide one with a wide
// window, in both directions. Every route must match RouteReference:
// a per-qubit scoring slot or a row stride left over from the previous
// binding would change a score.
func TestArenaRebindWideToNarrow(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	type side struct {
		runner *TrialRunner
		layout *topology.Layout
		opts   Options
	}
	build := func(topo *topology.Topology, qubits, window int) side {
		pc, err := PrepareCircuit(randomCircuit(topo.Name, qubits, 80, rng), topo)
		if err != nil {
			t.Fatal(err)
		}
		return side{&TrialRunner{pc: pc}, RandomLayout(qubits, topo, rng), Options{ExtendedSetSize: window}}
	}
	wide, narrow := build(topology.Grid(5, 5), 25, 64), build(topology.Line(7), 7, 3)
	arena := newTrialArena()
	wide.runner.arena, narrow.runner.arena = arena, arena
	for round, policy := range []MirrorPolicy{nil, parityMirror{}, costMirror{}, nil} {
		for _, s := range []side{narrow, wide, wide, narrow} {
			seed := int64(100*round + 1)
			got, err := s.runner.Run(s.layout, s.opts, seed, policy)
			if err != nil {
				t.Fatal(err)
			}
			pc := s.runner.pc
			ref, err := RouteReference(pc, s.layout, s.opts, rand.New(rand.NewSource(seed)), policy)
			if err != nil {
				t.Fatal(err)
			}
			if !sameFingerprint(routingFingerprint(ref), routingFingerprint(got)) {
				t.Fatalf("round %d on %s: rebound arena diverged from reference", round, pc.Topo.Name)
			}
		}
	}
}

// TestSteadyStateTrialsAllocateNothing pins the arena's zero-allocation
// claim: once warm, every trial of a grid allocates nothing, with or
// without a mirror policy. The whole grid runs inside one measured
// call, so a single allocation in any trial fails the test.
func TestSteadyStateTrialsAllocateNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	topo := topology.Grid(4, 4)
	pc, err := PrepareCircuit(randomCircuit("allocs", 14, 80, rng), topo)
	if err != nil {
		t.Fatal(err)
	}
	opts := LayoutOptions{LayoutTrials: 3, RoutingTrials: 4, Seed: 5}.WithDefaults()
	runner := NewTrialRunner(pc)
	layouts := make([]*topology.Layout, opts.LayoutTrials)
	for lt := range layouts {
		if layouts[lt], err = runner.RefineLayout(opts, lt); err != nil {
			t.Fatal(err)
		}
	}
	for _, policy := range []MirrorPolicy{nil, costMirror{}} {
		allocs := testing.AllocsPerRun(1, func() {
			for tr := 0; tr < opts.LayoutTrials*opts.RoutingTrials; tr++ {
				if _, err := runner.GridTrial(layouts[tr/opts.RoutingTrials], opts, tr, policy); err != nil {
					t.Fatal(err)
				}
			}
		})
		if allocs != 0 {
			t.Errorf("policy %T: %v allocations over a warm grid, want 0", policy, allocs)
		}
	}
}
