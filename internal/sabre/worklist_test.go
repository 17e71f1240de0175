package sabre

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/circuit"
	"repro/internal/gates"
	"repro/internal/topology"
)

// The alwaysMirror policy (sabre_test.go) accepts every mirror offer,
// so every executed 2Q gate permutes the layout mid-pass — the
// maximal-stress schedule for the worklist scheduler, whose
// correctness argument says a mirror swap can only affect the mirrored
// gate's own successors.

// TestWorklistDuplicateEdgeSemantics pins the worklist scheduler on
// circuits dominated by duplicate dependency edges: back-to-back 2Q
// gates on the same qubit pair give the successor TWO edges from its
// predecessor (one per shared wire), so its in-degree is 2 and a
// single decrement must not make it ready. A scheduler that treated
// the dependency graph as a simple graph would execute such gates a
// pass early and diverge from the reference immediately.
func TestWorklistDuplicateEdgeSemantics(t *testing.T) {
	topo := topology.Line(6)
	build := func(name string, seed int64) *circuit.Circuit {
		rng := rand.New(rand.NewSource(seed))
		c := circuit.New(name, 6)
		for g := 0; g < 30; g++ {
			a, b := rng.Intn(6), rng.Intn(6)
			if a == b {
				continue
			}
			// Same-pair runs of length 2-3: every gate after the first in
			// a run depends on its predecessor through both wires.
			run := 2 + rng.Intn(2)
			for r := 0; r < run; r++ {
				if rng.Intn(2) == 0 {
					c.Add(gates.CX(), a, b)
				} else {
					c.Add(gates.CX(), b, a)
				}
			}
		}
		return c
	}
	for trial := 0; trial < 6; trial++ {
		c := build(fmt.Sprintf("dup-%d", trial), int64(900+trial))
		layout := RandomLayout(6, topo, rand.New(rand.NewSource(int64(trial))))
		seed := int64(31 + trial)
		for _, p := range []struct {
			name   string
			policy MirrorPolicy
		}{{"nopolicy", nil}, {"alwaysmirror", alwaysMirror{}}} {
			ref, err := RouteReference(mustPrepare(t, c, topo), layout, rand.New(rand.NewSource(seed)), p.policy)
			if err != nil {
				t.Fatal(err)
			}
			got, err := Route(c, topo, layout, rand.New(rand.NewSource(seed)), p.policy)
			if err != nil {
				t.Fatal(err)
			}
			if !sameFingerprint(routingFingerprint(ref), routingFingerprint(got)) {
				t.Fatalf("trial %d/%s: duplicate-edge schedule diverged from reference", trial, p.name)
			}
		}
	}
}

// TestWorklistMidStallReadiness pins the post-stall reseeding path: on
// a line topology with an always-mirror policy, nearly every execution
// permutes the layout and nearly every 2Q gate needs SWAPs first, so
// the schedule constantly alternates stall swaps (which make at most
// two deferred ops executable, found by the O(1) readyOpOn lookup)
// with mirror swaps (which permute the endpoints of the gate just
// executed). Any error in either reseeding rule — wrong op, wrong
// order, a missed newly-executable gate — desynchronises the emitted
// op stream or the RNG from the reference.
func TestWorklistMidStallReadiness(t *testing.T) {
	rng := rand.New(rand.NewSource(4242))
	topo := topology.Line(10)
	for trial := 0; trial < 8; trial++ {
		c := randomCircuit(fmt.Sprintf("midstall-%d", trial), 10, 35, rng)
		layout := RandomLayout(10, topo, rng)
		seed := rng.Int63()
		ref, err := RouteReference(mustPrepare(t, c, topo), layout, rand.New(rand.NewSource(seed)), alwaysMirror{})
		if err != nil {
			t.Fatal(err)
		}
		got, err := Route(c, topo, layout, rand.New(rand.NewSource(seed)), alwaysMirror{})
		if err != nil {
			t.Fatal(err)
		}
		if !sameFingerprint(routingFingerprint(ref), routingFingerprint(got)) {
			t.Fatalf("trial %d: mid-stall readiness diverged from reference", trial)
		}
	}
}

// TestPreparedCircuitSharedRace hammers one PreparedCircuit from many
// goroutines under -race: concurrent FindBestRoutingPrepared calls
// (each spinning up its own trial grid over the shared DAGs), layout
// rows and fresh runners must neither race nor diverge. This is
// the lifetime contract of the amortised per-circuit state — immutable
// after PrepareCircuit, shared freely, all mutation confined to
// per-worker arenas.
func TestPreparedCircuitSharedRace(t *testing.T) {
	rng := rand.New(rand.NewSource(616))
	topo := topology.Grid(3, 4)
	c := randomCircuit("prepared-hammer", 10, 60, rng)
	pc, err := PrepareCircuit(c, topo)
	if err != nil {
		t.Fatal(err)
	}
	opts := LayoutOptions{LayoutTrials: 2, RoutingTrials: 3, FwdBwdPasses: 1, Seed: 7, Parallelism: 2}
	want, err := FindBestRoutingPrepared(pc, opts, SwapCountMetric, nil)
	if err != nil {
		t.Fatal(err)
	}
	ref := routingFingerprint(want)
	layout := RandomLayout(10, topo, rand.New(rand.NewSource(1)))
	wantSingle, err := NewTrialRunner(pc).Run(layout, 42, parityMirror{})
	if err != nil {
		t.Fatal(err)
	}
	refSingle := routingFingerprint(wantSingle)

	const workers = 6
	var wg sync.WaitGroup
	errs := make(chan string, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for rep := 0; rep < 3; rep++ {
				res, err := FindBestRoutingPrepared(pc, opts, SwapCountMetric, nil)
				if err != nil {
					errs <- fmt.Sprintf("worker %d rep %d: %v", w, rep, err)
					return
				}
				if !sameFingerprint(ref, routingFingerprint(res)) {
					errs <- fmt.Sprintf("worker %d rep %d: grid fingerprint diverged", w, rep)
					return
				}
				if _, err := NewTrialRunner(pc).RefineLayout(opts, rep%opts.LayoutTrials); err != nil {
					errs <- fmt.Sprintf("worker %d rep %d: refine: %v", w, rep, err)
					return
				}
				single, err := NewTrialRunner(pc).Run(layout, 42, parityMirror{})
				if err != nil {
					errs <- fmt.Sprintf("worker %d rep %d: single: %v", w, rep, err)
					return
				}
				if !sameFingerprint(refSingle, routingFingerprint(single)) {
					errs <- fmt.Sprintf("worker %d rep %d: single-trial fingerprint diverged", w, rep)
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
