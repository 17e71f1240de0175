package distrib

import (
	"net"
	"testing"
	"time"

	"repro/internal/circuit"
	"repro/internal/dispatch"
	"repro/internal/mirrorbench"
	"repro/internal/sabre"
	"repro/internal/topology"
	"repro/internal/transpile"
)

// chaosFleet assembles a deliberately hostile worker fleet around a
// hub with tight failure deadlines: `clean` healthy pipe workers, one
// worker that goes silent mid-lease (revoked on the heartbeat
// deadline), and one real-TCP worker that crashes on its first lease
// and rejoins through ServeLoop's backoff. Every worker heartbeats
// fast so slow-but-alive is never confused with dead.
func chaosFleet(t *testing.T, seed int64, clean int) *Cluster {
	t.Helper()
	h := dispatch.NewHub()
	h.HeartbeatTimeout = 300 * time.Millisecond
	t.Cleanup(h.Close)
	// Clean workers are slowed slightly so the chaos workers reliably
	// win leases before the job drains — otherwise a fast healthy
	// worker can starve the faulty ones and the test proves nothing.
	startClusterWorkers(t, h, clean, &dispatch.ServeOptions{
		HeartbeatInterval: 50 * time.Millisecond,
		Chaos:             &dispatch.ChaosConfig{SlowPerItem: 10 * time.Millisecond},
	})
	startClusterWorkers(t, h, 1, &dispatch.ServeOptions{
		HeartbeatInterval: 50 * time.Millisecond,
		Chaos:             &dispatch.ChaosConfig{Seed: seed, StallOnLease: 1, StallFor: 2 * time.Second},
	})
	addr, err := h.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go dispatch.ServeLoop(addr.String(), Handlers(), &dispatch.ServeOptions{
		HeartbeatInterval: 50 * time.Millisecond,
		Chaos:             &dispatch.ChaosConfig{Seed: seed, CrashOnLease: 1},
	}, dispatch.ReconnectOptions{
		Attempts: 50, InitialBackoff: 5 * time.Millisecond, MaxBackoff: 20 * time.Millisecond, Seed: seed,
	})
	if err := h.WaitWorkers(clean+2, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	return NewCluster(h)
}

// TestChaosDeterminismProperty pins the re-lease determinism
// contract under seeded chaos: the same job run against
// fleets suffering kills, silent stalls and backoff reconnects — at
// several worker counts and lease sizes — must reproduce the serial
// routed circuit, TrialsExecuted, and mirror survival fidelity bit for
// bit, while the hub's counters prove the faults actually fired.
func TestChaosDeterminismProperty(t *testing.T) {
	topo := topology.Grid(3, 4)
	c := e2eCircuit("chaos", 7, 22, 55)
	blocks := circuit.ConsolidateBlocks(circuit.UnrollTo2Q(c))
	pc, err := sabre.PrepareCircuit(blocks, topo)
	if err != nil {
		t.Fatal(err)
	}
	spec, metric, factory := testPolicy(t, transpile.Options{Router: transpile.MIRAGE, DepthSelection: true, SkipTrivialLayout: true}, pc)
	lopts := sabre.LayoutOptions{
		LayoutTrials: 3, RoutingTrials: 4, FwdBwdPasses: 1, Seed: 21,
		ConvergencePatience: 3,
	}
	want, err := sabre.FindBestRoutingPrepared(pc, lopts, metric, factory)
	if err != nil {
		t.Fatal(err)
	}

	mirror := mirrorbench.Generate(mirrorbench.Spec{
		Kind: mirrorbench.RandomizedClifford, Qubits: 5, Layers: 4, Seed: 1,
	})
	base := transpile.Options{
		Router: transpile.MIRAGE, DepthSelection: true, SkipTrivialLayout: true,
		Layout: sabre.LayoutOptions{LayoutTrials: 2, RoutingTrials: 3, FwdBwdPasses: 1, Seed: 3},
	}
	wantRep, err := transpile.Transpile(mirror.Circuit, topo, base)
	if err != nil {
		t.Fatal(err)
	}
	wantFid, err := mirrorbench.Verify(wantRep.Routed, wantRep.FinalLayout, mirror.Expected, 1e-9)
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		seed  int64
		clean int
		lease int
	}{
		{seed: 1, clean: 1, lease: 1},
		{seed: 2, clean: 2, lease: 2},
		{seed: 3, clean: 1, lease: 2},
	} {
		cl := chaosFleet(t, tc.seed, tc.clean)
		cl.TrialLease = tc.lease

		got, err := cl.findBestRouting(pc, lopts, spec, metric, factory)
		if err != nil {
			t.Fatalf("seed=%d clean=%d lease=%d: %v", tc.seed, tc.clean, tc.lease, err)
		}
		resultsEqual(t, "chaos trial grid", want, got)

		// Mirror semantics through the same battered fleet: the routed
		// output must still hit the analytically-known bitstring with
		// the exact serial fidelity.
		dopts, err := cl.Options(base)
		if err != nil {
			t.Fatal(err)
		}
		gotRep, err := transpile.Transpile(mirror.Circuit, topo, dopts)
		if err != nil {
			t.Fatalf("seed=%d: mirror transpile: %v", tc.seed, err)
		}
		reportsEqual(t, "chaos mirror", wantRep, gotRep)
		gotFid, err := mirrorbench.Verify(gotRep.Routed, gotRep.FinalLayout, mirror.Expected, 1e-9)
		if err != nil {
			t.Fatalf("seed=%d: survival identity violated after chaos: %v", tc.seed, err)
		}
		if gotFid != wantFid {
			t.Fatalf("seed=%d: survival fidelity %v, want bit-identical %v", tc.seed, gotFid, wantFid)
		}

		// The faults must actually have fired — a chaos test that
		// injected nothing proves nothing. Lease assignment races, so a
		// chaos worker may not have won a lease yet; keep re-running the
		// (idempotent, still-asserted) trial job until every fault has
		// demonstrably happened and recovery was counted.
		deadline := time.Now().Add(10 * time.Second)
		for {
			s := cl.Hub.Stats()
			if s.Revocations > 0 && s.Disconnects > 0 && s.Reconnects > 0 && s.Releases >= 2 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("seed=%d: injected faults never all fired/recovered: %+v", tc.seed, s)
			}
			again, err := cl.findBestRouting(pc, lopts, spec, metric, factory)
			if err != nil {
				t.Fatalf("seed=%d: flush job: %v", tc.seed, err)
			}
			resultsEqual(t, "chaos flush job", want, again)
			time.Sleep(20 * time.Millisecond)
		}
	}
}

// startClusterWorkers wires n pipe workers with explicit options.
func startClusterWorkers(t *testing.T, h *dispatch.Hub, n int, opts *dispatch.ServeOptions) {
	t.Helper()
	for w := 0; w < n; w++ {
		server, client := net.Pipe()
		h.AddConn(server)
		go dispatch.ServeConn(client, Handlers(), opts)
	}
}
