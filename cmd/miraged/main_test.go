package main

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/circuit"
	"repro/internal/dispatch"
	"repro/internal/distrib"
	"repro/internal/gates"
	"repro/internal/topology"
	"repro/internal/transpile"
)

// TestExitCodes pins the coordinator's documented exit-code contract:
// wrapper scripts branch on 3 (busy, retry later) vs 4 (draining,
// resubmit elsewhere) vs 1 (the job itself failed), including when the
// sentinel arrives wrapped in job context, which is how RunJob returns
// them.
func TestExitCodes(t *testing.T) {
	cases := []struct {
		err  error
		want int
	}{
		{fmt.Errorf("dispatch: job %q rejected, 1 of 1 queued-job slots in use (MaxQueuedJobs): %w", "mirage/trials", dispatch.ErrBusy), 3},
		{fmt.Errorf("dispatch: job %q rejected: %w", "mirage/trials", dispatch.ErrDraining), 4},
		{dispatch.ErrBusy, 3},
		{dispatch.ErrDraining, 4},
		{errors.New("dispatch: job failed: worker exploded"), 1},
		{dispatch.ErrSimulatedCrash, 1},
	}
	for _, c := range cases {
		if got := exitCode(c.err); got != c.want {
			t.Errorf("exitCode(%v) = %d, want %d", c.err, got, c.want)
		}
	}
}

// TestWorkerDrainHandsBackLease drives runWorker exactly as the
// `miraged worker` subcommand would run it and drains it mid-job: the
// worker must return its current lease to the coordinator (so another
// worker finishes the batch bit-identically to a serial run) and exit
// cleanly with a nil error — the same path SIGTERM and -drain take.
func TestWorkerDrainHandsBackLease(t *testing.T) {
	topo := topology.Grid(3, 3)
	circuits := make([]*circuit.Circuit, 8)
	for i := range circuits {
		c := circuit.New("drain", 5)
		for q := 0; q < 4; q++ {
			c.Add(gates.H(), q)
			c.Add(gates.CX(), q, (q+1+i%3)%5)
		}
		circuits[i] = c
	}
	opts := transpile.Options{
		Router: transpile.MIRAGE, DepthSelection: true, SkipTrivialLayout: true,
	}
	opts.Layout.LayoutTrials, opts.Layout.RoutingTrials = 2, 2
	opts.Layout.FwdBwdPasses, opts.Layout.Seed = 1, 9
	want, err := transpile.TranspileBatch(circuits, topo, opts)
	if err != nil {
		t.Fatal(err)
	}

	hub := dispatch.NewHub()
	t.Cleanup(hub.Close)
	addr, err := hub.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	// A second, slower worker survives the drain and finishes the job.
	go dispatch.ServeLoop(addr.String(), distrib.Handlers(), &dispatch.ServeOptions{
		Chaos: &dispatch.ChaosConfig{SlowPerItem: 5 * time.Millisecond},
	}, dispatch.ReconnectOptions{Attempts: 3, InitialBackoff: 10 * time.Millisecond})

	drain := make(chan struct{})
	workerDone := make(chan error, 1)
	go func() {
		workerDone <- runWorker([]string{
			"-connect", addr.String(),
			"-chaos-slow", "5ms", // stretch leases so the drain lands mid-lease
		}, drain)
	}()
	if err := hub.WaitWorkers(2, 5*time.Second); err != nil {
		t.Fatal(err)
	}

	cl := distrib.NewCluster(hub)
	cl.TrialLease = 2
	jobDone := make(chan struct{})
	var got []*transpile.Report
	var jobErr error
	go func() {
		got, jobErr = cl.TranspileBatch(circuits, topo, opts)
		close(jobDone)
	}()
	time.Sleep(30 * time.Millisecond) // let the job start and leases land
	close(drain)

	select {
	case err := <-workerDone:
		if err != nil {
			t.Fatalf("drained worker exited with error: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("drained worker did not exit")
	}
	select {
	case <-jobDone:
	case <-time.After(30 * time.Second):
		t.Fatal("job did not survive the worker drain")
	}
	if jobErr != nil {
		t.Fatalf("job failed after graceful drain: %v", jobErr)
	}
	if len(got) != len(want) {
		t.Fatalf("got %d reports, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].DepthPulses != want[i].DepthPulses ||
			got[i].SwapsInserted != want[i].SwapsInserted ||
			got[i].MirrorsUsed != want[i].MirrorsUsed ||
			got[i].TrialsExecuted != want[i].TrialsExecuted {
			t.Fatalf("report %d differs from serial after drain: %+v vs %+v", i, got[i], want[i])
		}
	}
}
