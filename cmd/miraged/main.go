// Command miraged is the distributed-trial daemon of the dispatch
// subsystem: a worker that serves routing-trial jobs over gob/TCP, and
// a coordinator that routes the benchmark suite's trial grids on a
// worker fleet.
//
//	miraged worker -connect HOST:PORT
//	miraged coordinator -listen ADDR -workers N [-quick] [-json BENCH_routing.json]
//
// Workers are stateless between jobs: each job ships its own circuits
// (each with its forward FlatDAG, prepared once per worker per job),
// leases work-index ranges — the trials of whole layout rows — from
// the coordinator's queue, and can die at any point — unfinished leases are re-granted and, work
// items being deterministic in their index, the outcome is
// bit-identical to a single-process run. cmd/benchsuite exposes the
// same coordinator role via its -listen/-workers flags, so a serial
// `benchsuite -fig 12` and a `benchsuite -listen ... -fig 12` with
// miraged workers write row-identical BENCH_routing.json files (wall
// times and fleet counters excepted); CI's loopback
// smoke and chaos lanes assert exactly that.
//
// Workers reconnect with capped exponential backoff (-retry, -backoff,
// -backoff-max), heartbeat while computing (-heartbeat), and drain
// gracefully: SIGTERM/SIGINT — or an elapsed -drain duration — make
// the worker hand back its current lease (finished items included) and
// exit cleanly instead of dying mid-lease. The -chaos-* flags inject
// seeded faults (crash, silent stall, corrupt frame, partial write,
// slow items) for exercising the coordinator's recovery paths; see the
// CI chaos lane for the reference invocation.
//
// The coordinator itself is crash-safe with -journal DIR: completed
// result batches are persisted to a write-ahead journal before they
// are consumed, so a coordinator killed mid-suite and restarted with
// the same -journal directory resumes its jobs — replaying journaled
// results and re-granting only the remainder — with rows bit-identical
// to an uninterrupted run. With -local-fallback (default on) the
// coordinator also executes poison items (work whose lease repeatedly
// crashes workers) and whole job remainders when the fleet empties or
// never arrives (-fleet-wait), so a batch survives total worker loss.
// Any failure exits 1 and a usage error exits 2.
//
// The coordinator's fleet flags (-hb-timeout, -lease-timeout,
// -job-deadline, -rejoin-grace, -journal, -fleet-wait,
// -local-fallback) and the hub setup they drive are bench.FleetFlags,
// which cmd/benchsuite's distributed mode shares.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"repro/internal/bench"
	"repro/internal/circuit"
	"repro/internal/dispatch"
	"repro/internal/distrib"
	"repro/internal/sabre"
	"repro/internal/topology"
	"repro/internal/transpile"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	var err error
	switch os.Args[1] {
	case "worker":
		err = runWorker(os.Args[2:], nil)
	case "coordinator":
		err = runCoordinator(os.Args[2:])
	default:
		usage()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "miraged:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  miraged worker -connect HOST:PORT [-retry N] [-backoff D] [-backoff-max D]
                 [-heartbeat D] [-item-timeout D] [-drain D]
                 [-chaos-seed N] [-chaos-crash-lease N]
                 [-chaos-stall-lease N] [-chaos-stall-for D]
                 [-chaos-corrupt-lease N] [-chaos-partial-lease N] [-chaos-slow D]
  miraged coordinator -listen ADDR -workers N [-topology square|heavyhex]
                      [-quick] [-trials N] [-seed N] [-patience N]
                      [-lease N] [-json PATH] [-hb-timeout D] [-lease-timeout D]
                      [-job-deadline D] [-rejoin-grace D] [-journal DIR]
                      [-fleet-wait D] [-local-fallback=false]

exit codes: 0 success, 1 failure, 2 usage`)
	os.Exit(2)
}

// runWorker dials the coordinator and serves jobs until the connection
// closes, reconnecting with capped exponential backoff while -retry
// attempts remain. SIGTERM/SIGINT (or the optional extraDrain channel,
// used by tests, or an elapsed -drain duration) triggers a graceful
// drain: the worker returns its current lease to the coordinator —
// finished items included, so no work is recomputed — and exits 0.
func runWorker(args []string, extraDrain <-chan struct{}) error {
	fs := flag.NewFlagSet("miraged worker", flag.ExitOnError)
	var (
		connect     = fs.String("connect", "", "coordinator address (required)")
		retry       = fs.Int("retry", 0, "reconnect attempts after the coordinator goes away (0 = exit on first close)")
		backoff     = fs.Duration("backoff", time.Second, "initial reconnect backoff (doubles per consecutive failure, jittered)")
		backoffMax  = fs.Duration("backoff-max", 30*time.Second, "reconnect backoff cap")
		heartbeat   = fs.Duration("heartbeat", 0, "heartbeat interval while holding a lease (0 = 1s default, negative = disable)")
		itemTimeout = fs.Duration("item-timeout", 0, "per-work-item wall clock limit; on overrun the finished prefix is reported and the connection severed (0 = off)")
		drainAfter  = fs.Duration("drain", 0, "begin a graceful drain after this long (0 = drain only on SIGTERM/SIGINT)")

		chaosSeed    = fs.Int64("chaos-seed", 0, "fault injection: seed for deterministic fault content")
		chaosCrash   = fs.Int("chaos-crash-lease", 0, "fault injection: crash (close the connection) on the Nth lease of this process (0 = off)")
		chaosStall   = fs.Int("chaos-stall-lease", 0, "fault injection: go silent on the Nth lease (0 = off)")
		chaosStallD  = fs.Duration("chaos-stall-for", 0, "fault injection: stall duration (0 = 30s default)")
		chaosCorrupt = fs.Int("chaos-corrupt-lease", 0, "fault injection: write a corrupt gob frame on the Nth lease (0 = off)")
		chaosPartial = fs.Int("chaos-partial-lease", 0, "fault injection: truncate the results frame of the Nth lease (0 = off)")
		chaosSlow    = fs.Duration("chaos-slow", 0, "fault injection: sleep this long before every work item (0 = off)")
	)
	fs.Parse(args)
	if *connect == "" {
		fmt.Fprintln(os.Stderr, "miraged worker: -connect is required")
		os.Exit(2)
	}
	if *retry < 0 || *chaosCrash < 0 || *chaosStall < 0 || *chaosCorrupt < 0 || *chaosPartial < 0 {
		fmt.Fprintln(os.Stderr, "miraged worker: counts must be >= 0")
		os.Exit(2)
	}

	drain := make(chan struct{})
	var once sync.Once
	startDrain := func(why string) {
		once.Do(func() {
			fmt.Fprintf(os.Stderr, "miraged worker: draining (%s)\n", why)
			close(drain)
		})
	}
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGTERM, syscall.SIGINT)
	go func() {
		<-sigs
		startDrain("signal")
	}()
	if *drainAfter > 0 {
		t := time.AfterFunc(*drainAfter, func() { startDrain("-drain elapsed") })
		defer t.Stop()
	}
	if extraDrain != nil {
		go func() {
			<-extraDrain
			startDrain("test harness")
		}()
	}

	opts := &dispatch.ServeOptions{
		HeartbeatInterval: *heartbeat,
		ItemTimeout:       *itemTimeout,
		Drain:             drain,
	}
	if *chaosCrash > 0 || *chaosStall > 0 || *chaosCorrupt > 0 || *chaosPartial > 0 || *chaosSlow > 0 {
		opts.Chaos = &dispatch.ChaosConfig{
			Seed:           *chaosSeed,
			CrashOnLease:   *chaosCrash,
			StallOnLease:   *chaosStall,
			StallFor:       *chaosStallD,
			CorruptOnLease: *chaosCorrupt,
			PartialOnLease: *chaosPartial,
			SlowPerItem:    *chaosSlow,
		}
	}
	return dispatch.ServeLoop(*connect, distrib.Handlers(), opts, dispatch.ReconnectOptions{
		Attempts:       *retry,
		InitialBackoff: *backoff,
		MaxBackoff:     *backoffMax,
		Seed:           *chaosSeed,
	})
}

// runCoordinator transpiles the Fig. 12 suite (SABRE baseline + MIRAGE
// depth selection per circuit) as two batches whose layout rows run on
// the fleet, -lease rows per lease, and writes the merged
// BENCH_routing.json, fleet failure-event counters included.
func runCoordinator(args []string) error {
	fs := flag.NewFlagSet("miraged coordinator", flag.ExitOnError)
	var (
		listen   = fs.String("listen", "127.0.0.1:7117", "address to accept workers on")
		workers  = fs.Int("workers", 1, "workers to wait for before starting")
		topoName = fs.String("topology", "square", "square | heavyhex")
		quick    = fs.Bool("quick", false, "reduced circuit subset and trial counts")
		trials   = fs.Int("trials", 0, "layout/routing trials (0 = 20/20, quick = 4/4)")
		seed     = fs.Int64("seed", 1, "random seed")
		patience = fs.Int("patience", 0, "adaptive early-stop (0 = fixed grid)")
		lease    = fs.Int("lease", 0, "layout rows per work-queue lease (0 = default)")
		jsonPath = fs.String("json", "BENCH_routing.json", "results file (empty = disabled)")
		fleet    = bench.NewFleetFlags(fs)
	)
	fs.Parse(args)
	if err := (bench.SchedulerFlags{
		Patience: *patience, Trials: *trials, Workers: *workers, Lease: *lease,
	}).Validate(); err != nil {
		fmt.Fprintln(os.Stderr, "miraged coordinator:", err)
		os.Exit(2)
	}
	if *workers < 1 {
		fmt.Fprintln(os.Stderr, "miraged coordinator: -workers must be >= 1")
		os.Exit(2)
	}

	lt, rt, fb := 20, 20, 4
	if *quick {
		lt, rt, fb = 4, 4, 2
	}
	if *trials > 0 {
		lt, rt = *trials, *trials
	}
	var topo *topology.Topology
	switch *topoName {
	case "square":
		topo = topology.SquareLattice66()
	case "heavyhex":
		topo = topology.HeavyHex57()
	default:
		fmt.Fprintf(os.Stderr, "miraged coordinator: unknown -topology %q (want square or heavyhex)\n", *topoName)
		os.Exit(2)
	}

	hub, err := fleet.StartHub(*listen, *workers)
	if err != nil {
		return err
	}
	defer hub.Close()
	cl := distrib.NewCluster(hub)
	cl.TrialLease = *lease

	entries := bench.Suite()
	if *quick {
		entries = bench.QuickSuite()
	}
	circuits := make([]*circuit.Circuit, len(entries))
	for i, e := range entries {
		circuits[i] = e.Build()
	}

	base := transpile.Options{
		Layout: sabre.LayoutOptions{
			LayoutTrials: lt, RoutingTrials: rt, FwdBwdPasses: fb, Seed: *seed,
			ConvergencePatience: *patience,
		},
		SkipTrivialLayout: true,
	}
	start := time.Now()
	run := func(opts transpile.Options) ([]*transpile.Report, error) {
		return cl.TranspileBatch(circuits, topo, opts)
	}
	sabreOpts := base
	mirOpts := base
	mirOpts.Router = transpile.MIRAGE
	mirOpts.DepthSelection = true
	qReps, err := run(sabreOpts)
	if err != nil {
		return err
	}
	mReps, err := run(mirOpts)
	if err != nil {
		return err
	}
	total := time.Since(start)

	var rows []bench.RoutingRow
	fmt.Printf("%-22s | %9s %9s | %6s %6s | %11s\n", "circuit", "q-depth", "m-depth", "q-swp", "m-swp", "trials")
	for i, e := range entries {
		q, m := qReps[i], mReps[i]
		rows = append(rows, bench.NewRoutingRow(len(rows), e.Name, q), bench.NewRoutingRow(len(rows)+1, e.Name, m))
		fmt.Printf("%-22s | %9.1f %9.1f | %6d %6d | %4d+%d/%d\n",
			e.Name, q.DepthPulses, m.DepthPulses, q.SwapsInserted, m.SwapsInserted,
			q.TrialsExecuted, m.TrialsExecuted, m.TrialsBudgeted)
	}
	stats := hub.Stats()
	fmt.Printf("total runtime: %s over %d workers\n", total.Round(time.Millisecond), hub.Workers())
	fmt.Printf("fleet events: %v\n", stats)

	if *jsonPath != "" {
		f := bench.NewRoutingBenchFile(topo.Name, base.Layout, total, &stats, rows)
		if err := f.WriteFile(*jsonPath); err != nil {
			return err
		}
		fmt.Printf("wrote %s (%d rows)\n", *jsonPath, len(f.Rows))
	}
	return nil
}
