// Command benchsuite regenerates the routing evaluation of the paper:
// Fig. 10 (aggression levels), Fig. 11 (post-selection metric) and
// Fig. 12 (heavy-hex and square-lattice depth / gate / SWAP
// comparisons), plus the Table III inventory.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/dispatch"
	"repro/internal/distrib"
	"repro/internal/mirage"
	"repro/internal/mirrorbench"
	"repro/internal/polytope"
	"repro/internal/sabre"
	"repro/internal/topology"
	"repro/internal/transpile"
)

// runConfig carries the scheduler/engine knobs through every
// experiment.
type runConfig struct {
	layout  sabre.LayoutOptions
	kernels bool // run the numeric-kernel -benchmem lane
	// cluster, when non-nil, fans every trial grid's layout rows out to
	// remote miraged workers (-listen/-workers). Results are
	// bit-identical to local runs; only wall times and fleet counters
	// move.
	cluster *distrib.Cluster
}

func (rc *runConfig) options(router transpile.Router, depth bool, fixed *mirage.Aggression) transpile.Options {
	opts := transpile.Options{
		Router:            router,
		DepthSelection:    depth,
		FixedAggression:   fixed,
		Layout:            rc.layout,
		SkipTrivialLayout: true, // the suite circuits all need routing
	}
	if rc.cluster != nil {
		dopts, err := rc.cluster.Options(opts)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return dopts
	}
	return opts
}

// fleetStats snapshots the hub's failure-event counters for the JSON
// document; nil on serial runs so the schema is unchanged for them.
func (rc *runConfig) fleetStats() *dispatch.FleetStats {
	if rc.cluster == nil {
		return nil
	}
	s := rc.cluster.Hub.Stats()
	return &s
}

func main() {
	var (
		fig       = flag.String("fig", "12", "experiment: 10 | 11 | 12 | table3 | mirror")
		topoName  = flag.String("topology", "square", "topology for fig 11/12/mirror: square | heavyhex | grid34 | line12")
		quick     = flag.Bool("quick", false, "reduced trial counts and circuit subset")
		trials    = flag.Int("trials", 0, "layout/routing trials (0 = paper defaults 20/20, quick = 4/4)")
		seed      = flag.Int64("seed", 1, "random seed")
		parallel  = flag.Int("parallel", 0, "layout-row workers (0 = one per CPU, 1 = serial)")
		patience  = flag.Int("patience", 0, "stop scheduling trials after N consecutive non-improving trial indices (0 = fixed grid)")
		coverFile = flag.String("coverage-file", "", "persistent coverage-set library: loaded at startup, saved at exit (skips the empirical polytope rebuilds)")
		jsonPath  = flag.String("json", "BENCH_routing.json", "machine-readable fig-12 results file (empty = disabled)")
		kernels   = flag.Bool("kernels", false, "run the numeric-kernel -benchmem lane and record it in the results file")
		patSweep  = flag.String("patience-sweep", "", "comma-separated ConvergencePatience values to sweep on the suite (e.g. \"0,2,5,8,12\"); runs the sweep instead of -fig")
		patJSON   = flag.String("patience-json", "BENCH_patience.json", "machine-readable patience-sweep results file (empty = disabled)")
		listen    = flag.String("listen", "", "coordinator address for distributed trials (e.g. 127.0.0.1:7117); workers join with `miraged worker -connect`")
		workers   = flag.Int("workers", 0, "remote workers to wait for before starting (requires -listen)")
		lease     = flag.Int("lease", 0, "layout rows per work-queue lease in distributed mode (0 = default)")
		fleet     = bench.NewFleetFlags(flag.CommandLine)
		cpuProf   = flag.String("cpuprofile", "", "write a CPU profile of the whole run to this file (pprof format)")
		memProf   = flag.String("memprofile", "", "write a heap profile at exit to this file (pprof format)")
	)
	flag.Parse()

	// Profiles cover the run end to end so the routing lane in CI can
	// archive where suite time actually goes. Error paths exit without
	// flushing — the profile artifact is a success-path deliverable.
	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchsuite:", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "benchsuite:", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fmt.Fprintln(os.Stderr, "benchsuite:", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle the heap so live objects dominate the profile
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "benchsuite:", err)
			}
		}()
	}

	if err := (bench.SchedulerFlags{
		Parallel: *parallel, Patience: *patience, Trials: *trials,
		Workers: *workers, Lease: *lease,
	}).Validate(); err != nil {
		fmt.Fprintln(os.Stderr, "benchsuite:", err)
		os.Exit(2)
	}
	if (*listen == "") != (*workers == 0) {
		fmt.Fprintln(os.Stderr, "benchsuite: -listen and -workers must be set together")
		os.Exit(2)
	}
	if fleet.Journal != "" && *listen == "" {
		fmt.Fprintln(os.Stderr, "benchsuite: -journal only applies to distributed runs (set -listen); serial runs are rerun, not resumed")
		os.Exit(2)
	}

	lt, rt, fb := 20, 20, 4
	if *quick {
		lt, rt, fb = 4, 4, 2
	}
	if *trials > 0 {
		lt, rt = *trials, *trials
	}
	rc := &runConfig{
		layout: sabre.LayoutOptions{
			LayoutTrials: lt, RoutingTrials: rt, FwdBwdPasses: fb, Seed: *seed,
			Parallelism: *parallel, ConvergencePatience: *patience,
		},
	}
	var saveCoverage func() error
	if *coverFile != "" {
		var err error
		saveCoverage, err = polytope.WarmStartCoverageFile(*coverFile, os.Stdout)
		if err != nil {
			fmt.Fprintf(os.Stderr, "loading %s: %v\n", *coverFile, err)
			os.Exit(1)
		}
	}
	rc.kernels = *kernels

	if *listen != "" {
		hub, err := fleet.StartHub(*listen, *workers)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchsuite:", err)
			os.Exit(1)
		}
		defer hub.Close()
		fmt.Printf("%d workers connected; trials will be dispatched remotely\n", hub.Workers())
		rc.cluster = distrib.NewCluster(hub)
		rc.cluster.TrialLease = *lease
	}

	if *patSweep != "" {
		runPatienceSweep(rc, pickTopo(*topoName), *quick, *patSweep, *patJSON)
		saveCoverageLibrary(saveCoverage, *coverFile)
		return
	}

	switch *fig {
	case "table3":
		runTable3()
	case "10":
		runFig10(rc)
	case "11":
		runFig11(rc, pickTopo(*topoName), *quick)
	case "12":
		runFig12(rc, pickTopo(*topoName), *quick, *jsonPath)
	case "mirror":
		runMirror(rc, pickTopo(*topoName), *quick, *jsonPath)
	default:
		fmt.Fprintf(os.Stderr, "unknown -fig %q\n", *fig)
		os.Exit(1)
	}
	saveCoverageLibrary(saveCoverage, *coverFile)
}

func saveCoverageLibrary(saveCoverage func() error, coverFile string) {
	if saveCoverage != nil {
		if err := saveCoverage(); err != nil {
			fmt.Fprintf(os.Stderr, "saving %s: %v\n", coverFile, err)
			os.Exit(1)
		}
		fmt.Printf("coverage sets: saved library to %s\n", coverFile)
	}
}

// runPatienceSweep measures the quality/throughput trade of the
// adaptive trial scheduler: for each ConvergencePatience value it runs
// the MIRAGE-Depth pipeline over the suite and aggregates summed depth
// against executed trials, relative to the patience=0 full grid. Both
// depth and trial counts are seed-deterministic (the stop rule is
// defined on trial indices), so rows are comparable across machines.
func runPatienceSweep(rc *runConfig, topo *topology.Topology, quick bool, spec, jsonPath string) {
	var values []int
	for _, f := range strings.Split(spec, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || v < 0 {
			fmt.Fprintf(os.Stderr, "bad -patience-sweep value %q\n", f)
			os.Exit(1)
		}
		values = append(values, v)
	}
	entries := suite(quick)
	fmt.Printf("ConvergencePatience sweep on %s (%dx%d trials, %d circuits)\n",
		topo.Name, rc.layout.LayoutTrials, rc.layout.RoutingTrials, len(entries))
	fmt.Printf("%-9s | %12s %9s | %9s %9s %7s | %9s\n",
		"patience", "depth-sum", "vs-full", "executed", "budgeted", "saved", "wall")

	file := &bench.PatienceSweepFile{
		Topology:      topo.Name,
		Seed:          rc.layout.Seed,
		LayoutTrials:  rc.layout.LayoutTrials,
		RoutingTrials: rc.layout.RoutingTrials,
	}
	for _, e := range entries {
		file.Circuits = append(file.Circuits, e.Name)
	}
	// One prepared analysis per circuit, reused by every patience value:
	// the sweep varies only the stop rule, never the circuit.
	prepped := make([]*transpile.PreparedCircuit, len(entries))
	for i, e := range entries {
		prepped[i] = transpile.PrepareCircuit(e.Build(), topo)
	}
	var fullDepth float64
	for vi, p := range values {
		rcp := *rc
		rcp.layout.ConvergencePatience = p
		var row bench.PatienceSweepRow
		row.Patience = p
		start := time.Now()
		for _, pc := range prepped {
			rep := transpileOne(pc, transpile.MIRAGE, true, nil, &rcp)
			row.DepthPulsesSum += rep.DepthPulses
			row.TrialsExecuted += rep.TrialsExecuted
			row.TrialsBudgeted += rep.TrialsBudgeted
		}
		row.WallMS = float64(time.Since(start).Microseconds()) / 1000
		if vi == 0 && p != 0 {
			fmt.Fprintln(os.Stderr, "note: first sweep value is not 0; depth_regress_pct is relative to it")
		}
		if vi == 0 {
			fullDepth = row.DepthPulsesSum
		}
		if fullDepth > 0 {
			row.DepthRegressPct = 100 * (row.DepthPulsesSum - fullDepth) / fullDepth
		}
		if row.TrialsBudgeted > 0 {
			row.TrialsSavedPct = 100 * float64(row.TrialsBudgeted-row.TrialsExecuted) / float64(row.TrialsBudgeted)
		}
		file.Rows = append(file.Rows, row)
		fmt.Printf("%-9d | %12.1f %+8.2f%% | %9d %9d %6.1f%% | %7.0fms\n",
			p, row.DepthPulsesSum, row.DepthRegressPct,
			row.TrialsExecuted, row.TrialsBudgeted, row.TrialsSavedPct, row.WallMS)
	}
	if jsonPath != "" {
		if err := file.WriteFile(jsonPath); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s (%d rows)\n", jsonPath, len(file.Rows))
	}
}

func pickTopo(name string) *topology.Topology {
	switch name {
	case "square":
		return topology.SquareLattice66()
	case "heavyhex":
		return topology.HeavyHex57()
	// The small devices below exist for the mirror semantic gate: the
	// routed footprint must stay within circuit.MaxUnitaryQubits for
	// dense-unitary verification, so CI gates on compact topologies.
	case "grid34":
		return topology.Grid(3, 4)
	case "line12":
		return topology.Line(12)
	}
	// Same rationale as SchedulerFlags.Validate: a typo must not
	// silently benchmark the wrong machine.
	fmt.Fprintf(os.Stderr, "benchsuite: unknown -topology %q (want square, heavyhex, grid34 or line12)\n", name)
	os.Exit(2)
	return nil
}

func suite(quick bool) []bench.Entry {
	if quick {
		return bench.QuickSuite()
	}
	return bench.Suite()
}

func runTable3() {
	fmt.Println("Table III — selected circuit benchmarks")
	fmt.Printf("%-22s %8s %10s %-16s\n", "Name", "Qubits", "2Q Gates", "Class")
	for _, e := range bench.Suite() {
		c := e.Build()
		fmt.Printf("%-22s %8d %10d %-16s\n", e.Name, c.NumQubits, c.Count2Q(), e.Class)
	}
}

// transpileOne runs one router configuration over a shared
// PreparedCircuit. Callers prepare each circuit once
// and reuse the analysis across every router/aggression/patience row,
// so the per-circuit cleaning, consolidation and DAG construction is
// paid once per circuit rather than once per row.
func transpileOne(pc *transpile.PreparedCircuit, router transpile.Router,
	depth bool, fixed *mirage.Aggression, rc *runConfig) *transpile.Report {
	rep, err := transpile.TranspilePrepared(pc, rc.options(router, depth, fixed))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	return rep
}

func runFig10(rc *runConfig) {
	fmt.Println("Fig. 10 — aggression level study (average pulse depth; lower is better)")
	names := []string{"wstate_n27", "bigadder_n18", "qft_n18", "bv_n30"}
	topo := topology.SquareLattice66()
	fmt.Printf("%-16s %10s %10s %10s %10s %10s\n", "circuit", "qiskit", "a0", "a1", "a2", "a3")
	for _, name := range names {
		e, err := bench.ByName(name)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		pc := transpile.PrepareCircuit(e.Build(), topo)
		base := transpileOne(pc, transpile.SABRE, false, nil, rc)
		row := fmt.Sprintf("%-16s %10.1f", name, base.DepthPulses)
		for lvl := 0; lvl <= 3; lvl++ {
			a := mirage.Aggression(lvl)
			rep := transpileOne(pc, transpile.MIRAGE, true, &a, rc)
			row += fmt.Sprintf(" %10.1f", rep.DepthPulses)
		}
		fmt.Println(row)
	}
	fmt.Println("\nAs in the paper, no single aggression level wins everywhere —")
	fmt.Println("which motivates the mixed 5/45/45/5 trial distribution.")
}

func runFig11(rc *runConfig, topo *topology.Topology, quick bool) {
	fmt.Printf("Fig. 11 — post-selection metric study on %s\n", topo.Name)
	fmt.Printf("%-22s %10s %14s %14s\n", "circuit", "qiskit", "mirage-swaps", "mirage-depth")
	var dq, ds, dd float64
	for _, e := range suite(quick) {
		pc := transpile.PrepareCircuit(e.Build(), topo)
		q := transpileOne(pc, transpile.SABRE, false, nil, rc)
		s := transpileOne(pc, transpile.MIRAGE, false, nil, rc)
		d := transpileOne(pc, transpile.MIRAGE, true, nil, rc)
		fmt.Printf("%-22s %10.1f %14.1f %14.1f\n", e.Name, q.DepthPulses, s.DepthPulses, d.DepthPulses)
		dq += q.DepthPulses
		ds += s.DepthPulses
		dd += d.DepthPulses
	}
	fmt.Printf("\naverage depth reduction vs qiskit: mirage-swaps %.1f%%, mirage-depth %.1f%%\n",
		100*(dq-ds)/dq, 100*(dq-dd)/dq)
	fmt.Println("(paper: 24.1% and 29.5% on the full suite with 20/20/4 trials)")
}

func runFig12(rc *runConfig, topo *topology.Topology, quick bool, jsonPath string) {
	fmt.Printf("Fig. 12 — MIRAGE vs Qiskit-SABRE on %s (%d workers, patience %d)\n",
		topo.Name, dispatch.Size(rc.layout.Parallelism), rc.layout.ConvergencePatience)
	fmt.Printf("%-22s | %9s %9s | %9s %9s | %6s %6s | %8s | %11s\n",
		"circuit", "q-depth", "m-depth", "q-gates", "m-gates", "q-swp", "m-swp", "mirror%", "trials")
	// The paper's Fig. 12 covers its Table III rows only; the mirror
	// rows are summarised on their own.
	var paperRows, mirrorRows []bench.Fig12Row
	start := time.Now()
	var rows []bench.RoutingRow
	verifyFailures := 0
	// addRow records rep's row; expected, non-nil on mirror-family
	// rows, is the survival bitstring the row is checked against.
	addRow := func(name string, rep *transpile.Report, expected []int) {
		row := bench.NewRoutingRow(len(rows), name, rep)
		if expected != nil {
			_, err := verifyMirrorRow(&row, rep, expected)
			switch {
			case errors.Is(err, mirrorbench.ErrTooWide):
				// Advisory skip on big devices: the routed footprint
				// outgrew the dense-unitary limit, so the check cannot
				// run here. The -fig mirror gate (small topologies)
				// treats the same condition as a failure.
				fmt.Fprintf(os.Stderr, "mirror check: skipping %s/%s: %v\n", name, rep.Router, err)
			case err != nil:
				verifyFailures++
				fmt.Fprintf(os.Stderr, "mirror check: FAIL %s/%s: %v\n", name, rep.Router, err)
			}
		}
		rows = append(rows, row)
	}
	for _, e := range suite(quick) {
		pc := transpile.PrepareCircuit(e.Build(), topo)
		q := transpileOne(pc, transpile.SABRE, false, nil, rc)
		m := transpileOne(pc, transpile.MIRAGE, true, nil, rc)
		var expected []int
		if e.Mirror != nil {
			expected = mirrorbench.Generate(*e.Mirror).Expected
		}
		addRow(e.Name, q, expected)
		addRow(e.Name, m, expected)
		fmt.Printf("%-22s | %9.1f %9.1f | %9.0f %9.0f | %6d %6d | %7.1f%% | %4d+%d/%d\n",
			e.Name, q.DepthPulses, m.DepthPulses, q.TotalBasisGates, m.TotalBasisGates,
			q.SwapsInserted, m.SwapsInserted, 100*m.MirrorAcceptRate,
			q.TrialsExecuted, m.TrialsExecuted, m.TrialsBudgeted)
		fr := bench.Fig12Row{
			Base:   bench.Fig12Figures{Depth: q.DepthPulses, Gates: q.TotalBasisGates, Swaps: float64(q.SwapsInserted)},
			Mirage: bench.Fig12Figures{Depth: m.DepthPulses, Gates: m.TotalBasisGates, Swaps: float64(m.SwapsInserted)},
		}
		if e.Mirror == nil {
			paperRows = append(paperRows, fr)
		} else {
			mirrorRows = append(mirrorRows, fr)
		}
	}
	avg, weighted := bench.Fig12Reductions(paperRows)
	fmt.Printf("\npaper rows (%d), average reductions: depth %.2f%%, total gates %.2f%%, swaps %.2f%%\n",
		len(paperRows), avg.Depth, avg.Gates, avg.Swaps)
	fmt.Printf("paper rows (%d), weighted reductions: depth %.2f%%, gates %.2f%%, swaps %.2f%%\n",
		len(paperRows), weighted.Depth, weighted.Gates, weighted.Swaps)
	fmt.Printf("(paper heavy-hex: depth -31.19%%, gates -16.97%%, swaps -56.19%%;\n")
	fmt.Printf(" paper square:    depth -29.58%%, gates -10.25%%, swaps -59.86%%)\n")
	if len(mirrorRows) > 0 {
		avg, weighted = bench.Fig12Reductions(mirrorRows)
		fmt.Printf("mirror rows (%d, not in the paper), average reductions: depth %.2f%%, gates %.2f%%, swaps %.2f%%; weighted: depth %.2f%%, gates %.2f%%, swaps %.2f%%\n",
			len(mirrorRows), avg.Depth, avg.Gates, avg.Swaps, weighted.Depth, weighted.Gates, weighted.Swaps)
	}
	total := time.Since(start)
	fmt.Printf("total runtime: %s\n", total.Round(time.Millisecond))
	var kernelRows []bench.KernelRow
	if rc.kernels {
		fmt.Println("\nnumeric-kernel lane (-benchmem):")
		var err error
		kernelRows, err = bench.RunKernelBenchmarks()
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		for _, k := range kernelRows {
			fmt.Printf("  %-28s %12.0f ns/op %8d B/op %6d allocs/op\n",
				k.Name, k.NsPerOp, k.BytesPerOp, k.AllocsPerOp)
		}
	}
	if jsonPath != "" {
		f := bench.NewRoutingBenchFile(topo.Name, rc.layout, total, rc.fleetStats(), rows)
		f.Kernels = kernelRows
		writeRoutingFile(f, jsonPath)
	}
	if verifyFailures > 0 {
		fmt.Fprintf(os.Stderr, "mirror check: %d row(s) violated the survival identity\n", verifyFailures)
		os.Exit(1)
	}
}

// runMirror is the mirror-circuit semantic gate: every mirror-family
// suite row is transpiled with both routers and the output is checked
// against its analytically-known survival bitstring — no reference
// transpiler needed, the mirror construction itself is the oracle. Any
// violation (including a routed footprint too wide to verify, which on
// the gate's small topologies indicates a routing bug; its row carries
// no verdict) exits non-zero after the JSON document is written, so CI
// still gets the artifact.
func runMirror(rc *runConfig, topo *topology.Topology, quick bool, jsonPath string) {
	var entries []bench.Entry
	for _, e := range suite(quick) {
		if e.Mirror != nil {
			entries = append(entries, e)
		}
	}
	fmt.Printf("Mirror-circuit semantic gate on %s (%dx%d trials, tol %.0e, %d circuits)\n",
		topo.Name, rc.layout.LayoutTrials, rc.layout.RoutingTrials, mirrorTol, len(entries))
	fmt.Printf("%-22s %-8s | %8s | %18s | %9s %6s\n",
		"circuit", "router", "verdict", "survival-fidelity", "depth", "swaps")
	var rows []bench.RoutingRow
	failures := 0
	start := time.Now()
	for _, e := range entries {
		gen := mirrorbench.Generate(*e.Mirror)
		pc := transpile.PrepareCircuit(gen.Circuit, topo)
		for _, router := range []transpile.Router{transpile.SABRE, transpile.MIRAGE} {
			rep := transpileOne(pc, router, router == transpile.MIRAGE, nil, rc)
			row := bench.NewRoutingRow(len(rows), e.Name, rep)
			fid, err := verifyMirrorRow(&row, rep, gen.Expected)
			verdict := "pass"
			if err != nil {
				failures++
				verdict = "FAIL"
				fmt.Fprintf(os.Stderr, "mirror gate: %s/%s: %v\n", e.Name, rep.Router, err)
			}
			rows = append(rows, row)
			fmt.Printf("%-22s %-8s | %8s | %18.15f | %9.1f %6d\n",
				e.Name, rep.Router, verdict, fid, rep.DepthPulses, rep.SwapsInserted)
		}
	}
	total := time.Since(start)
	fmt.Printf("total runtime: %s\n", total.Round(time.Millisecond))
	if jsonPath != "" {
		writeRoutingFile(bench.NewRoutingBenchFile(topo.Name, rc.layout, total, rc.fleetStats(), rows), jsonPath)
	}
	if failures > 0 {
		fmt.Fprintf(os.Stderr, "mirror gate: %d/%d rows violated the survival identity\n", failures, len(rows))
		os.Exit(1)
	}
	fmt.Printf("mirror gate: all %d rows preserved their survival bitstring\n", len(rows))
}

// mirrorTol is the survival infidelity a routed mirror circuit may show.
const mirrorTol = 1e-9

// verifyMirrorRow checks a mirror-family row's routed circuit against
// its expected survival bitstring and records the verdict and the
// survival fidelity on row. A routed footprint too wide for the
// dense-unitary check (mirrorbench.ErrTooWide) leaves no verdict. It
// returns the fidelity and the check's error.
func verifyMirrorRow(row *bench.RoutingRow, rep *transpile.Report, expected []int) (float64, error) {
	fid, err := mirrorbench.Verify(rep.Routed, rep.FinalLayout, expected, mirrorTol)
	if errors.Is(err, mirrorbench.ErrTooWide) {
		return fid, err
	}
	ok := err == nil
	row.MirrorVerified, row.SurvivalFidelity = &ok, &fid
	return fid, err
}

func writeRoutingFile(f *bench.RoutingBenchFile, path string) {
	if err := f.WriteFile(path); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s (%d rows)\n", path, len(f.Rows))
}
