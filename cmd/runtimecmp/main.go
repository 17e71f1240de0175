// Command runtimecmp regenerates the Fig. 13b runtime study: QFT
// transpilation wall time as the circuit scales (n = 16 .. 64), for
// the SABRE baseline and MIRAGE, plus the coordinate-cache ablation of
// Fig. 13a (cold vs warm cache hit rates).
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/bench"
	"repro/internal/circuit"
	"repro/internal/dispatch"
	"repro/internal/sabre"
	"repro/internal/topology"
	"repro/internal/transpile"
)

func main() {
	var (
		sizes    = flag.String("sizes", "16,24,32,48,64", "comma-separated QFT sizes")
		trials   = flag.Int("trials", 2, "layout/routing trials (small: this is a runtime study)")
		seed     = flag.Int64("seed", 1, "random seed")
		parallel = flag.Int("parallel", 0, "layout-row workers (0 = one per CPU, 1 = serial)")
		patience = flag.Int("patience", 0, "adaptive early-stop: consecutive non-improving trial indices before the scheduler stops (0 = fixed grid)")
	)
	flag.Parse()

	if err := (bench.SchedulerFlags{
		Parallel: *parallel, Patience: *patience, Trials: *trials,
	}).Validate(); err != nil {
		fmt.Fprintln(os.Stderr, "runtimecmp:", err)
		os.Exit(2)
	}
	ns, err := bench.ParsePositiveInts("sizes", *sizes)
	if err != nil {
		fmt.Fprintln(os.Stderr, "runtimecmp:", err)
		os.Exit(2)
	}

	layout := sabre.LayoutOptions{
		LayoutTrials: *trials, RoutingTrials: *trials, FwdBwdPasses: 2, Seed: *seed,
		Parallelism: *parallel, ConvergencePatience: *patience,
	}

	fmt.Printf("Fig. 13b — QFT transpilation runtime (wall clock, %d workers, patience %d)\n",
		dispatch.Size(layout.Parallelism), *patience)
	fmt.Printf("%-10s %8s %12s %12s %14s %12s\n", "circuit", "qubits", "sabre", "mirage", "cache hit rate", "trials")
	for _, n := range ns {
		c := bench.QFT(n)
		// Pick a topology large enough for the circuit: a near-square
		// grid, as in the paper's square-lattice target.
		rows := 1
		for rows*rows < n {
			rows++
		}
		topo := topology.Grid(rows, (n+rows-1)/rows)

		tS, _ := timeRun(c, topo, transpile.SABRE, layout)
		circuit.ResetCoordinateCache()
		tM, mRep := timeRun(c, topo, transpile.MIRAGE, layout)
		hits, misses := circuit.CoordinateCacheStats()
		rate := 0.0
		if hits+misses > 0 {
			rate = float64(hits) / float64(hits+misses)
		}
		fmt.Printf("qft_n%-5d %8d %12s %12s %13.1f%% %6d/%d\n",
			n, topo.NumQubits, tS.Round(time.Millisecond), tM.Round(time.Millisecond), 100*rate,
			mRep.TrialsExecuted, mRep.TrialsBudgeted)
	}
	fmt.Println("\n(paper: MIRAGE in Python ran 47.9% faster than Qiskit's Python")
	fmt.Println(" SABRE at n=64 thanks to the Fig. 13a caching; the absolute times")
	fmt.Println(" here are not comparable, but the cache hit rate shows the same")
	fmt.Println(" mechanism at work.)")
}

func timeRun(c *circuit.Circuit, topo *topology.Topology, r transpile.Router,
	layout sabre.LayoutOptions) (time.Duration, *transpile.Report) {
	start := time.Now()
	rep, err := transpile.Transpile(c, topo, transpile.Options{
		Router:            r,
		DepthSelection:    r == transpile.MIRAGE,
		Layout:            layout,
		SkipTrivialLayout: true,
	})
	if err != nil {
		panic(err)
	}
	return time.Since(start), rep
}
