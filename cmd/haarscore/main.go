// Command haarscore regenerates paper Tables I and II (Haar scores
// and average fidelities of the iSWAP-root bases, exact and
// approximate, with and without mirror gates) and the Fig. 5
// Monte-Carlo convergence series.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/bench"
	"repro/internal/haar"
	"repro/internal/polytope"
)

func main() {
	var (
		table   = flag.Int("table", 0, "print table 1 (exact) or 2 (approximate); 0 = both")
		fig5    = flag.Bool("fig5", false, "print the Fig. 5 convergence series as CSV")
		samples = flag.Int("samples", 1000, "Monte-Carlo samples (paper uses 1000)")
		seed    = flag.Int64("seed", 1, "random seed")
		rootsCS = flag.String("roots", "2,3,4", "comma-separated iSWAP roots")
		out     = flag.String("o", "", "write output to this file instead of stdout")
		cover   = flag.String("coverage-file", "", "persistent coverage-set library: loaded at startup, saved at exit (skips the empirical polytope rebuilds)")
	)
	flag.Parse()

	roots, err := bench.ParsePositiveInts("roots", *rootsCS)
	if err != nil {
		fmt.Fprintln(os.Stderr, "haarscore:", err)
		os.Exit(2)
	}

	if *cover != "" {
		save, err := polytope.WarmStartCoverageFile(*cover, os.Stderr)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer func() {
			if err := save(); err != nil {
				fmt.Fprintln(os.Stderr, err)
			}
		}()
	}

	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		w = f
	}

	opts := haar.Options{Samples: *samples, Seed: *seed}

	if *fig5 {
		cov := polytope.NewISwapRootCoverage(4)
		fmt.Fprintln(w, "# Fig. 5: Haar score convergence for iswap^(1/4), 4 strategies")
		fmt.Fprintln(w, "iteration,exact,approximate,exact_mirror,approximate_mirror")
		exact := haar.Score(cov, haar.Strategy{}, opts)
		approx := haar.Score(cov, haar.Strategy{Approximate: true}, opts)
		exactM := haar.Score(cov, haar.Strategy{Mirror: true}, opts)
		approxM := haar.Score(cov, haar.Strategy{Mirror: true, Approximate: true}, opts)
		for i := range exact.Series {
			fmt.Fprintf(w, "%d,%.6f,%.6f,%.6f,%.6f\n",
				i+1, exact.Series[i], approx.Series[i], exactM.Series[i], approxM.Series[i])
		}
		ref := haar.ReferenceScore(cov, false, 4**samples, *seed)
		refM := haar.ReferenceScore(cov, true, 4**samples, *seed)
		fmt.Fprintf(w, "# reference_exact=%.6f reference_mirror=%.6f\n", ref, refM)
		return
	}

	if *table == 0 || *table == 1 {
		fmt.Fprintln(w, "Table I — exact decomposition (paper: 1.105/0.9890, 1.029/0.9897 for sqrt-iSWAP)")
		printTable(w, haar.Table(roots, false, opts))
	}
	if *table == 0 || *table == 2 {
		fmt.Fprintln(w, "\nTable II — approximate decomposition (paper: 1.031/0.9895, 0.9950/0.9899 for sqrt-iSWAP)")
		printTable(w, haar.Table(roots, true, opts))
	}
}

func printTable(w *os.File, rows []haar.TableRow) {
	fmt.Fprintf(w, "%-14s %10s %10s %13s %13s\n", "Basis Gate", "Haar", "Fidelity", "Mirror Haar", "Mirror Fid")
	for _, r := range rows {
		fmt.Fprintf(w, "%-14s %10.4f %10.4f %13.4f %13.4f\n",
			r.Basis, r.Haar, r.Fidelity, r.MirrorHaar, r.MirrorFid)
	}
}
