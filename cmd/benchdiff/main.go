// Command benchdiff compares two BENCH_routing.json files (as written
// by cmd/benchsuite -fig 12) and reports per-row and aggregate deltas.
// CI runs it against the previous workflow run's artifact to track the
// performance trajectory across PRs:
//
//	benchdiff old.json new.json
//
// Quality metrics (depth, gates, swaps) are seed-deterministic, so any
// delta there is a behaviour change worth explaining in review; wall
// times vary with hardware and are reported as context only. With
// -max-depth-regress set, the exit code turns a quality regression
// beyond the threshold into a CI failure.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/bench"
)

func pct(old, new float64) string {
	if old == 0 {
		if new == 0 {
			return "   0.0%"
		}
		return "    new"
	}
	return fmt.Sprintf("%+6.1f%%", 100*(new-old)/old)
}

func main() {
	maxDepthRegress := flag.Float64("max-depth-regress", 0,
		"fail (exit 1) if any row's depth_pulses regresses by more than this percentage (0 = report only)")
	allowAllocRegress := flag.Bool("allow-alloc-regress", false,
		"report kernel allocs/op increases without failing (they fail by default: alloc counts are deterministic)")
	flag.Parse()
	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchdiff [-max-depth-regress PCT] OLD.json NEW.json")
		os.Exit(2)
	}
	oldF, err := bench.ReadRoutingBenchFile(flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	newF, err := bench.ReadRoutingBenchFile(flag.Arg(1))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	fmt.Printf("benchdiff: %s -> %s\n", flag.Arg(0), flag.Arg(1))
	fmt.Printf("old: %s trials=%dx%d patience=%d seed=%d parallel=%d wall=%.0fms\n",
		oldF.Topology, oldF.LayoutTrials, oldF.RoutingTrials, oldF.ConvergencePatience,
		oldF.Seed, oldF.Parallelism, oldF.TotalWallMS)
	fmt.Printf("new: %s trials=%dx%d patience=%d seed=%d parallel=%d wall=%.0fms (%s)\n",
		newF.Topology, newF.LayoutTrials, newF.RoutingTrials, newF.ConvergencePatience,
		newF.Seed, newF.Parallelism, newF.TotalWallMS, pct(oldF.TotalWallMS, newF.TotalWallMS))
	comparable := oldF.Topology == newF.Topology && oldF.Seed == newF.Seed &&
		oldF.LayoutTrials == newF.LayoutTrials && oldF.RoutingTrials == newF.RoutingTrials
	if !comparable {
		fmt.Println("note: run configurations differ; quality deltas are not apples-to-apples")
	}

	// Rows are paired by (circuit, router) key. Rows missing from the
	// baseline — a benchmark added by the change under test, e.g. a new
	// dispatch lane — are warned about but never fail the diff: gating
	// on them would break the first CI comparison after every merge
	// that extends the suite. Same for rows the new run dropped.
	al := bench.AlignRows(oldF.Rows, newF.Rows)

	fmt.Printf("\n%-22s %-7s | %16s | %16s | %13s | %16s | %11s\n",
		"circuit", "router", "depth", "gates", "swaps", "wall_ms", "trials")
	var regressions []string
	for _, pair := range al.Pairs {
		o, n := pair[0], pair[1]
		fmt.Printf("%-22s %-7s | %7.1f %s | %7.0f %s | %5d %s | %7.1f %s | %4d->%-4d\n",
			n.Circuit, n.Router,
			n.DepthPulses, pct(o.DepthPulses, n.DepthPulses),
			n.TotalGates, pct(o.TotalGates, n.TotalGates),
			n.Swaps, pct(float64(o.Swaps), float64(n.Swaps)),
			n.WallMS, pct(o.WallMS, n.WallMS),
			o.TrialsExecuted, n.TrialsExecuted)
		if comparable && *maxDepthRegress > 0 && o.DepthPulses > 0 {
			regress := 100 * (n.DepthPulses - o.DepthPulses) / o.DepthPulses
			if regress > *maxDepthRegress {
				regressions = append(regressions,
					fmt.Sprintf("%s/%s depth +%.1f%%", n.Circuit, n.Router, regress))
			}
		}
	}
	for _, n := range al.Added {
		fmt.Printf("%-22s %-7s | warning: no baseline row (new benchmark; this run seeds it)\n", n.Circuit, n.Router)
	}
	for _, k := range al.Removed {
		fmt.Printf("%-22s %-7s | warning: row dropped in new run\n", k.Circuit, k.Router)
	}
	fmt.Printf("matched %d of %d rows (%d new, %d dropped — warnings only)\n",
		len(al.Pairs), len(newF.Rows), len(al.Added), len(al.Removed))

	// Kernel lane: ns/op is hardware-dependent context; allocs/op is
	// deterministic for deterministic code, so any increase on a
	// matched kernel is a real hot-path regression and fails the diff
	// unless explicitly waived.
	var allocRegressions []string
	if len(oldF.Kernels) > 0 && len(newF.Kernels) == 0 {
		// The gate must not vanish silently: a baseline with kernel
		// rows against a new run without them means -kernels was
		// dropped, and the next cached baseline would disable the
		// check for good while CI stays green.
		allocRegressions = append(allocRegressions,
			"kernel lane missing from the new run (baseline has it — was -kernels dropped?)")
	}
	if len(newF.Kernels) > 0 {
		oldK := make(map[string]bench.KernelRow, len(oldF.Kernels))
		for _, k := range oldF.Kernels {
			oldK[k.Name] = k
		}
		fmt.Printf("\n%-28s | %22s | %17s\n", "kernel", "ns/op", "allocs/op")
		for _, k := range newF.Kernels {
			o, ok := oldK[k.Name]
			if !ok {
				fmt.Printf("%-28s | %12.0f     (new) | %8d    (new)\n", k.Name, k.NsPerOp, k.AllocsPerOp)
				continue
			}
			fmt.Printf("%-28s | %12.0f %s | %8d %s\n",
				k.Name, k.NsPerOp, pct(o.NsPerOp, k.NsPerOp),
				k.AllocsPerOp, pct(float64(o.AllocsPerOp), float64(k.AllocsPerOp)))
			if k.AllocsPerOp > o.AllocsPerOp {
				allocRegressions = append(allocRegressions,
					fmt.Sprintf("%s allocs/op %d -> %d", k.Name, o.AllocsPerOp, k.AllocsPerOp))
			}
		}
	}

	failed := false
	if len(regressions) > 0 {
		fmt.Fprintf(os.Stderr, "depth regressions beyond %.1f%%:\n", *maxDepthRegress)
		for _, r := range regressions {
			fmt.Fprintln(os.Stderr, "  "+r)
		}
		failed = true
	}
	if len(allocRegressions) > 0 {
		fmt.Fprintln(os.Stderr, "kernel allocation regressions:")
		for _, r := range allocRegressions {
			fmt.Fprintln(os.Stderr, "  "+r)
		}
		if *allowAllocRegress {
			fmt.Fprintln(os.Stderr, "  (waived by -allow-alloc-regress)")
		} else {
			failed = true
		}
	}
	if failed {
		os.Exit(1)
	}
}
