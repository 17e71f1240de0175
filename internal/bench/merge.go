package bench

import (
	"fmt"
	"sort"

	"repro/internal/dispatch"
)

// Shard-merge schema for BENCH_routing.json fragments.
//
// A distributed benchmark run may write one BENCH_routing.json
// fragment per shard (a subset of the suite's circuit x router rows)
// instead of one whole-suite document. Fragments follow the normal
// RoutingBenchFile schema plus two conventions:
//
//   - every row carries `seq`, its ordinal in the full suite's row
//     order (the order a single-process run would have emitted); seq
//     values across a fragment set are unique and dense from 0.
//   - fragment headers (topology, layout_trials, routing_trials,
//     convergence_patience, seed) must agree — they describe the one
//     logical run the fragments partition.
//
// MergeRoutingFiles restores the single-process document: rows are
// concatenated and ordered by seq — never by arrival or fragment
// order — so the merged `rows` array is bit-identical to the serial
// run's at any shard count (quality metrics and trial counts are
// seed-deterministic; `wall_ms` fields are hardware context and the
// only fields expected to differ). Fleet failure-event counters sum
// across fragments, and
// total_wall_ms is the maximum fragment wall time — shards run
// concurrently, so the slowest shard is the run's wall clock.
// Kernel lanes are machine-local measurements and merge only when
// exactly one fragment carries one.

// MergeRoutingFiles merges shard fragments of one logical benchmark
// run into a single document, per the schema above.
func MergeRoutingFiles(frags []*RoutingBenchFile) (*RoutingBenchFile, error) {
	if len(frags) == 0 {
		return nil, fmt.Errorf("bench: no fragments to merge")
	}
	head := frags[0]
	out := &RoutingBenchFile{
		Topology:            head.Topology,
		LayoutTrials:        head.LayoutTrials,
		RoutingTrials:       head.RoutingTrials,
		ConvergencePatience: head.ConvergencePatience,
		Seed:                head.Seed,
		Parallelism:         head.Parallelism,
		GOMAXPROCS:          head.GOMAXPROCS,
	}
	for i, f := range frags {
		if f.Topology != head.Topology || f.Seed != head.Seed ||
			f.LayoutTrials != head.LayoutTrials || f.RoutingTrials != head.RoutingTrials ||
			f.ConvergencePatience != head.ConvergencePatience {
			return nil, fmt.Errorf("bench: fragment %d describes a different run (%s seed=%d %dx%d patience=%d, want %s seed=%d %dx%d patience=%d)",
				i, f.Topology, f.Seed, f.LayoutTrials, f.RoutingTrials, f.ConvergencePatience,
				head.Topology, head.Seed, head.LayoutTrials, head.RoutingTrials, head.ConvergencePatience)
		}
		out.Rows = append(out.Rows, f.Rows...)
		if f.TotalWallMS > out.TotalWallMS {
			out.TotalWallMS = f.TotalWallMS
		}
		if f.Fleet != nil {
			if out.Fleet == nil {
				out.Fleet = &dispatch.FleetStats{}
			}
			out.Fleet.Add(*f.Fleet)
		}
		if len(f.Kernels) > 0 {
			if len(out.Kernels) > 0 {
				return nil, fmt.Errorf("bench: fragment %d carries a second kernel lane; kernel rows are machine-local and cannot be merged", i)
			}
			out.Kernels = f.Kernels
		}
	}
	sort.SliceStable(out.Rows, func(i, j int) bool { return out.Rows[i].Seq < out.Rows[j].Seq })
	// Duplicate seq values are an explicit conflict, diagnosed before
	// the density check so an overlap is never misreported as a missing
	// shard — and never resolved silently by last-wins.
	for i := 1; i < len(out.Rows); i++ {
		prev, r := out.Rows[i-1], out.Rows[i]
		if r.Seq == prev.Seq {
			return nil, fmt.Errorf("bench: two fragments both carry seq %d (%s/%s and %s/%s) — overlapping shards must be re-run with disjoint row ranges, not merged",
				r.Seq, prev.Circuit, prev.Router, r.Circuit, r.Router)
		}
	}
	for i, r := range out.Rows {
		if r.Seq != i {
			return nil, fmt.Errorf("bench: merged rows have seq %d at position %d — a shard is missing", r.Seq, i)
		}
	}
	return out, nil
}

// RowKey identifies a routing row across runs: benchdiff pairs rows by
// key, never by position, so reordered or resharded files compare
// cleanly.
type RowKey struct{ Circuit, Router string }

// RowAlignment is the result of pairing a new run's rows against a
// baseline's.
type RowAlignment struct {
	// Pairs holds [baseline, new] for every key present in both.
	Pairs [][2]RoutingRow
	// Added rows exist only in the new run (a new benchmark or bench
	// lane): a warning, never a failure — gating on them would break
	// the first CI comparison after every row addition.
	Added []RoutingRow
	// Removed keys exist only in the baseline (a dropped benchmark):
	// likewise warn-only.
	Removed []RowKey
}

// AlignRows pairs rows by (circuit, router) key, preserving the new
// file's row order for Pairs and Added and the baseline's for Removed.
func AlignRows(baseline, current []RoutingRow) RowAlignment {
	old := make(map[RowKey]RoutingRow, len(baseline))
	for _, r := range baseline {
		old[RowKey{r.Circuit, r.Router}] = r
	}
	var al RowAlignment
	seen := make(map[RowKey]bool, len(current))
	for _, n := range current {
		k := RowKey{n.Circuit, n.Router}
		seen[k] = true
		if o, ok := old[k]; ok {
			al.Pairs = append(al.Pairs, [2]RoutingRow{o, n})
		} else {
			al.Added = append(al.Added, n)
		}
	}
	for _, r := range baseline {
		k := RowKey{r.Circuit, r.Router}
		if !seen[k] {
			al.Removed = append(al.Removed, k)
		}
	}
	return al
}
