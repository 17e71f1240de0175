package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/dispatch"
	"repro/internal/sabre"
	"repro/internal/transpile"
)

// This file defines the machine-readable BENCH_routing.json schema
// shared by cmd/benchsuite (writer) and cmd/benchdiff (reader): enough
// metadata to compare runs across machines, PRs and scheduler
// configurations. CI uploads the file as a workflow artifact and diffs
// it against the previous run's.

// RoutingRow is one circuit x router measurement.
type RoutingRow struct {
	// Seq is the row's ordinal in the suite's emission order, 0..n-1.
	Seq         int     `json:"seq"`
	Circuit     string  `json:"circuit"`
	Router      string  `json:"router"`
	WallMS      float64 `json:"wall_ms"`
	DepthPulses float64 `json:"depth_pulses"`
	TotalGates  float64 `json:"total_gates"`
	Swaps       int     `json:"swaps"`
	Mirrors     int     `json:"mirrors"`
	// TrialsExecuted < TrialsBudgeted records adaptive early-stop; the
	// count is deterministic (defined on trial indices), so it must be
	// identical across runs at different -parallel settings.
	TrialsExecuted int `json:"trials_executed"`
	TrialsBudgeted int `json:"trials_budgeted"`
	// Mirror-family rows only (benchsuite -fig 12 and -fig mirror check
	// every one): MirrorVerified records the outcome of the
	// |expected>-survival semantic check on the transpiled output, and
	// SurvivalFidelity the measured |<expected|U|0...0>|^2. Both are nil
	// on rows where the check did not run (non-mirror rows, rows of
	// miraged coordinator, or ErrTooWide skips). The fidelity is
	// seed-deterministic like every other quality field: distributed
	// shards must reproduce it bit-identically.
	MirrorVerified   *bool    `json:"mirror_verified,omitempty"`
	SurvivalFidelity *float64 `json:"survival_fidelity,omitempty"`
}

// RoutingBenchFile is the top-level BENCH_routing.json document.
type RoutingBenchFile struct {
	Topology            string  `json:"topology"`
	LayoutTrials        int     `json:"layout_trials"`
	RoutingTrials       int     `json:"routing_trials"`
	ConvergencePatience int     `json:"convergence_patience"`
	Seed                int64   `json:"seed"`
	Parallelism         int     `json:"parallelism"`
	GOMAXPROCS          int     `json:"gomaxprocs"`
	TotalWallMS         float64 `json:"total_wall_ms"`
	// Fleet is present on distributed runs only (coordinator mode) and
	// is environmental like wall times: diff tooling ignores it, merges
	// sum it.
	Fleet *dispatch.FleetStats `json:"fleet,omitempty"`
	Rows  []RoutingRow         `json:"rows"`
	// Kernels holds the numeric-kernel -benchmem lane (benchsuite
	// -kernels): ns/op is hardware context, allocs/op is deterministic
	// and gated by cmd/benchdiff.
	Kernels []KernelRow `json:"kernels,omitempty"`
}

// NewRoutingRow is the row of one transpiled circuit, seq-th in its
// run.
func NewRoutingRow(seq int, circuit string, rep *transpile.Report) RoutingRow {
	return RoutingRow{
		Seq:     seq,
		Circuit: circuit, Router: rep.Router,
		WallMS:      float64(rep.Runtime.Microseconds()) / 1000,
		DepthPulses: rep.DepthPulses, TotalGates: rep.TotalBasisGates,
		Swaps: rep.SwapsInserted, Mirrors: rep.MirrorsUsed,
		TrialsExecuted: rep.TrialsExecuted, TrialsBudgeted: rep.TrialsBudgeted,
	}
}

// NewRoutingBenchFile is the document of a run of rows on topo under
// the trial schedule layout, taking total wall time; fleet is nil on
// serial runs.
func NewRoutingBenchFile(topo string, layout sabre.LayoutOptions, total time.Duration,
	fleet *dispatch.FleetStats, rows []RoutingRow) *RoutingBenchFile {
	return &RoutingBenchFile{
		Topology:            topo,
		LayoutTrials:        layout.LayoutTrials,
		RoutingTrials:       layout.RoutingTrials,
		ConvergencePatience: layout.ConvergencePatience,
		Seed:                layout.Seed,
		Parallelism:         dispatch.Size(layout.Parallelism),
		GOMAXPROCS:          runtime.GOMAXPROCS(0),
		TotalWallMS:         float64(total.Microseconds()) / 1000,
		Fleet:               fleet,
		Rows:                rows,
	}
}

// PatienceSweepRow aggregates one ConvergencePatience setting over a
// circuit suite: summed polytope-weighted depth (the quality signal),
// executed-vs-budgeted trial counts (the savings signal) and wall
// time. Depth and trial counts are seed-deterministic; wall time is
// hardware context.
type PatienceSweepRow struct {
	Patience       int     `json:"patience"`
	DepthPulsesSum float64 `json:"depth_pulses_sum"`
	// DepthRegressPct is the summed-depth change relative to the
	// patience=0 full grid (positive = worse).
	DepthRegressPct float64 `json:"depth_regress_pct"`
	TrialsExecuted  int     `json:"trials_executed"`
	TrialsBudgeted  int     `json:"trials_budgeted"`
	TrialsSavedPct  float64 `json:"trials_saved_pct"`
	WallMS          float64 `json:"wall_ms"`
}

// PatienceSweepFile is the BENCH_patience.json document written by
// benchsuite -patience-sweep, the data behind the ConvergencePatience
// default recorded in ROADMAP.
type PatienceSweepFile struct {
	Topology      string             `json:"topology"`
	Seed          int64              `json:"seed"`
	LayoutTrials  int                `json:"layout_trials"`
	RoutingTrials int                `json:"routing_trials"`
	Circuits      []string           `json:"circuits"`
	Rows          []PatienceSweepRow `json:"rows"`
}

// WriteFile renders the document as indented JSON at path.
func (f *PatienceSweepFile) WriteFile(path string) error {
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// WriteFile renders the document as indented JSON at path.
func (f *RoutingBenchFile) WriteFile(path string) error {
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ReadRoutingBenchFile parses a BENCH_routing.json document.
func ReadRoutingBenchFile(path string) (*RoutingBenchFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f RoutingBenchFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("bench: parsing %s: %w", path, err)
	}
	return &f, nil
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
