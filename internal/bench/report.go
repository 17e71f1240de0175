package bench

import (
	"encoding/json"
	"fmt"
	"os"
)

// This file defines the machine-readable BENCH_routing.json schema
// shared by cmd/benchsuite (writer) and cmd/benchdiff (reader): enough
// metadata to compare runs across machines, PRs and scheduler
// configurations. CI uploads the file as a workflow artifact and diffs
// it against the previous run's.

// RoutingRow is one circuit x router measurement.
type RoutingRow struct {
	// Seq is the row's ordinal in the full suite's emission order: the
	// shard-merge key (see MergeRoutingFiles). Single-file runs number
	// their rows 0..n-1 too, so any run can later be treated as a
	// one-fragment merge input.
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
	// Mirror-family rows only (benchsuite -fig mirror / -mirror-verify):
	// MirrorVerified records the outcome of the |expected>-survival
	// semantic check on the transpiled output, and SurvivalFidelity the
	// measured |<expected|U|0...0>|^2. Both are nil on rows where the
	// check did not run (non-mirror rows, or ErrTooWide skips), so the
	// schema is unchanged for existing consumers. The fidelity is
	// seed-deterministic like every other quality field: distributed
	// shards must reproduce it bit-identically.
	MirrorVerified   *bool    `json:"mirror_verified,omitempty"`
	SurvivalFidelity *float64 `json:"survival_fidelity,omitempty"`
}

// FleetEventStats surfaces the dispatch hub's failure-event counters
// for distributed runs: how many leases were failed back for
// re-granting, how many deadline revocations fired, how many
// connections were lost, how many workers (re)joined after the first
// job started, how many corrupt frames got a worker quarantined, how
// many jobs admission control rejected (ErrBusy), how many poison
// items were quarantined after repeated worker crashes, how many items
// the coordinator executed itself (quarantine or degraded mode), how
// many times a job degraded to local execution, and how many jobs were
// replayed or resumed from the write-ahead journal after a coordinator
// restart. The quality fields of the rows are guaranteed identical
// whether these are zero or not — the counters exist so a chaos or
// crash-recovery run can PROVE recovery happened rather than silently
// not injecting the fault.
//
// The fields mirror dispatch.FleetStats one for one, so a hub snapshot
// converts directly: FleetEventStats(hub.Stats()).
type FleetEventStats struct {
	Releases     int64 `json:"releases"`
	Revocations  int64 `json:"revocations"`
	Disconnects  int64 `json:"disconnects"`
	Reconnects   int64 `json:"reconnects"`
	DecodeFaults int64 `json:"decode_faults"`
	Rejected     int64 `json:"rejected"`
	Poisoned     int64 `json:"poisoned"`
	LocalItems   int64 `json:"local_items"`
	Degraded     int64 `json:"degraded"`
	Recovered    int64 `json:"recovered"`
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
	// is environmental like wall times: merge/diff tooling ignores it.
	Fleet *FleetEventStats `json:"fleet,omitempty"`
	Rows  []RoutingRow     `json:"rows"`
	// Kernels holds the numeric-kernel -benchmem lane (benchsuite
	// -kernels): ns/op is hardware context, allocs/op is deterministic
	// and gated by cmd/benchdiff.
	Kernels []KernelRow `json:"kernels,omitempty"`
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
