package bench

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/dispatch"
)

// TestPatienceSweepFileRoundTrip checks the BENCH_patience.json schema
// survives a write/read cycle (benchsuite writes it, tooling and the
// ROADMAP tuning notes consume it).
func TestPatienceSweepFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_patience.json")
	in := &PatienceSweepFile{
		Topology:      "square-6x6",
		Seed:          1,
		LayoutTrials:  20,
		RoutingTrials: 20,
		Circuits:      []string{"qft_n18", "wstate_n27"},
		Rows: []PatienceSweepRow{
			{Patience: 0, DepthPulsesSum: 2481, TrialsExecuted: 6000, TrialsBudgeted: 6000},
			{Patience: 120, DepthPulsesSum: 2537, DepthRegressPct: 2.26,
				TrialsExecuted: 2853, TrialsBudgeted: 6000, TrialsSavedPct: 52.5, WallMS: 3210},
		},
	}
	if err := in.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var out PatienceSweepFile
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if out.Topology != in.Topology || len(out.Rows) != len(in.Rows) ||
		out.Rows[1].Patience != 120 || out.Rows[1].TrialsExecuted != 2853 ||
		out.Rows[1].DepthRegressPct != 2.26 {
		t.Fatalf("round trip mangled the document: %+v", out)
	}
}

// TestRoutingBenchFileMirrorFieldsRoundTrip: the mirror verification
// fields must survive the write/read cycle exactly, and must be
// omitted entirely — not rendered as null/zero — on rows where the
// check did not run, so pre-mirror consumers of BENCH_routing.json see
// an unchanged schema.
func TestRoutingBenchFileMirrorFieldsRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_routing.json")
	ok, bad := true, false
	passFid, failFid := 0.9999999999999998, 0.03125
	in := &RoutingBenchFile{
		Topology: "grid-3x4",
		Rows: []RoutingRow{
			{Seq: 0, Circuit: "qft_n18", Router: "sabre", DepthPulses: 278},
			{Seq: 1, Circuit: "mirror_rc_n5_l4_s1", Router: "sabre",
				MirrorVerified: &ok, SurvivalFidelity: &passFid},
			{Seq: 2, Circuit: "mirror_qv_n4_l3_s7", Router: "mirage",
				MirrorVerified: &bad, SurvivalFidelity: &failFid},
		},
	}
	if err := in.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	out, err := ReadRoutingBenchFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if out.Rows[0].MirrorVerified != nil || out.Rows[0].SurvivalFidelity != nil {
		t.Fatalf("non-mirror row grew verification fields: %+v", out.Rows[0])
	}
	if out.Rows[1].MirrorVerified == nil || !*out.Rows[1].MirrorVerified ||
		out.Rows[1].SurvivalFidelity == nil || *out.Rows[1].SurvivalFidelity != passFid {
		t.Fatalf("passing mirror row mangled: %+v", out.Rows[1])
	}
	if out.Rows[2].MirrorVerified == nil || *out.Rows[2].MirrorVerified ||
		out.Rows[2].SurvivalFidelity == nil || *out.Rows[2].SurvivalFidelity != failFid {
		t.Fatalf("failing mirror row mangled: %+v", out.Rows[2])
	}
	// The omitempty contract, checked on the raw bytes: the field names
	// must appear exactly twice (the two mirror rows), never on row 0.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{"mirror_verified", "survival_fidelity"} {
		if n := strings.Count(string(data), field); n != 2 {
			t.Fatalf("%q appears %d times in the document, want 2", field, n)
		}
	}
}

// TestRoutingBenchFileKernelRows checks kernel rows (including the new
// routing lane entries) survive the RoutingBenchFile round trip that
// benchdiff's alloc gate depends on.
func TestRoutingBenchFileKernelRows(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_routing.json")
	in := &RoutingBenchFile{
		Topology: "square-6x6",
		Kernels: []KernelRow{
			{Name: "sabre/RouteArena", NsPerOp: 91857, AllocsPerOp: 0, BytesPerOp: 0},
			{Name: "sabre/FindBestRouting", NsPerOp: 3657140, AllocsPerOp: 893, BytesPerOp: 165104},
		},
	}
	if err := in.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	out, err := ReadRoutingBenchFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Kernels) != 2 || out.Kernels[0].Name != "sabre/RouteArena" ||
		out.Kernels[0].AllocsPerOp != 0 || out.Kernels[1].AllocsPerOp != 893 {
		t.Fatalf("kernel rows mangled: %+v", out.Kernels)
	}
}

// TestRoutingBenchFileFleetStats: the fleet block is the hub's counter
// snapshot, dispatch.FleetStats: it round-trips and stays omitempty on
// serial runs.
func TestRoutingBenchFileFleetStats(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_routing.json")
	in := &RoutingBenchFile{
		Topology: "grid-3x4",
		Fleet: &dispatch.FleetStats{Releases: 3, Revocations: 1, Disconnects: 2, Reconnects: 1, DecodeFaults: 1,
			Rejected: 2, Poisoned: 1, LocalItems: 5, Degraded: 1, Recovered: 1},
		Rows: []RoutingRow{{Seq: 0, Circuit: "qft_n18", Router: "sabre"}},
	}
	if err := in.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	out, err := ReadRoutingBenchFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if out.Fleet == nil || *out.Fleet != *in.Fleet {
		t.Fatalf("fleet stats mangled: %+v", out.Fleet)
	}

	serial := &RoutingBenchFile{Topology: "grid-3x4", Rows: []RoutingRow{{Seq: 0}}}
	if err := serial.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(data), "fleet") {
		t.Fatal("serial document grew a fleet block")
	}
}

// TestRoutingBenchFileWarmFields: a fleet document carries no
// warm-transfer keys, since coverage travels inside each job spec and
// the fleet block holds only the hub's counters.
func TestRoutingBenchFileWarmFields(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_routing.json")
	in := &RoutingBenchFile{
		Topology: "grid", Seed: 1, LayoutTrials: 2, RoutingTrials: 2,
		Rows:  []RoutingRow{{Seq: 0, Circuit: "a", Router: "mirage"}, {Seq: 1, Circuit: "b", Router: "mirage"}},
		Fleet: &dispatch.FleetStats{Releases: 6, Recovered: 1},
	}
	if err := in.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(data), "warm_") {
		t.Fatalf("fleet document carries warm-transfer keys:\n%s", data)
	}
	out, err := ReadRoutingBenchFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if out.Fleet == nil || *out.Fleet != (dispatch.FleetStats{Releases: 6, Recovered: 1}) {
		t.Fatalf("fleet = %+v, want releases 6, recovered 1", out.Fleet)
	}
}

func row(seq int, circuit, router string, depth float64) RoutingRow {
	return RoutingRow{Seq: seq, Circuit: circuit, Router: router, DepthPulses: depth, WallMS: float64(seq) * 3}
}

func TestAlignRows(t *testing.T) {
	baseline := []RoutingRow{
		row(0, "a", "sabre", 1), row(1, "a", "mirage", 2), row(2, "gone", "sabre", 3),
	}
	current := []RoutingRow{
		row(0, "a", "sabre", 1.5), row(1, "a", "mirage", 2), row(2, "fresh", "mirage", 9),
	}
	al := AlignRows(baseline, current)
	if len(al.Pairs) != 2 || len(al.Added) != 1 || len(al.Removed) != 1 {
		t.Fatalf("alignment = %d pairs, %d added, %d removed", len(al.Pairs), len(al.Added), len(al.Removed))
	}
	if al.Pairs[0][0].DepthPulses != 1 || al.Pairs[0][1].DepthPulses != 1.5 {
		t.Fatalf("pair 0 mismatched: %+v", al.Pairs[0])
	}
	if al.Added[0].Circuit != "fresh" {
		t.Fatalf("added = %+v", al.Added)
	}
	if al.Removed[0] != (RowKey{"gone", "sabre"}) {
		t.Fatalf("removed = %+v", al.Removed)
	}
}
