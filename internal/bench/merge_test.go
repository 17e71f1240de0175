package bench

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/dispatch"
)

func row(seq int, circuit, router string, depth float64) RoutingRow {
	return RoutingRow{Seq: seq, Circuit: circuit, Router: router, DepthPulses: depth, WallMS: float64(seq) * 3}
}

func header() RoutingBenchFile {
	return RoutingBenchFile{Topology: "square-6x6", LayoutTrials: 20, RoutingTrials: 20, Seed: 1}
}

// TestMergeRoutingFilesRestoresSerialOrder: fragments delivered in any
// order, with interleaved seq assignments, merge back to the serial
// row order.
func TestMergeRoutingFilesRestoresSerialOrder(t *testing.T) {
	a, b := header(), header()
	a.TotalWallMS = 120
	b.TotalWallMS = 200
	a.Rows = []RoutingRow{row(2, "qft_n18", "sabre", 10), row(3, "qft_n18", "mirage", 8), row(0, "wstate_n27", "sabre", 5)}
	b.Rows = []RoutingRow{row(1, "wstate_n27", "mirage", 4), row(4, "knn_n25", "sabre", 7), row(5, "knn_n25", "mirage", 6)}

	merged, err := MergeRoutingFiles([]*RoutingBenchFile{&b, &a}) // reversed on purpose
	if err != nil {
		t.Fatal(err)
	}
	if len(merged.Rows) != 6 {
		t.Fatalf("merged %d rows, want 6", len(merged.Rows))
	}
	wantOrder := []string{"wstate_n27/sabre", "wstate_n27/mirage", "qft_n18/sabre", "qft_n18/mirage", "knn_n25/sabre", "knn_n25/mirage"}
	for i, r := range merged.Rows {
		if got := r.Circuit + "/" + r.Router; got != wantOrder[i] {
			t.Fatalf("row %d = %s, want %s", i, got, wantOrder[i])
		}
		if r.Seq != i {
			t.Fatalf("row %d has seq %d", i, r.Seq)
		}
	}
	if merged.TotalWallMS != 200 {
		t.Fatalf("total wall %v, want the slowest shard's 200", merged.TotalWallMS)
	}
}

// TestMergeRoutingFilesInterleavedMirrorFamily: shards that split the
// suite mid-family — mirror rows (carrying mirror_verified and
// survival_fidelity) interleaved with paper rows across fragments —
// must merge back to serial order with the verification fields intact.
// This is the sharding contract for the Mirror suite rows: the fields
// are per-row payload keyed only by seq, never recomputed by the
// merger.
func TestMergeRoutingFilesInterleavedMirrorFamily(t *testing.T) {
	mirrorRow := func(seq int, name, router string, ok bool, fid float64) RoutingRow {
		r := row(seq, name, router, 12)
		r.MirrorVerified = &ok
		r.SurvivalFidelity = &fid
		return r
	}
	a, b, c := header(), header(), header()
	a.Rows = []RoutingRow{
		row(0, "qft_n18", "sabre", 10),
		mirrorRow(3, "mirror_rc_n5_l4_s1", "mirage", true, 1.0),
		row(4, "knn_n25", "sabre", 7),
	}
	b.Rows = []RoutingRow{
		mirrorRow(2, "mirror_rc_n5_l4_s1", "sabre", true, 0.9999999999999997),
		row(5, "knn_n25", "mirage", 6),
		mirrorRow(6, "mirror_qv_n4_l3_s7", "sabre", false, 0.25),
	}
	c.Rows = []RoutingRow{
		row(1, "qft_n18", "mirage", 8),
		mirrorRow(7, "mirror_qv_n4_l3_s7", "mirage", true, 1.0),
	}

	merged, err := MergeRoutingFiles([]*RoutingBenchFile{&c, &a, &b})
	if err != nil {
		t.Fatal(err)
	}
	if len(merged.Rows) != 8 {
		t.Fatalf("merged %d rows, want 8", len(merged.Rows))
	}
	wantVerified := []*bool{nil, nil, boolPtr(true), boolPtr(true), nil, nil, boolPtr(false), boolPtr(true)}
	for i, r := range merged.Rows {
		if r.Seq != i {
			t.Fatalf("row %d has seq %d", i, r.Seq)
		}
		want := wantVerified[i]
		if (r.MirrorVerified == nil) != (want == nil) {
			t.Fatalf("row %d (%s/%s): mirror_verified presence = %v, want %v",
				i, r.Circuit, r.Router, r.MirrorVerified != nil, want != nil)
		}
		if want != nil && *r.MirrorVerified != *want {
			t.Fatalf("row %d: mirror_verified = %v, want %v", i, *r.MirrorVerified, *want)
		}
		if (r.MirrorVerified == nil) != (r.SurvivalFidelity == nil) {
			t.Fatalf("row %d: verification fields split across the merge", i)
		}
	}
	// Fidelity payloads must come through bit-exact (shards reproduce
	// them deterministically; the merge must not perturb them).
	if got := *merged.Rows[2].SurvivalFidelity; got != 0.9999999999999997 {
		t.Fatalf("row 2 fidelity = %v", got)
	}
	if got := *merged.Rows[6].SurvivalFidelity; got != 0.25 {
		t.Fatalf("row 6 fidelity = %v", got)
	}
}

func boolPtr(b bool) *bool { return &b }

func TestMergeRoutingFilesRejectsMismatchedRuns(t *testing.T) {
	a, b := header(), header()
	a.Rows = []RoutingRow{row(0, "x", "sabre", 1)}
	b.Rows = []RoutingRow{row(1, "x", "mirage", 1)}
	b.Seed = 2
	if _, err := MergeRoutingFiles([]*RoutingBenchFile{&a, &b}); err == nil {
		t.Fatal("merged fragments from different seeds")
	}
}

func TestMergeRoutingFilesRejectsGapsAndOverlaps(t *testing.T) {
	a, b := header(), header()
	a.Rows = []RoutingRow{row(0, "x", "sabre", 1), row(1, "x", "mirage", 1)}
	b.Rows = []RoutingRow{row(3, "y", "sabre", 1)} // gap at 2
	if _, err := MergeRoutingFiles([]*RoutingBenchFile{&a, &b}); err == nil {
		t.Fatal("merged fragments with a missing shard")
	}
	b.Rows = []RoutingRow{row(1, "y", "sabre", 1)} // overlaps a
	if _, err := MergeRoutingFiles([]*RoutingBenchFile{&a, &b}); err == nil {
		t.Fatal("merged overlapping fragments")
	}
}

// TestMergeRoutingFilesDuplicateSeqConflictIsExplicit: two fragments
// carrying the same seq with different rows is a conflict the merge
// must name — both identities, never a silent last-wins pick and never
// misreported as a missing shard.
func TestMergeRoutingFilesDuplicateSeqConflictIsExplicit(t *testing.T) {
	a, b := header(), header()
	a.Rows = []RoutingRow{row(0, "qft_n18", "sabre", 10), row(1, "qft_n18", "mirage", 8)}
	b.Rows = []RoutingRow{row(1, "wstate_n27", "sabre", 5), row(2, "wstate_n27", "mirage", 4)}
	merged, err := MergeRoutingFiles([]*RoutingBenchFile{&a, &b})
	if err == nil {
		t.Fatalf("conflicting duplicate seq merged silently: %+v", merged.Rows)
	}
	msg := err.Error()
	for _, want := range []string{"seq 1", "qft_n18/mirage", "wstate_n27/sabre"} {
		if !strings.Contains(msg, want) {
			t.Fatalf("conflict error %q does not name %q", msg, want)
		}
	}
	if strings.Contains(msg, "missing") {
		t.Fatalf("overlap misreported as a missing shard: %q", msg)
	}
}

func TestMergeRoutingFilesSingleFragmentRoundtrips(t *testing.T) {
	a := header()
	a.Rows = []RoutingRow{row(0, "x", "sabre", 1), row(1, "x", "mirage", 2)}
	path := filepath.Join(t.TempDir(), "frag.json")
	if err := a.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	back, err := ReadRoutingBenchFile(path)
	if err != nil {
		t.Fatal(err)
	}
	merged, err := MergeRoutingFiles([]*RoutingBenchFile{back})
	if err != nil {
		t.Fatal(err)
	}
	if len(merged.Rows) != 2 || merged.Rows[1].DepthPulses != 2 {
		t.Fatalf("single-fragment merge mangled rows: %+v", merged.Rows)
	}
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

func TestSchedulerFlagsValidate(t *testing.T) {
	ok := []SchedulerFlags{
		{},
		{Parallel: 8, Patience: 120, Trials: 20, Workers: 2, Lease: 8},
	}
	for _, f := range ok {
		if err := f.Validate(); err != nil {
			t.Fatalf("valid flags %+v rejected: %v", f, err)
		}
	}
	bad := []SchedulerFlags{
		{Parallel: -1},
		{Patience: -5},
		{Trials: -2},
		{Workers: -3},
		{Lease: -1},
	}
	for _, f := range bad {
		if err := f.Validate(); err == nil {
			t.Fatalf("invalid flags %+v accepted", f)
		}
	}
}

// TestMergeRoutingFilesWarmFields: the fleet block is the hub's counter
// snapshot, dispatch.FleetStats; fragments merge by summing, and the merged document carries no
// warm-transfer keys now that coverage travels inside each job spec.
func TestMergeRoutingFilesWarmFields(t *testing.T) {
	frag := func(seq int, circ string, releases, recovered int64) *RoutingBenchFile {
		fleet := dispatch.FleetStats{Releases: releases, Recovered: recovered}
		return &RoutingBenchFile{
			Topology: "grid", Seed: 1, LayoutTrials: 2, RoutingTrials: 2,
			Rows:  []RoutingRow{{Seq: seq, Circuit: circ, Router: "mirage"}},
			Fleet: &fleet,
		}
	}
	merged, err := MergeRoutingFiles([]*RoutingBenchFile{
		frag(0, "a", 4, 1),
		frag(1, "b", 2, 0),
	})
	if err != nil {
		t.Fatal(err)
	}
	if fl := merged.Fleet; fl == nil || *fl != (dispatch.FleetStats{Releases: 6, Recovered: 1}) {
		t.Fatalf("merged fleet = %+v, want releases 6, recovered 1", fl)
	}
	path := filepath.Join(t.TempDir(), "merged.json")
	if err := merged.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(data), "warm_") {
		t.Fatalf("merged document carries warm-transfer keys:\n%s", data)
	}
}
