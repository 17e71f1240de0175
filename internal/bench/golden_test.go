package bench

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/sabre"
	"repro/internal/topology"
	"repro/internal/transpile"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/fig12_quick_rows.json from the current engine")

// goldenRow is the seed-deterministic part of a Fig. 12 row: wall
// times and trial counts stay out, so the file pins quality alone.
type goldenRow struct {
	Topology string  `json:"topology"`
	Circuit  string  `json:"circuit"`
	Router   string  `json:"router"`
	Depth    float64 `json:"depth_pulses"`
	Gates    float64 `json:"total_gates"`
	Swaps    int     `json:"swaps"`
	Mirrors  int     `json:"mirrors"`
}

// TestFig12QuickRowsGolden routes the quick suite the way `benchsuite
// -fig 12 -quick -seed 1` does (4x4 trials, 2 forward-backward
// passes, SABRE and MIRAGE-Depth) on square and heavy-hex and compares
// every row to testdata/fig12_quick_rows.json. A routing change that
// should leave rows bit-identical must pass it unchanged; regenerate
// the file with `go test -run Fig12QuickRowsGolden -update
// ./internal/bench/` only for a change meant to move quality.
func TestFig12QuickRowsGolden(t *testing.T) {
	layout := sabre.LayoutOptions{LayoutTrials: 4, RoutingTrials: 4, FwdBwdPasses: 2, Seed: 1, Parallelism: 1}
	var got []goldenRow
	for _, topo := range []*topology.Topology{topology.SquareLattice66(), topology.HeavyHex57()} {
		for _, e := range QuickSuite() {
			pc := transpile.PrepareCircuit(e.Build(), topo)
			for _, router := range []transpile.Router{transpile.SABRE, transpile.MIRAGE} {
				rep, err := transpile.TranspilePrepared(pc, transpile.Options{
					Router: router, DepthSelection: router == transpile.MIRAGE,
					Layout: layout, SkipTrivialLayout: true,
				})
				if err != nil {
					t.Fatalf("%s/%s on %s: %v", e.Name, router, topo.Name, err)
				}
				got = append(got, goldenRow{
					Topology: topo.Name, Circuit: e.Name, Router: rep.Router,
					Depth: rep.DepthPulses, Gates: rep.TotalBasisGates,
					Swaps: rep.SwapsInserted, Mirrors: rep.MirrorsUsed,
				})
			}
		}
	}

	path := filepath.Join("testdata", "fig12_quick_rows.json")
	if *updateGolden {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var want []goldenRow
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d rows, golden file has %d", len(got), len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("row %d: got %+v, want %+v", i, got[i], want[i])
		}
	}
}
