package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
	"testing"
)

// smallConfig scales a workload down to one pass of 2x2 trials over at
// most four inputs. The run it configures stands for a fresh process,
// so its set-up time starts now.
func smallConfig(t *testing.T, workload string) config {
	t.Helper()
	start = markStart()
	cfg := config{workload: workload, seed: 1, setupRuns: 1, trials: 2, maxInputs: 4, maxPasses: 1}
	if err := json.Unmarshal(pinnedFingerprints, &cfg.fingerprints); err != nil {
		t.Fatal(err)
	}
	return cfg
}

func checkResult(t *testing.T, res *result, defs []metricDef) {
	t.Helper()
	if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Fatalf("correct %v, %d of %d calls failed", res.Correct, res.Failed, res.Attempted)
	}
	if len(res.Metrics) != len(defs) {
		t.Errorf("%d metrics reported, %d declared", len(res.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := res.Metrics[d.name]
		if !ok || m.Unit != d.unit {
			t.Errorf("metric %s: got %+v (present %v), want unit %s", d.name, m, ok, d.unit)
		}
	}
}

func TestEveryWorkloadRunsCorrectly(t *testing.T) {
	for _, w := range workloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			res, err := runWorkload(smallConfig(t, w.name), io.Discard, t.Logf)
			if err != nil {
				t.Fatal(err)
			}
			checkResult(t, res, endToEnd)
			// Four small inputs may all embed without SWAPs, so only the
			// timings and memory must be positive here.
			for _, d := range endToEnd[:5] {
				if res.Metrics[d.name].Value <= 0 {
					t.Errorf("%s = %v, want > 0", d.name, res.Metrics[d.name].Value)
				}
			}
		})
	}
}

func TestTracedRunReportsEveryLayer(t *testing.T) {
	for _, tc := range []struct{ workload, busy string }{
		{"fig12-square", "sabre.trials"},
		{"fleet-trials", "dispatch.worker.items"},
	} {
		cfg := smallConfig(t, tc.workload)
		cfg.trace = true
		res, err := runWorkload(cfg, io.Discard, t.Logf)
		if err != nil {
			t.Fatal(err)
		}
		checkResult(t, res, perLayer)
		if res.Metrics[tc.busy].Value <= 0 {
			t.Errorf("%s: %s = 0, want work recorded", tc.workload, tc.busy)
		}
		if v := res.Metrics["dispatch.items_rerun"].Value; v != 0 {
			t.Errorf("%s: dispatch.items_rerun = %v in a healthy run", tc.workload, v)
		}
	}
}

func TestFingerprintMismatchFails(t *testing.T) {
	cfg := smallConfig(t, "small-mirror")
	cfg.fingerprints["small-mirror"]["2"] = "0000000000000000"
	if _, err := runWorkload(cfg, io.Discard, t.Logf); err == nil {
		t.Fatal("a run whose inputs do not match fingerprints.json succeeded")
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json in step with the
// workloads and metrics this program reports.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, mirbench has %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, mirbench %s: %s", i, b.Workloads[i], w.name, w.why)
		}
	}
	if len(b.EndToEnd) != len(endToEnd) || len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json declares %d+%d metrics, mirbench reports %d+%d",
			len(b.EndToEnd), len(b.PerLayer), len(endToEnd), len(perLayer))
	}
	setupBound := 0.0
	for i, d := range endToEnd {
		m := b.EndToEnd[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != "lower" || m.Bound < 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, mirbench %+v", i, m, d)
		}
		if m.Name == "setup_s" {
			setupBound = m.Bound
		}
	}
	for _, m := range b.EndToEnd {
		if m.Bound > setupBound {
			t.Errorf("%s has bound %v, above setup_s's %v", m.Name, m.Bound, setupBound)
		}
	}
	for i, d := range perLayer {
		m := b.PerLayer[i]
		if m.Name != d.name || m.Unit != d.unit || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %+v, mirbench %+v", i, m, d)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
}

func TestVerdict(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scale := func(f float64) []float64 {
		out := make([]float64, len(base))
		for i, v := range base {
			out[i] = v * f
		}
		return out
	}
	for _, tc := range []struct {
		b    []float64
		want string
	}{
		{scale(1), "unchanged"},
		{scale(1.2), "worse"},
		{scale(0.8), "better"},
		{[]float64{50, 150, 60, 140, 100, 100, 70, 130, 90, 110}, "unresolved"},
	} {
		if got := verdict(base, tc.b, 0.1, false); got != tc.want {
			t.Errorf("verdict(base, %v) = %s, want %s", tc.b, got, tc.want)
		}
	}
	// A quality sum is exact, and its bound 0: any change counts.
	exact := []float64{745, 745, 745}
	for b, want := range map[float64]string{745: "unchanged", 746: "worse", 744: "better"} {
		if got := verdict(exact, []float64{b, b, b}, 0, false); got != want {
			t.Errorf("verdict(745s, %v) under bound 0 = %s, want %s", b, got, want)
		}
	}
}

// TestSmallMirrorSeedOnlyOrders checks that the seed reorders
// small-mirror's circuits without changing them, which keeps its quality
// sums exact across seeds.
func TestSmallMirrorSeedOnlyOrders(t *testing.T) {
	w, err := lookupWorkload("small-mirror")
	if err != nil {
		t.Fatal(err)
	}
	a, b := w.inputs(1), w.inputs(2)
	count := map[string]int{}
	for _, x := range a {
		count[x.name+"/"+fingerprint([]input{x})]++
	}
	for _, x := range b {
		count[x.name+"/"+fingerprint([]input{x})]--
	}
	for k, n := range count {
		if n != 0 {
			t.Fatalf("circuit %s occurs %d more times at seed 1 than at seed 2", k, n)
		}
	}
	if fingerprint(a) == fingerprint(b) {
		t.Error("seeds 1 and 2 give the same order")
	}
}

// TestCompareCountsOnlyScaledTimes checks that -compare fails on a
// scaled time that got worse but only reports a raw one.
func TestCompareCountsOnlyScaledTimes(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, pass, raw float64) string {
		path := dir + "/" + name
		for seed := int64(1); seed <= 5; seed++ {
			r := record{Workload: "w", Seed: seed, Result: result{Correct: true, Attempted: 1,
				Metrics: map[string]metric{"pass_s": {Value: pass, Unit: "s"}}},
				Raw: map[string]float64{"pass_s": raw}}
			if err := appendRecord(path, r); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	a := write("a", 1, 1)
	for _, tc := range []struct {
		pass, raw float64
		code      int
	}{{1, 2, 0}, {2, 1, 1}} {
		b := write(fmt.Sprint(tc.pass, tc.raw), tc.pass, tc.raw)
		var out strings.Builder
		code, err := runCompare(a, b, "../../BENCHMARK.json", &out)
		if err != nil || code != tc.code {
			t.Errorf("pass_s %v, raw %v: exit %d (%v), want %d\n%s", tc.pass, tc.raw, code, err, tc.code, out.String())
		}
	}
}
