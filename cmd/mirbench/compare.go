package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
)

// record is one line of an -out file: a run, its result and, for an
// untraced run, its timed metrics in wall-clock time (see result.raw).
type record struct {
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	Trace    int                `json:"trace"`
	Result   result             `json:"result"`
	Raw      map[string]float64 `json:"raw,omitempty"`
}

func appendRecord(path string, r record) error {
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// samples maps workload -> metric -> the values of every run in a file.
type samples map[string]map[string][]float64

func readRecords(path string) (samples, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := samples{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for n := 1; sc.Scan(); n++ {
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, n, err)
		}
		if out[r.Workload] == nil {
			out[r.Workload] = map[string][]float64{}
		}
		for name, m := range r.Result.Metrics {
			out[r.Workload][name] = append(out[r.Workload][name], m.Value)
		}
		for name, v := range r.Raw {
			out[r.Workload][rawPrefix+name] = append(out[r.Workload][rawPrefix+name], v)
		}
		out[r.Workload]["failed"] = append(out[r.Workload]["failed"], float64(r.Result.Failed))
	}
	return out, sc.Err()
}

// benchmarkBounds is the part of BENCHMARK.json -compare reads.
type benchmarkBounds struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// verdict judges B against A for a metric where lower (or, with
// higherBetter, higher) is better, under a bound given as a share of
// A's median: B is worse or better when its median moved that way by
// more than the bound. The verdict is unresolved when either side's
// spread (interquartile range over median) is wider than the bound,
// unless every run of B reads better than every run of A.
func verdict(a, b []float64, bound float64, higherBetter bool) string {
	sign := 1.0
	if higherBetter {
		sign = -1
	}
	a1, am, a3 := quartiles(a)
	b1, bm, b3 := quartiles(b)
	rel := func(x float64) float64 {
		if am == 0 {
			return x
		}
		return x / math.Abs(am)
	}
	allBetter := true
	for _, x := range a {
		for _, y := range b {
			if sign*(y-x) >= 0 {
				allBetter = false
			}
		}
	}
	worse := rel(sign * (bm - am))
	switch {
	case rel(a3-a1) > bound || (bm != 0 && (b3-b1)/math.Abs(bm) > bound):
		if allBetter {
			return "better"
		}
		return "unresolved"
	case worse > bound:
		return "worse"
	case -worse > bound:
		return "better"
	}
	return "unchanged"
}

// rawPrefix marks, in -compare, a timed metric in wall-clock time as
// measured rather than in CPU time at reference speed.
const rawPrefix = "raw."

// runCompare prints, for each workload and metric, the median and
// quartiles of both files' runs and a verdict under BENCHMARK.json's
// bounds. It returns 1 when any end-to-end metric is worse or
// unresolved, or a run failed. The raw timings get a verdict under the
// same bounds, printed but not counted: they carry the neighbours' load
// and the machine's drift.
func runCompare(pathA, pathB, benchPath string, stdout io.Writer) (int, error) {
	raw, err := os.ReadFile(benchPath)
	if err != nil {
		return 2, err
	}
	var bb benchmarkBounds
	if err := json.Unmarshal(raw, &bb); err != nil {
		return 2, fmt.Errorf("%s: %w", benchPath, err)
	}
	type boundDef struct {
		bound        float64
		higherBetter bool
	}
	bounds := map[string]boundDef{}
	for _, m := range bb.EndToEnd {
		bounds[m.Name] = boundDef{m.Bound, m.Better == "higher"}
	}
	a, err := readRecords(pathA)
	if err != nil {
		return 2, err
	}
	b, err := readRecords(pathB)
	if err != nil {
		return 2, err
	}

	code := 0
	fmt.Fprintf(stdout, "%-22s %-32s %5s %14s %14s %14s   %14s %14s %14s  %s\n",
		"workload", "metric", "runs", "A q1", "A median", "A q3", "B q1", "B median", "B q3", "verdict")
	for _, w := range sortedKeys(a) {
		if b[w] == nil {
			fmt.Fprintf(stdout, "%-22s only in %s\n", w, pathA)
			continue
		}
		for _, name := range sortedKeys(a[w]) {
			av, bv := a[w][name], b[w][name]
			if len(bv) == 0 {
				continue
			}
			v := "-"
			base, raw := strings.CutPrefix(name, rawPrefix)
			if bd, ok := bounds[base]; ok {
				v = verdict(av, bv, bd.bound, bd.higherBetter)
				if raw {
					v += " (not counted)"
				}
			} else if name == "failed" {
				// Any failed call in B that A did not have is a regression.
				v = "unchanged"
				if sum(bv) > sum(av) {
					v = "worse"
				}
			}
			if v == "worse" || v == "unresolved" {
				code = 1
			}
			a1, am, a3 := quartiles(av)
			b1, bm, b3 := quartiles(bv)
			fmt.Fprintf(stdout, "%-22s %-32s %2d/%-2d %14.6g %14.6g %14.6g   %14.6g %14.6g %14.6g  %s\n",
				w, name, len(av), len(bv), a1, am, a3, b1, bm, b3, v)
		}
	}
	for _, w := range sortedKeys(b) {
		if a[w] == nil {
			fmt.Fprintf(stdout, "%-22s only in %s\n", w, pathB)
		}
	}
	return code, nil
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
