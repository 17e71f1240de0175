package main

import "sort"

// metricDef names a reported metric and its unit. BENCHMARK.json
// declares the same names and units, with each metric's direction and,
// for end-to-end metrics, its regression bound; the test suite keeps
// the two in step.
type metricDef struct{ name, unit string }

// endToEnd are the metrics an untraced run reports: what a user of the
// transpiler sees. Timed values come only from untraced runs.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"pass_s", "s"},
	{"transpile_ms_p50", "ms"},
	{"transpile_ms_p90", "ms"},
	{"peak_heap_mb", "MB"},
	{"depth_pulses_sum", "pulses"},
	{"basis_gates_sum", "gates"},
	{"swaps_sum", "swaps"},
}

// perLayer are the metrics a traced run reports, one group per package
// a call crosses. README.md says which end-to-end metric each should
// move, on which workload.
var perLayer = []metricDef{
	{"transpile.prepare.calls", "count"},
	{"transpile.prepare.busy_s", "s"},
	{"transpile.finish.busy_s", "s"},
	{"transpile.trivial_ratio", "ratio"},
	{"sabre.route.calls", "count"},
	{"sabre.refine.wall_s", "s"},
	{"sabre.grid.wall_s", "s"},
	{"sabre.replay.wall_s", "s"},
	{"sabre.trials", "count"},
	{"sabre.trial_us", "us"},
	{"mirage.decide.calls", "count"},
	{"mirage.decide.busy_s", "s"},
	{"mirage.decide.accept_ratio", "ratio"},
	{"mirage.depth_metric.calls", "count"},
	{"mirage.depth_metric.busy_s", "s"},
	{"mirage.depth_metric.grid_share", "ratio"},
	{"polytope.coverage_build_s", "s"},
	{"polytope.min_cost_ns.root2", "ns"},
	{"weyl.coordinate_ns", "ns"},
	{"circuit.consolidate_ns_per_op", "ns/op"},
	{"distrib.route.busy_s", "s"},
	{"dispatch.worker.jobs", "count"},
	{"dispatch.worker.prepare_s", "s"},
	{"dispatch.worker.items", "count"},
	{"dispatch.worker.busy_s", "s"},
	{"dispatch.worker.idle_s", "s"},
	{"dispatch.worker.utilisation", "ratio"},
	{"dispatch.items_rerun", "count"},
	{"dispatch.wire.bytes_to_workers", "B"},
	{"dispatch.wire.bytes_to_hub", "B"},
	{"dispatch.wire.writes", "count"},
	{"dispatch.epilogue.bytes", "B"},
	{"dispatch.journal.bytes", "B"},
	{"mirrorbench.verified_ratio", "ratio"},
	{"trace.overhead_pct", "%"},
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object a run prints as its last line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// raw holds an untraced run's timed metrics in wall-clock time, as
	// measured, and the median slowdown. It goes to the -out record, not
	// to the printed line.
	raw map[string]float64
}

// collect picks the declared metrics out of values, with their units.
func collect(defs []metricDef, values map[string]float64) map[string]metric {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		out[d.name] = metric{Value: values[d.name], Unit: d.unit}
	}
	return out
}

// median of xs (0 for none).
func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}

// percentile is the p-th percentile of xs, interpolating linearly
// between closest ranks.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// quartiles returns the quartiles of xs as Python's
// statistics.quantiles(xs, n=4) computes them (the exclusive method),
// the definition the benchmark's acceptance check uses.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	switch len(s) {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	m := len(s) + 1
	q := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > len(s)-1 {
			j = len(s) - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(2), q(3)
}
