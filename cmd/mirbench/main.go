// Command mirbench is the repository's benchmark. It drives the MIRAGE
// transpiler through three workloads, each a closed loop with one
// client, and reports end-to-end metrics (set-up time, pass time, call
// latency, peak memory and the paper's quality sums) from an untraced
// run, or per-layer metrics from a traced run. Every output is checked:
// routed 2Q ops must sit on coupled pairs, mirror circuits must pass
// mirrorbench.Verify, and every pass must reproduce the first.
//
// Usage, from the repository root:
//
//	bash cmd/mirbench/run.sh -workload all -seed 1 -out run.jsonl
//	bash cmd/mirbench/run.sh -workload small-mirror -seed 1 -trace 1
//	bash cmd/mirbench/run.sh -compare set1.jsonl set2.jsonl
//
// A run prints its metrics by name with their units and ends with one
// JSON line: {"correct", "attempted", "failed", "metrics"}. See
// README.md for the workloads and metric definitions.
package main

import (
	"bytes"
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"
)

// start approximates process start: set-up time is measured from here.
var start = markStart()

// startMark is the wall and CPU time at process start, and the kernel
// times taken right after it (see speed.go), which set-up time leaves
// out.
type startMark struct {
	wall time.Time
	cpu  time.Duration
	cals []time.Duration
}

// markStart limits the process to one P and marks the start of set-up.
func markStart() startMark {
	runtime.GOMAXPROCS(1)
	m := startMark{wall: time.Now(), cpu: cpuTime()}
	m.cals = calibrations(setupCals, 0)
	return m
}

// setupCals is how many kernel runs gauge the machine's speed at each
// end of set-up, at least. The machine's speed swings from one span of
// a few milliseconds to the next, so after set-up the kernel runs for a
// third of set-up's time as well.
const setupCals = 16

// setupRuns is how many set-ups setup_s is the median of: this
// process's and fresh child processes'. A set-up lasts tens of
// milliseconds, so a few more cost little and steady the median.
const setupRuns = 9

// pinnedFingerprints holds the input hashes of every workload at seeds
// 1 and 2 (see checkFingerprints).
//
//go:embed fingerprints.json
var pinnedFingerprints []byte

// config is one run's settings. The last group scales a run down for
// the smoke test; the command line leaves them at their defaults.
type config struct {
	workload string
	seed     int64
	seconds  float64 // pass time to measure
	trace    bool
	traceOut string
	// setupRuns is how many set-ups setup_s is the median of.
	setupRuns    int
	fingerprints map[string]map[string]string

	trials, maxInputs, maxPasses int
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	fl := flag.NewFlagSet("mirbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	cfg := config{setupRuns: setupRuns}
	fl.StringVar(&cfg.workload, "workload", "", "workload to run, or all to run each in its own process: "+strings.Join(names, ", "))
	fl.Int64Var(&cfg.seed, "seed", 1, "draws the order of small-mirror's calls (1 = baseline, 2 = held out for claims)")
	fl.Float64Var(&cfg.seconds, "seconds", 10, "wall-clock pass time a run measures, in seconds")
	trace := fl.Int("trace", 0, "1 = traced run reporting the per-layer metrics instead of the end-to-end ones")
	fl.StringVar(&cfg.traceOut, "trace-out", "", "traced run: write the spans to this file as JSON lines (with -workload all, one file per workload, suffixed .<workload>)")
	out := fl.String("out", "", "append each run's result to this file as a JSON line")
	compare := fl.Bool("compare", false, "compare the runs of two -out files: mirbench -compare A.jsonl B.jsonl")
	benchPath := fl.String("bench", "BENCHMARK.json", "-compare: the file holding the metric bounds")
	printFP := fl.Bool("print-fingerprints", false, "print every workload's input fingerprints, the content of fingerprints.json")
	setupOnly := fl.Bool("setup-only", false, "set the workload up, print the set-up time and exit (how setup_s repeats set-up in fresh processes)")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	cfg.trace = *trace == 1
	logf := func(format string, a ...any) { fmt.Fprintf(stderr, "mirbench: "+format+"\n", a...) }

	switch {
	case *compare:
		if fl.NArg() != 2 {
			logf("-compare takes two files")
			return 2
		}
		code, err := runCompare(fl.Arg(0), fl.Arg(1), *benchPath, stdout)
		if err != nil {
			logf("%v", err)
		}
		return code
	case *printFP:
		all := map[string]map[string]string{}
		for _, w := range workloads {
			all[w.name] = inputFingerprints(w)
		}
		b, _ := json.MarshalIndent(all, "", "  ") // maps of strings always marshal
		fmt.Fprintf(stdout, "%s\n", b)
		return 0
	case *trace != 0 && *trace != 1:
		logf("-trace takes 0 or 1")
		return 2
	case cfg.workload == "":
		logf("-workload is required (%s or all)", strings.Join(names, ", "))
		return 2
	case cfg.workload == "all":
		return runAll(cfg, *trace, *out, stdout, stderr)
	}
	if err := json.Unmarshal(pinnedFingerprints, &cfg.fingerprints); err != nil {
		logf("fingerprints.json: %v", err)
		return 1
	}

	if *setupOnly {
		return runSetupOnly(cfg, stdout, logf)
	}
	res, err := runWorkload(cfg, stdout, logf)
	if err != nil {
		logf("%v", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		logf("%v", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if *out != "" {
		if err := appendRecord(*out, record{Workload: cfg.workload, Seed: cfg.seed, Trace: *trace, Result: *res, Raw: res.raw}); err != nil {
			logf("writing %s: %v", *out, err)
			return 1
		}
	}
	if !res.Correct {
		return 1
	}
	return 0
}

// runAll runs every workload in its own child process, one after the
// other, passing the output through.
func runAll(cfg config, trace int, out string, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "mirbench: %v\n", err)
		return 1
	}
	code := 0
	for _, w := range workloads {
		args := []string{"-workload", w.name, "-seed", fmt.Sprint(cfg.seed),
			"-seconds", fmt.Sprint(cfg.seconds), "-trace", fmt.Sprint(trace)}
		if out != "" {
			args = append(args, "-out", out)
		}
		if cfg.traceOut != "" {
			args = append(args, "-trace-out", cfg.traceOut+"."+w.name)
		}
		fmt.Fprintf(stdout, "== %s\n", w.name)
		cmd := exec.Command(exe, args...)
		cmd.Stdout, cmd.Stderr = stdout, stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(stderr, "mirbench: %s: %v\n", w.name, err)
			code = 1
		}
	}
	return code
}

// runSetupOnly is the child side of setup_s: set up, report the time
// since process start, tear down.
func runSetupOnly(cfg config, stdout io.Writer, logf func(string, ...any)) int {
	w, err := lookupWorkload(cfg.workload)
	if err != nil {
		logf("%v", err)
		return 2
	}
	e, err := setup(w, cfg, nil)
	if err != nil {
		logf("%v", err)
		return 1
	}
	s := setupSeconds()
	e.close()
	line, _ := json.Marshal(s) // two floats always marshal
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// setupTime is one set-up's CPU time at reference speed, and its
// wall-clock time as measured.
type setupTime struct {
	Scaled float64 `json:"setup_s"`
	Raw    float64 `json:"raw_setup_s"`
}

// setupSeconds is the time since process start, without the start
// calibrations. Garbage collection is finished before the end ones,
// so that marking left over from set-up does not slow the kernel.
func setupSeconds() setupTime {
	cpu, wall := cpuTime()-start.cpu, time.Since(start.wall)
	for _, c := range start.cals {
		cpu -= c
		wall -= c
	}
	runtime.GC()
	cals := append(calibrations(setupCals, cpu/3), start.cals...)
	return setupTime{Scaled: cpu.Seconds() / slowdown(cals), Raw: wall.Seconds()}
}

// setupInChild measures one more set-up in a fresh process.
func setupInChild(cfg config) (setupTime, error) {
	exe, err := os.Executable()
	if err != nil {
		return setupTime{}, err
	}
	cmd := exec.Command(exe, "-setup-only", "-workload", cfg.workload, "-seed", fmt.Sprint(cfg.seed))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return setupTime{}, fmt.Errorf("set-up in a child process: %w", err)
	}
	var s setupTime
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	if err := json.Unmarshal(lines[len(lines)-1], &s); err != nil || s.Raw <= 0 {
		return setupTime{}, fmt.Errorf("set-up in a child process printed %q", out)
	}
	return s, nil
}

// runWorkload sets the workload up and measures it: end-to-end metrics
// from an untraced run, per-layer metrics from a traced one.
func runWorkload(cfg config, stdout io.Writer, logf func(string, ...any)) (*result, error) {
	w, err := lookupWorkload(cfg.workload)
	if err != nil {
		return nil, err
	}
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	e, err := setup(w, cfg, tr)
	if err != nil {
		return nil, err
	}
	defer e.close()
	first := setupSeconds()
	setups, rawSetups := []float64{first.Scaled}, []float64{first.Raw}

	fmt.Fprintf(stdout, "workload %s, seed %d, %d inputs, %d calls per pass, trace %v\n",
		w.name, cfg.seed, len(e.inputs), len(e.calls), cfg.trace)
	var res result
	if cfg.trace {
		res.Metrics, res.Attempted, res.Failed, err = measureTraced(e, tr, cfg, logf)
		if err != nil {
			return nil, err
		}
	} else {
		for len(setups) < cfg.setupRuns {
			s, err := setupInChild(cfg)
			if err != nil {
				return nil, err
			}
			setups, rawSetups = append(setups, s.Scaled), append(rawSetups, s.Raw)
		}
		m := e.measure(cfg.seconds, logf)
		values := map[string]float64{
			"setup_s":          median(setups),
			"pass_s":           median(m.passes),
			"transpile_ms_p50": percentile(m.latencies, 50),
			"transpile_ms_p90": percentile(m.latencies, 90),
			"peak_heap_mb":     median(m.peakHeap),
			"depth_pulses_sum": e.quality.depth,
			"basis_gates_sum":  e.quality.gates,
			"swaps_sum":        e.quality.swaps,
		}
		res.Metrics = collect(endToEnd, values)
		res.Attempted, res.Failed = m.attempted, m.failed
		res.raw = map[string]float64{
			"setup_s":          median(rawSetups),
			"pass_s":           median(m.rawPasses),
			"transpile_ms_p50": percentile(m.rawLatencies, 50),
			"transpile_ms_p90": percentile(m.rawLatencies, 90),
			"slowdown":         median(m.slowdowns),
		}
		fmt.Fprintf(stdout, "%d passes, %d latency samples; set-ups %.4g s (wall clock %.4g s)\n",
			len(m.passes), len(m.latencies), setups, rawSetups)
		fmt.Fprintf(stdout, "wall clock, at a median slowdown of %.3f: pass %.4g s, p50 %.4g ms, p90 %.4g ms\n",
			res.raw["slowdown"], res.raw["pass_s"], res.raw["transpile_ms_p50"], res.raw["transpile_ms_p90"])
	}
	res.Correct = res.Failed == 0
	fmt.Fprintf(stdout, "mirror outputs verified: %d of %d; failed: %d of %d calls\n",
		e.verified, e.mirrors, res.Failed, res.Attempted)
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	for _, d := range defs {
		fmt.Fprintf(stdout, "  %-32s %16.6f %s\n", d.name, res.Metrics[d.name].Value, d.unit)
	}
	return &res, nil
}

// measureTraced makes the reference pass, then alternates traced and
// untraced passes, so that drift over the run cancels out of the
// tracing overhead, and finally runs the kernel probes.
func measureTraced(e *env, tr *tracer, cfg config, logf func(string, ...any)) (map[string]metric, int, int, error) {
	var ref, base, traced measurement
	e.timedPass(false, &ref, logf)
	var journalBytes int64
	for len(traced.passes) == 0 || sum(base.rawPasses)+sum(traced.rawPasses) < cfg.seconds {
		var before int64
		if e.fleet != nil {
			before = e.fleet.journalBytes()
		}
		e.timedPass(true, &traced, logf)
		if e.fleet != nil {
			journalBytes += e.fleet.journalBytes() - before
		}
		e.timedPass(false, &base, logf)
		if cfg.maxPasses > 0 && len(traced.passes) >= cfg.maxPasses {
			break
		}
	}
	sec := tracedSection{passes: len(traced.passes), wall: sum(traced.rawPasses)}
	if e.fleet != nil {
		sec.workers = fleetWorkers
		sec.journalBytes = journalBytes
	}
	values := tr.layerValues(sec)
	values["transpile.trivial_ratio"] = ratio(float64(e.trivial), float64(e.reports))
	values["polytope.coverage_build_s"] = e.coverageBuild.Seconds()
	values["polytope.min_cost_ns.root2"] = probeMinCost(e.opts[0].Basis, cfg.seed)
	values["weyl.coordinate_ns"] = probeCoordinate(cfg.seed)
	values["circuit.consolidate_ns_per_op"] = probeConsolidate(e.winners)
	values["mirrorbench.verified_ratio"] = ratio(float64(e.verified), float64(e.mirrors))
	values["trace.overhead_pct"] = 100 * (median(traced.passes)/median(base.passes) - 1)
	if cfg.traceOut != "" {
		if err := tr.writeSpans(cfg.traceOut); err != nil {
			return nil, 0, 0, fmt.Errorf("writing spans: %w", err)
		}
	}
	return collect(perLayer, values), ref.attempted + base.attempted + traced.attempted,
		ref.failed + base.failed + traced.failed, nil
}
