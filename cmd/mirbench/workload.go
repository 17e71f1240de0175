package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime/debug"
	"runtime/metrics"
	"time"

	"repro/internal/bench"
	"repro/internal/circuit"
	"repro/internal/mirrorbench"
	"repro/internal/polytope"
	"repro/internal/sabre"
	"repro/internal/topology"
	"repro/internal/transpile"
)

// routerConfig is one router configuration a workload runs its inputs
// under.
type routerConfig struct {
	router transpile.Router
	depth  bool // MIRAGE-Depth post-selection instead of SWAP count
}

var (
	sabreSwaps  = routerConfig{transpile.SABRE, false}
	mirageDepth = routerConfig{transpile.MIRAGE, true}
)

// basisRoot is every workload's basis gate: iSWAP^(1/basisRoot).
const basisRoot = 2

// Every run has one P (see speed.go): a local workload routes its trial
// grid on one worker, and a fleet workload runs two single-threaded
// workers that share it.
const (
	parallelism  = 1
	fleetWorkers = 2
)

// workload is one input set under one pipeline configuration. Every
// workload is a closed loop driven by a single client goroutine: the
// next call is issued only after the previous one returned.
type workload struct {
	name, why string
	topo      func() *topology.Topology

	layoutTrials, routingTrials, fwdBwd int
	skipTrivial                         bool
	configs                             []routerConfig
	inputs                              func(seed int64) []input

	// fleet routes every call's trial grid through two in-process
	// workers over loopback TCP.
	fleet bool
}

// The why strings are copied verbatim into BENCHMARK.json; README.md
// gives the longer reasoning behind each workload.
var workloads = []*workload{
	{
		name:         "fig12-square",
		why:          "the paper's Fig. 12 headline: 19 suite circuits under SABRE and MIRAGE-Depth on square-6x6; trial grid, mirror policy and depth metric dominate",
		topo:         topology.SquareLattice66,
		layoutTrials: 10, routingTrials: 10, fwdBwd: 4,
		skipTrivial: true,
		configs:     []routerConfig{sabreSwaps, mirageDepth},
		inputs:      func(int64) []input { return entryInputs(bench.Suite()) },
	},
	{
		name:         "small-mirror",
		why:          "300 fixed 3-6 qubit mirror circuits in an order drawn from the seed, on grid-3x4: compile-many-small traffic where cleaning, consolidation and trivial-layout search weigh most",
		topo:         func() *topology.Topology { return topology.Grid(3, 4) },
		layoutTrials: 4, routingTrials: 4, fwdBwd: 2,
		configs: []routerConfig{mirageDepth},
		// The circuits are fixed (drawn with seed 1) so that the quality
		// sums are exact at every seed; the seed draws their order.
		inputs: func(seed int64) []input { return shuffled(mirrorInputs(1, 300), seed) },
	},
	{
		name:         "fleet-trials",
		why:          "7 quick-suite circuits as MIRAGE-Depth 10x10 trial grids on two loopback workers: chatty leases, journal writes and coordinator refinement",
		topo:         topology.SquareLattice66,
		layoutTrials: 10, routingTrials: 10, fwdBwd: 4,
		skipTrivial: true,
		configs:     []routerConfig{mirageDepth},
		inputs:      func(int64) []input { return entryInputs(bench.QuickSuite()) },
		fleet:       true,
	},
}

func lookupWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// input is one circuit of a workload. expected is the analytically
// known survival bitstring of a mirror circuit, nil for other circuits.
type input struct {
	name     string
	circ     *circuit.Circuit
	expected []int
}

func entryInputs(entries []bench.Entry) []input {
	in := make([]input, len(entries))
	for i, e := range entries {
		if e.Mirror != nil {
			m := mirrorbench.Generate(*e.Mirror)
			in[i] = input{name: e.Name, circ: m.Circuit, expected: m.Expected}
		} else {
			in[i] = input{name: e.Name, circ: e.Build()}
		}
	}
	return in
}

// mirrorInputs draws n mirror circuits from seed. The shapes cycle
// through both generator families, 3-6 qubits and 3-6 layers. On
// grid-3x4 about a third of these circuits embed without routing. (With
// 2-5 layers over half do, and the median call latency then falls in
// the gap between the fast trivially embedded calls and the routed
// ones, where it jumps with any change to the mix.)
func mirrorInputs(seed int64, n int) []input {
	rng := rand.New(rand.NewSource(seed))
	in := make([]input, n)
	for i := range in {
		s := mirrorbench.Spec{
			Kind:   mirrorbench.Kind(i % 2),
			Qubits: 3 + (i/2)%4,
			Layers: 3 + (i/8)%4,
			Seed:   rng.Int63(),
		}
		m := mirrorbench.Generate(s)
		in[i] = input{name: s.Name(), circ: m.Circuit, expected: m.Expected}
	}
	return in
}

// shuffled puts the inputs in an order drawn from seed. Each call's
// outcome does not depend on the order, so neither do the quality sums.
func shuffled(in []input, seed int64) []input {
	rand.New(rand.NewSource(seed)).Shuffle(len(in), func(i, j int) { in[i], in[j] = in[j], in[i] })
	return in
}

// fingerprint hashes an input set: names, widths, expected bitstrings
// and op lists (gate name, qubits and matrix entries rounded to 1e-9,
// so the hash does not depend on the last bits of floating point).
func fingerprint(in []input) string {
	h := sha256.New()
	var buf []byte
	num := func(v int64) { buf = binary.LittleEndian.AppendUint64(buf, uint64(v)) }
	for _, x := range in {
		buf = append(buf[:0], x.name...)
		num(int64(x.circ.NumQubits))
		for _, b := range x.expected {
			num(int64(b))
		}
		for _, op := range x.circ.Ops {
			buf = append(buf, op.Gate.Name...)
			for _, q := range op.Qubits {
				num(int64(q))
			}
			for _, v := range op.Gate.Matrix().Data {
				num(int64(math.Round(real(v) * 1e9)))
				num(int64(math.Round(imag(v) * 1e9)))
			}
		}
		h.Write(buf)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// fingerprintSeeds are the seeds whose input hashes are pinned in
// fingerprints.json: 1 is the baseline seed, 2 the held-out one.
var fingerprintSeeds = []int64{1, 2}

// inputFingerprints computes the pinned hashes of one workload.
func inputFingerprints(w *workload) map[string]string {
	out := make(map[string]string, len(fingerprintSeeds))
	for _, s := range fingerprintSeeds {
		out[fmt.Sprint(s)] = fingerprint(w.inputs(s))
	}
	return out
}

// checkFingerprints fails when the generators no longer produce the
// pinned inputs, so an edit to internal/bench or internal/mirrorbench
// cannot silently change what a workload measures.
func checkFingerprints(w *workload, pinned map[string]map[string]string) error {
	want := pinned[w.name]
	for seed, got := range inputFingerprints(w) {
		if want[seed] != got {
			return fmt.Errorf("%s: inputs at seed %s hash to %s, fingerprints.json pins %q; if the generator change is deliberate, refresh the file with -print-fingerprints",
				w.name, seed, got, want[seed])
		}
	}
	return nil
}

// callSpec is one user-visible call: the transpilation of one input
// under one router configuration.
type callSpec struct {
	input, config int
}

// callResult is what one call returned and how long it took, in CPU
// time and in wall time.
type callResult struct {
	cpu, wall time.Duration
	report    *transpile.Report
	err       error
}

// refCall is what the reference pass recorded of one call.
type refCall struct {
	outcome outcome
	err     error
}

// env is a workload ready to run: inputs generated and fingerprinted,
// coverage set built, fleet connected, one warm-up call done.
type env struct {
	w      *workload
	cfg    config
	topo   *topology.Topology
	inputs []input
	calls  []callSpec
	opts   []transpile.Options // per router config
	traced []transpile.Options // the same with trace wrappers installed
	fleet  *fleet
	tr     *tracer

	coverageBuild time.Duration
	// ref is the first measured pass: every later pass must reproduce
	// its outcomes call for call. Only what the metrics need is kept of
	// it, so the benchmark's own memory stays out of peak_heap_mb.
	ref              []refCall
	quality          struct{ depth, gates, swaps float64 }
	reports, trivial int
	// winners are the reference pass's routed circuits, kept on traced
	// runs for the consolidation probe.
	winners []*circuit.Circuit
	// Mirror-circuit outputs of the reference pass, and how many of
	// them mirrorbench.Verify checked (the rest were too wide).
	mirrors, verified int
}

func setup(w *workload, cfg config, tr *tracer) (*env, error) {
	if err := checkFingerprints(w, cfg.fingerprints); err != nil {
		return nil, err
	}
	e := &env{w: w, cfg: cfg, tr: tr, topo: w.topo()}
	start := time.Now()
	cov := polytope.NewISwapRootCoverage(basisRoot)
	e.coverageBuild = time.Since(start)

	e.inputs = w.inputs(cfg.seed)
	if cfg.maxInputs > 0 && len(e.inputs) > cfg.maxInputs {
		e.inputs = e.inputs[:cfg.maxInputs]
	}
	if w.fleet {
		f, err := startFleet(fleetWorkers, tr)
		if err != nil {
			return nil, err
		}
		e.fleet = f
	}

	lt, rt := w.layoutTrials, w.routingTrials
	if cfg.trials > 0 {
		lt, rt = cfg.trials, cfg.trials
	}
	for _, rc := range w.configs {
		// The workload seed only draws inputs: the transpiler keeps its
		// default layout seed, like any user who does not set one. A
		// layout seed picks the starting layouts of every circuit of a
		// run alike, so varying it would swing the quality sums by a
		// third from one seed to the next.
		o := transpile.Options{
			Router:         rc.router,
			DepthSelection: rc.depth,
			Basis:          cov,
			Layout: sabre.LayoutOptions{
				LayoutTrials: lt, RoutingTrials: rt, FwdBwdPasses: w.fwdBwd,
			},
			SkipTrivialLayout: w.skipTrivial,
			Parallelism:       parallelism,
		}
		if w.fleet {
			var err error
			if o, err = e.fleet.cluster.Options(o); err != nil {
				e.close()
				return nil, err
			}
		}
		e.opts = append(e.opts, o)
		if tr != nil {
			o = tr.instrument(o, rc.depth)
		}
		e.traced = append(e.traced, o)
	}

	for c := range w.configs {
		for i := range e.inputs {
			e.calls = append(e.calls, callSpec{i, c})
		}
	}

	smallest := 0
	for i, x := range e.inputs {
		if len(x.circ.Ops) < len(e.inputs[smallest].circ.Ops) {
			smallest = i
		}
	}
	if r := e.do(callSpec{smallest, 0}, false); r.err != nil {
		e.close()
		return nil, fmt.Errorf("%s: warm-up call on %s: %w", w.name, e.inputs[smallest].name, r.err)
	}
	return e, nil
}

func (e *env) close() {
	if e.fleet != nil {
		e.fleet.close()
	}
}

// do makes one call. Only traced calls open spans; the tracer's
// methods are no-ops on a nil tracer.
func (e *env) do(c callSpec, traced bool) callResult {
	opts := e.opts[c.config]
	var tr *tracer
	if traced {
		tr, opts = e.tr, e.traced[c.config]
	}
	var r callResult
	cpu, start := cpuTime(), time.Now()
	req := tr.request()
	s := tr.open("transpile.prepare")
	pc := transpile.PrepareCircuit(e.inputs[c.input].circ, e.topo)
	tr.close(s)
	s = tr.open("transpile.transpile")
	r.report, r.err = transpile.TranspilePrepared(pc, opts)
	tr.close(s)
	tr.close(req)
	r.cpu, r.wall = cpuTime()-cpu, time.Since(start)
	return r
}

// passTimes is one pass's CPU and wall time without the calibrations,
// the machine's slowdown during it (see speed.go) and its peak heap goal
// in MB.
type passTimes struct {
	cpu, wall time.Duration
	slowdown  float64
	peakMB    float64
}

// pass makes every call of the workload once, calibrating between
// calls and reading the heap goal after each: the heap size the garbage
// collector lets the process grow to before it next collects, workers
// and inputs included.
func (e *env) pass(traced bool) (passTimes, []callResult) {
	goal := []metrics.Sample{{Name: "/gc/heap/goal:bytes"}}
	res := make([]callResult, len(e.calls))
	var cals []time.Duration
	var calCPU, calWall, sinceCal time.Duration
	peak := uint64(0)
	cpu, start := cpuTime(), time.Now()
	for i, c := range e.calls {
		if i == 0 || sinceCal >= calibrationEvery {
			c0, w0 := cpuTime(), time.Now()
			cals = append(cals, calibrate())
			calCPU += cpuTime() - c0
			calWall += time.Since(w0)
			sinceCal = 0
		}
		res[i] = e.do(c, traced)
		sinceCal += res[i].cpu
		metrics.Read(goal)
		peak = max(peak, goal[0].Value.Uint64())
	}
	return passTimes{
		cpu:      cpuTime() - cpu - calCPU,
		wall:     time.Since(start) - calWall,
		slowdown: slowdown(cals),
		peakMB:   float64(peak) / (1 << 20),
	}, res
}

// outcome is the part of a report every pass must reproduce exactly.
type outcome struct {
	swaps, mirrors, routedOps int
	depthPulses, basisGates   float64
}

func outcomeOf(r *transpile.Report) outcome {
	return outcome{
		swaps: r.SwapsInserted, mirrors: r.MirrorsUsed, routedOps: len(r.Routed.Ops),
		depthPulses: r.DepthPulses, basisGates: r.TotalBasisGates,
	}
}

// mirrorTol is the survival infidelity a routed mirror circuit may show.
const mirrorTol = 1e-9

// check validates the outputs of call i: every routed 2Q op must sit
// on a coupled pair and every report must equal the reference pass's.
// On the reference pass every mirror-circuit output must also pass
// mirrorbench.Verify; one too wide for that check counts as
// unverified, not as failed.
func (e *env) check(i int, r callResult, reference bool) error {
	if r.err != nil {
		return r.err
	}
	if e.ref[i].err != nil {
		return fmt.Errorf("call %d failed on the first pass: %w", i, e.ref[i].err)
	}
	in, rep := e.inputs[e.calls[i].input], r.report
	for _, op := range rep.Routed.Ops {
		if op.Is2Q() && !e.topo.HasEdge(op.Qubits[0], op.Qubits[1]) {
			return fmt.Errorf("%s/%s: 2Q op %s on uncoupled pair", in.name, rep.Router, op)
		}
	}
	if got, want := outcomeOf(rep), e.ref[i].outcome; got != want {
		return fmt.Errorf("%s/%s: outcome %+v differs from the first pass's %+v", in.name, rep.Router, got, want)
	}
	if !reference || in.expected == nil {
		return nil
	}
	e.mirrors++
	_, err := mirrorbench.Verify(rep.Routed, rep.FinalLayout, in.expected, mirrorTol)
	switch {
	case errors.Is(err, mirrorbench.ErrTooWide):
	case err != nil:
		return fmt.Errorf("%s/%s: %w", in.name, rep.Router, err)
	default:
		e.verified++
	}
	return nil
}

// measurement is what a run of passes timed and checked. Times are CPU
// times at reference speed; the raw ones are wall-clock times and the
// slowdowns as measured.
type measurement struct {
	passes       []float64 // pass times, s
	latencies    []float64 // call latencies, ms
	peakHeap     []float64 // peak heap goal per pass, MB
	rawPasses    []float64
	rawLatencies []float64
	slowdowns    []float64
	attempted    int
	failed       int
}

// timedPass makes one pass, then checks its outputs outside the timed
// region, and adds both to m. The first pass of the run becomes the
// reference every later pass is compared against.
func (e *env) timedPass(traced bool, m *measurement, logf func(string, ...any)) {
	e.tr.setOn(traced)
	p, res := e.pass(traced)
	e.tr.setOn(false)
	m.rawPasses = append(m.rawPasses, p.wall.Seconds())
	m.slowdowns = append(m.slowdowns, p.slowdown)
	m.passes = append(m.passes, p.cpu.Seconds()/p.slowdown)
	m.peakHeap = append(m.peakHeap, p.peakMB)
	reference := e.ref == nil
	if reference {
		e.setReference(res)
	}
	for i, r := range res {
		m.attempted++
		m.rawLatencies = append(m.rawLatencies, float64(r.wall.Nanoseconds())/1e6)
		m.latencies = append(m.latencies, float64(r.cpu.Nanoseconds())/1e6/p.slowdown)
		if err := e.check(i, r, reference); err != nil {
			m.failed++
			logf("%s: FAILED: %v", e.w.name, err)
		}
	}
	if reference {
		// Verifying the mirror outputs built dense unitaries: collect
		// them so they do not count in later passes' heap.
		debug.FreeOSMemory()
	}
}

// setReference records the reference pass: outcome per call, quality
// sums and trivial-layout count.
func (e *env) setReference(res []callResult) {
	e.ref = make([]refCall, len(res))
	for i, r := range res {
		e.ref[i].err = r.err
		if r.err != nil {
			continue
		}
		rep := r.report
		e.ref[i].outcome = outcomeOf(rep)
		e.quality.depth += rep.DepthPulses
		e.quality.gates += rep.TotalBasisGates
		e.quality.swaps += float64(rep.SwapsInserted)
		e.reports++
		if rep.TrivialLayout {
			e.trivial++
		}
		if e.tr != nil {
			e.winners = append(e.winners, rep.Routed)
		}
	}
}

// minSamples is how many call latencies a run collects at least, so
// that ten lie beyond the 90th percentile.
const minSamples = 100

// measure makes untraced passes until budget seconds of wall-clock pass
// time have elapsed and at least minSamples calls were timed (or,
// whatever the sample count, three budgets have elapsed).
func (e *env) measure(budget float64, logf func(string, ...any)) measurement {
	var m measurement
	for {
		e.timedPass(false, &m, logf)
		if e.cfg.maxPasses > 0 && len(m.passes) >= e.cfg.maxPasses {
			return m
		}
		total := sum(m.rawPasses)
		if (total >= budget && len(m.latencies) >= minSamples) || total >= 3*budget {
			return m
		}
	}
}
