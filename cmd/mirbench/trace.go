package main

import (
	"bufio"
	"encoding/json"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dispatch"
	"repro/internal/sabre"
	"repro/internal/transpile"
)

// tracer records spans at the boundaries of the layers a call crosses,
// plus counters for the layers whose calls are too many for a span
// each (mirror decisions, depth-metric evaluations). Every span is
// taken in this package, around a call into a layer's exported API:
// the client loop, the transpile.Options.RouteFn seam with the policy
// factory and metric passed through it, the worker Handler table, and
// the loopback connections. All methods are no-ops on a nil tracer, so
// untraced calls run the same code without recording.
type tracer struct {
	epoch time.Time
	// on gates what other goroutines record (worker spans, wire
	// counts); client-side spans are only opened by traced calls.
	on  atomic.Bool
	ids atomic.Int64
	req atomic.Int64 // request id of the call in flight
	top atomic.Int64 // innermost open client span: parent of worker spans

	mu    sync.Mutex
	spans []span
	hot   hotCounts

	wire          [2]atomic.Int64 // bytes written, indexed by direction
	wireWrites    atomic.Int64
	epilogueBytes atomic.Int64
	expectedItems atomic.Int64 // distinct work items the fleet was asked for
}

// span is one timed interval. Start and End are nanoseconds since the
// tracer's epoch; every span of one call carries that call's request
// id, and Parent is the span that caused it (0 for a request).
type span struct {
	ID      int64  `json:"id"`
	Parent  int64  `json:"parent"`
	Request int64  `json:"request"`
	Name    string `json:"name"`
	Start   int64  `json:"start_ns"`
	End     int64  `json:"end_ns"`
}

func (s span) seconds() float64 { return float64(s.End-s.Start) / 1e9 }

// hotCounts are summed from per-route state once each route returns.
type hotCounts struct {
	trials, decides, accepts, metricCalls int64
	decideBusy, metricBusy                time.Duration
}

// Directions of loopback traffic.
const (
	toWorkers = iota
	toHub
)

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) setOn(on bool) {
	if t != nil {
		t.on.Store(on)
	}
}

// request opens the root span of one user-visible call.
func (t *tracer) request() span {
	if t == nil {
		return span{}
	}
	id := t.ids.Add(1)
	t.req.Store(id)
	t.top.Store(id)
	return span{ID: id, Request: id, Name: "request", Start: t.now()}
}

// open starts a span nested in the innermost open span. Only the
// client goroutine opens and closes spans.
func (t *tracer) open(name string) span {
	if t == nil {
		return span{}
	}
	s := span{ID: t.ids.Add(1), Parent: t.top.Load(), Request: t.req.Load(), Name: name, Start: t.now()}
	t.top.Store(s.ID)
	return s
}

// close ends a span opened by open or request and records it.
func (t *tracer) close(s span) span {
	if t == nil {
		return s
	}
	s.End = t.now()
	t.top.Store(s.Parent)
	t.record(s)
	return s
}

// leaf records a span that started at start and ends now, from any
// goroutine, under the innermost open client span.
func (t *tracer) leaf(name string, start int64) {
	if !t.on.Load() {
		return
	}
	t.record(span{ID: t.ids.Add(1), Parent: t.top.Load(), Request: t.req.Load(), Name: name, Start: start, End: t.now()})
}

func (t *tracer) record(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

func (t *tracer) expectItems(n int) {
	if t != nil {
		t.expectedItems.Add(int64(n))
	}
}

// instrument installs the route wrappers into a copy of o. On a fleet
// workload the cluster's RouteFn is timed as one coordinator span; a
// local workload gets routeLocal around sabre.FindBestRoutingPrepared.
func (t *tracer) instrument(o transpile.Options, depth bool) transpile.Options {
	if inner := o.RouteFn; inner != nil {
		o.RouteFn = func(pc *sabre.PreparedCircuit, lo sabre.LayoutOptions,
			metric sabre.Metric, factory sabre.PolicyFactory) (*sabre.Result, error) {
			s := t.open("distrib.route")
			t.expectItems(lo.LayoutTrials * lo.RoutingTrials)
			res, err := inner(pc, lo, metric, factory)
			t.close(s)
			return res, err
		}
		return o
	}
	o.RouteFn = func(pc *sabre.PreparedCircuit, lo sabre.LayoutOptions,
		metric sabre.Metric, factory sabre.PolicyFactory) (*sabre.Result, error) {
		return t.routeLocal(pc, lo, metric, factory, depth)
	}
	return o
}

// routeLocal runs sabre.FindBestRoutingPrepared with a wrapped metric
// and policy factory, and splits the call into three spans: refine,
// from entry to the first factory or metric callback; grid, from there
// to the last metric return; replay, the rest. For SABRE the wrapped
// factory returns a nil policy, which marks trial starts without
// changing routing.
func (t *tracer) routeLocal(pc *sabre.PreparedCircuit, lo sabre.LayoutOptions,
	metric sabre.Metric, factory sabre.PolicyFactory, depth bool) (*sabre.Result, error) {

	if metric == nil {
		metric = sabre.SwapCountMetric
	}
	var (
		first, last           atomic.Int64
		metricCalls, metricNs atomic.Int64
		mu                    sync.Mutex
		policies              []*tracedPolicy
	)
	mark := func() { first.CompareAndSwap(0, t.now()) }
	wrappedFactory := func(trial int) sabre.MirrorPolicy {
		mark()
		if factory == nil {
			return nil
		}
		p := factory(trial)
		if p == nil {
			return nil
		}
		tp := &tracedPolicy{inner: p}
		mu.Lock()
		policies = append(policies, tp)
		mu.Unlock()
		return tp
	}
	wrappedMetric := func(r *sabre.Result) float64 {
		mark()
		start := t.now()
		v := metric(r)
		end := t.now()
		metricCalls.Add(1)
		metricNs.Add(end - start)
		for cur := last.Load(); end > cur && !last.CompareAndSwap(cur, end); cur = last.Load() {
		}
		return v
	}

	s := t.open("sabre.route")
	res, err := sabre.FindBestRoutingPrepared(pc, lo, wrappedMetric, wrappedFactory)
	s = t.close(s)

	gridStart, gridEnd := first.Load(), last.Load()
	if gridStart == 0 {
		gridStart = s.End
	}
	if gridEnd < gridStart {
		gridEnd = gridStart
	}
	for _, part := range []span{
		{Name: "sabre.refine", Start: s.Start, End: gridStart},
		{Name: "sabre.grid", Start: gridStart, End: gridEnd},
		{Name: "sabre.replay", Start: gridEnd, End: s.End},
	} {
		part.ID, part.Parent, part.Request = t.ids.Add(1), s.ID, s.Request
		t.record(part)
	}

	t.mu.Lock()
	t.hot.trials += metricCalls.Load()
	if depth {
		t.hot.metricCalls += metricCalls.Load()
		t.hot.metricBusy += time.Duration(metricNs.Load())
	}
	for _, p := range policies {
		t.hot.decides += p.calls
		t.hot.accepts += p.accepts
		t.hot.decideBusy += p.busy
	}
	t.mu.Unlock()
	return res, err
}

// tracedPolicy times every mirror decision. Each trial builds its own
// policy and runs on one goroutine, so the counters need no locking.
type tracedPolicy struct {
	inner          sabre.MirrorPolicy
	calls, accepts int64
	busy           time.Duration
}

func (p *tracedPolicy) Decide(ctx *sabre.MirrorContext) bool {
	start := time.Now()
	ok := p.inner.Decide(ctx)
	p.busy += time.Since(start)
	p.calls++
	if ok {
		p.accepts++
	}
	return ok
}

// wrapHandlers times the worker side of every job: the Handler that
// prepares it, each JobRunner.Run and the Epilogue.
func (t *tracer) wrapHandlers(hs map[string]dispatch.Handler) map[string]dispatch.Handler {
	if t == nil {
		return hs
	}
	out := make(map[string]dispatch.Handler, len(hs))
	for kind, h := range hs {
		h := h
		out[kind] = func(spec, warm []byte) (dispatch.JobRunner, error) {
			start := t.now()
			r, err := h(spec, warm)
			t.leaf("dispatch.worker.prepare", start)
			if err != nil {
				return nil, err
			}
			return &tracedRunner{inner: r, t: t}, nil
		}
	}
	return out
}

type tracedRunner struct {
	inner dispatch.JobRunner
	t     *tracer
}

func (r *tracedRunner) Run(i int) dispatch.WireItem {
	start := r.t.now()
	item := r.inner.Run(i)
	r.t.leaf("dispatch.worker.item", start)
	return item
}

func (r *tracedRunner) Epilogue() []byte {
	start := r.t.now()
	b := r.inner.Epilogue()
	r.t.leaf("dispatch.worker.epilogue", start)
	if r.t.on.Load() {
		r.t.epilogueBytes.Add(int64(len(b)))
	}
	return b
}

// countConn counts the bytes and writes sent through one end of a
// loopback connection.
func (t *tracer) countConn(c net.Conn, dir int) net.Conn {
	if t == nil {
		return c
	}
	return &countingConn{Conn: c, t: t, dir: dir}
}

type countingConn struct {
	net.Conn
	t   *tracer
	dir int
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	if c.t.on.Load() {
		c.t.wire[c.dir].Add(int64(n))
		c.t.wireWrites.Add(1)
	}
	return n, err
}

// writeSpans writes every recorded span to path as JSON lines.
func (t *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracedSection describes the traced passes the layer metrics cover.
type tracedSection struct {
	passes       int
	wall         float64 // s, summed over the traced passes
	workers      int     // fleet workers, 0 on a local workload
	journalBytes int64   // journal growth during the traced passes
}

// layerValues turns the recorded spans and counters into the traced
// run's per-layer metrics. Additive quantities are per traced pass.
func (t *tracer) layerValues(sec tracedSection) map[string]float64 {
	busy := map[string]float64{}
	calls := map[string]float64{}
	t.mu.Lock()
	for _, s := range t.spans {
		busy[s.Name] += s.seconds()
		calls[s.Name]++
	}
	hot := t.hot
	t.mu.Unlock()

	perPass := func(x float64) float64 { return x / float64(sec.passes) }
	gridWorkerTime := busy["sabre.grid"] * parallelism
	workerBusy := busy["dispatch.worker.item"] + busy["dispatch.worker.epilogue"]
	workerTime := float64(sec.workers) * sec.wall
	idle := 0.0
	if sec.workers > 0 {
		idle = workerTime - workerBusy - busy["dispatch.worker.prepare"]
	}
	return map[string]float64{
		"transpile.prepare.calls":        perPass(calls["transpile.prepare"]),
		"transpile.prepare.busy_s":       perPass(busy["transpile.prepare"]),
		"transpile.finish.busy_s":        perPass(busy["transpile.transpile"] - busy["sabre.route"] - busy["distrib.route"]),
		"sabre.route.calls":              perPass(calls["sabre.route"]),
		"sabre.refine.wall_s":            perPass(busy["sabre.refine"]),
		"sabre.grid.wall_s":              perPass(busy["sabre.grid"]),
		"sabre.replay.wall_s":            perPass(busy["sabre.replay"]),
		"sabre.trials":                   perPass(float64(hot.trials)),
		"sabre.trial_us":                 1e6 * ratio(gridWorkerTime, float64(hot.trials)),
		"mirage.decide.calls":            perPass(float64(hot.decides)),
		"mirage.decide.busy_s":           perPass(hot.decideBusy.Seconds()),
		"mirage.decide.accept_ratio":     ratio(float64(hot.accepts), float64(hot.decides)),
		"mirage.depth_metric.calls":      perPass(float64(hot.metricCalls)),
		"mirage.depth_metric.busy_s":     perPass(hot.metricBusy.Seconds()),
		"mirage.depth_metric.grid_share": ratio(hot.metricBusy.Seconds(), gridWorkerTime),
		"distrib.route.busy_s":           perPass(busy["distrib.route"]),
		"dispatch.worker.jobs":           perPass(calls["dispatch.worker.prepare"]),
		"dispatch.worker.prepare_s":      perPass(busy["dispatch.worker.prepare"]),
		"dispatch.worker.items":          perPass(calls["dispatch.worker.item"]),
		"dispatch.worker.busy_s":         perPass(workerBusy),
		"dispatch.worker.idle_s":         perPass(idle),
		"dispatch.worker.utilisation":    ratio(workerBusy, workerTime),
		"dispatch.items_rerun":           calls["dispatch.worker.item"] - float64(t.expectedItems.Load()),
		"dispatch.wire.bytes_to_workers": perPass(float64(t.wire[toWorkers].Load())),
		"dispatch.wire.bytes_to_hub":     perPass(float64(t.wire[toHub].Load())),
		"dispatch.wire.writes":           perPass(float64(t.wireWrites.Load())),
		"dispatch.epilogue.bytes":        perPass(float64(t.epilogueBytes.Load())),
		"dispatch.journal.bytes":         perPass(float64(sec.journalBytes)),
	}
}

// ratio is num/den, or 0 when nothing was counted.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
