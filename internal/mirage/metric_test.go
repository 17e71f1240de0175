package mirage

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/circuit"
	"repro/internal/gates"
	"repro/internal/linalg"
	"repro/internal/polytope"
	"repro/internal/sabre"
	"repro/internal/topology"
	"repro/internal/weyl"
)

// oracleDepth is the formula the depth metric used to evaluate on
// every trial: consolidate the routed circuit into blocks, then take
// the critical path under GateWeight, which prices every block directly
// with CoverageSet.CostOf. It is kept here, and only here, as the
// oracle the streaming metric must reproduce exactly.
func oracleDepth(cov *polytope.CoverageSet, routed *circuit.Circuit) float64 {
	return circuit.ConsolidateBlocks(routed).Depth(GateWeight(cov))
}

// randomMetricCircuit draws a circuit mixing the gate families the
// metric must price: Clifford and standard entanglers (Weyl-chamber
// vertices and edges, where mirror classes sit on chamber boundaries),
// continuous-angle gates, Haar-random 2Q unitaries, algorithm SWAPs,
// and 1Q layers that land inside same-pair runs.
func randomMetricCircuit(name string, qubits, ops int, rng *rand.Rand) *circuit.Circuit {
	c := circuit.New(name, qubits)
	for g := 0; g < ops; g++ {
		a, b := rng.Intn(qubits), rng.Intn(qubits)
		if rng.Intn(4) == 0 {
			c.Add(gates.RY(rng.Float64()*3), a)
			continue
		}
		if a == b {
			b = (a + 1) % qubits
		}
		switch rng.Intn(7) {
		case 0:
			c.Add(gates.CX(), a, b)
		case 1:
			c.Add(gates.CZ(), a, b)
		case 2:
			c.Add(gates.CPhase(rng.Float64()*3), a, b)
		case 3:
			c.Add(gates.SqrtISwap(), a, b)
		case 4:
			c.Add(gates.ISwap(), a, b)
		case 5:
			c.Add(gates.SWAP(), a, b)
		default:
			c.Add(gates.NewCustom("su4", 2, linalg.RandSU(4, rng)), a, b)
		}
		if rng.Intn(3) == 0 {
			// Repeat the pair: consolidation merges it into one block,
			// and a raw input routes it as a run of two payloads.
			c.Add(gates.CPhase(rng.Float64()*3), b, a)
		}
	}
	return c
}

// TestDepthMetricMatchesConsolidateOracle is the metric equivalence
// property: on routings of consolidated random circuits — three
// topologies, every aggression level — the streaming metric equals the
// consolidate-then-Depth oracle exactly. The metric prices through a
// cost table built over the routed input and the oracle prices
// directly, so a table entry that differed from its coordinate's own
// region cost would show. The routings come from TrialRunner.Run,
// whose accepted mirrors carry SWAP · U, because the oracle multiplies
// gate matrices.
func TestDepthMetricMatchesConsolidateOracle(t *testing.T) {
	cov := siswap()
	topos := []*topology.Topology{topology.Grid(3, 4), topology.Line(8), topology.SquareLattice66()}
	opts := sabre.LayoutOptions{LayoutTrials: 2, RoutingTrials: 3, FwdBwdPasses: 1, Seed: 5, Parallelism: 1}
	rng := rand.New(rand.NewSource(1313))
	trials := 0
	for ti, topo := range topos {
		for k := 0; k < 3; k++ {
			q := 4 + rng.Intn(5)
			if q > topo.NumQubits {
				q = topo.NumQubits
			}
			in := circuit.ConsolidateBlocks(randomMetricCircuit(fmt.Sprintf("metric-%d-%d", ti, k), q, 30, rng))
			pc, err := sabre.PrepareCircuit(in, topo)
			if err != nil {
				t.Fatal(err)
			}
			runner := sabre.NewTrialRunner(pc)
			layouts := refineAll(t, runner, opts)
			costs := NewCostTable(cov, pc.Classes())
			metric := DepthMetric(costs)
			for level := AggressionNever; level <= AggressionAlways; level++ {
				policy := NewPolicy(costs, level)
				for tr := 0; tr < opts.LayoutTrials*opts.RoutingTrials; tr++ {
					res, err := runner.Run(layouts[tr/opts.RoutingTrials], int64(tr+1), policy)
					if err != nil {
						t.Fatal(err)
					}
					if got, want := metric(res), oracleDepth(cov, res.Routed); got != want {
						t.Fatalf("%s level %d trial %d: metric %v != oracle %v", in.Name, level, tr, got, want)
					}
					trials++
				}
			}
		}
	}
	t.Logf("%d trials equal", trials)
}

// TestDepthMetricRunClasses pins the class rule on hand-built routed
// circuits: SWAP-only runs of both parities, payload runs of both
// parities with 1Q ops interleaved, runs closed by a neighbouring
// pair, and wider ops that synchronise their wires.
func TestDepthMetricRunClasses(t *testing.T) {
	cov := siswap()
	swap := func(c *circuit.Circuit, a, b int) {
		c.Append(circuit.Op{Gate: gates.SWAP(), Qubits: []int{a, b}, RouterSwap: true})
	}
	cases := []struct {
		name  string
		build func(c *circuit.Circuit)
	}{
		{"swap-odd", func(c *circuit.Circuit) { swap(c, 0, 1) }},
		{"swap-even", func(c *circuit.Circuit) { swap(c, 0, 1); swap(c, 1, 0) }},
		{"swap-even-1q", func(c *circuit.Circuit) {
			swap(c, 0, 1)
			c.Add(gates.H(), 0)
			c.Add(gates.RZ(0.3), 1)
			swap(c, 0, 1)
		}},
		{"swap-triple-1q", func(c *circuit.Circuit) {
			swap(c, 0, 1)
			c.Add(gates.RY(0.7), 1)
			swap(c, 1, 0)
			swap(c, 0, 1)
		}},
		{"payload-odd-1q", func(c *circuit.Circuit) {
			c.Add(gates.CX(), 0, 1)
			c.Add(gates.RX(0.4), 0)
			swap(c, 0, 1)
		}},
		{"payload-even-1q", func(c *circuit.Circuit) {
			swap(c, 0, 1)
			c.Add(gates.H(), 1)
			c.Add(gates.CPhase(1.1), 1, 0)
			c.Add(gates.RZ(0.2), 0)
			swap(c, 1, 0)
		}},
		{"closed-by-neighbour", func(c *circuit.Circuit) {
			c.Add(gates.CX(), 0, 1)
			swap(c, 1, 2)
			swap(c, 0, 1)
			c.Add(gates.SqrtISwap(), 2, 3)
		}},
		{"three-qubit-sync", func(c *circuit.Circuit) {
			c.Add(gates.CX(), 0, 1)
			c.Append(circuit.Op{Gate: gates.NewCustom("i3", 3, linalg.Identity(8)), Qubits: []int{1, 2, 3}})
			c.Add(gates.CX(), 2, 3)
			swap(c, 0, 1)
		}},
	}
	for _, tc := range cases {
		c := circuit.New(tc.name, 4)
		tc.build(c)
		classes, _ := circuit.NewClasses(c)
		metric := DepthMetric(NewCostTable(cov, classes))
		got := metric(&sabre.Result{Routed: c})
		want := oracleDepth(cov, c)
		if got != want {
			t.Errorf("%s: metric %v != oracle %v", tc.name, got, want)
		}
	}
}

// panicMessage runs f and returns the string it panicked with, or ""
// when it returned.
func panicMessage(f func()) (msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg = fmt.Sprint(r)
		}
	}()
	f()
	return ""
}

// TestDepthMetricRejectsTwoPayloads: the depth pass takes routings of
// consolidated circuits only, so a hand-built routed run holding two
// payload ops, a router SWAP and a 1Q op between them panics, and the
// message names the pass that would have merged them.
func TestDepthMetricRejectsTwoPayloads(t *testing.T) {
	c := circuit.New("two-payloads", 2)
	c.Add(gates.CX(), 0, 1)
	c.Add(gates.RY(0.9), 1)
	c.Append(circuit.Op{Gate: gates.SWAP(), Qubits: []int{0, 1}, RouterSwap: true})
	c.Add(gates.CPhase(0.6), 1, 0)
	var pass circuit.BlockDepth
	msg := panicMessage(func() { pass.Depth(c, func(weyl.Coordinate) float64 { return 1 }) })
	if !strings.Contains(msg, "ConsolidateBlocks") {
		t.Fatalf("depth pass over two payloads in one run: panic %q, want one naming ConsolidateBlocks", msg)
	}
}

// TestDepthGridRejectsUnconsolidated: a MIRAGE-Depth grid over a raw
// circuit whose gates repeat a pair panics with the same message
// rather than scoring it. Trial 0 routes unbounded, and its metric
// closes the run holding both gates of the pair.
func TestDepthGridRejectsUnconsolidated(t *testing.T) {
	raw := randomMetricCircuit("raw", 6, 30, rand.New(rand.NewSource(5)))
	pc, err := sabre.PrepareCircuit(raw, topology.Grid(3, 4))
	if err != nil {
		t.Fatal(err)
	}
	costs := NewCostTable(siswap(), pc.Classes())
	opts := sabre.LayoutOptions{LayoutTrials: 2, RoutingTrials: 2, FwdBwdPasses: 1, Seed: 1, Parallelism: 1}
	msg := panicMessage(func() {
		sabre.FindBestRoutingPrepared(pc, opts.WithBound(sabre.DepthBound(costs.Slots())),
			DepthMetric(costs), PolicyFactory(costs, DefaultMix))
	})
	if !strings.Contains(msg, "ConsolidateBlocks") {
		t.Fatalf("MIRAGE-Depth grid over a raw circuit: panic %q, want one naming ConsolidateBlocks", msg)
	}
}

// maxTrialAllocs bounds the heap allocations of one warm MIRAGE-Depth
// grid trial plus its metric evaluation. The engine and the metric
// allocate nothing once warm; the slack covers the race detector,
// which makes sync.Pool drop a share of the metric's pooled passes.
const maxTrialAllocs = 2

// TestGridTrialDepthMetricAllocs pins the allocation profile of the
// MIRAGE-Depth trial loop: a warm TrialRunner.GridTrial under an
// accepting policy, scored by the depth metric, allocates a small
// constant per trial, independent of how many mirrors it accepts and how many
// blocks the metric prices. (Materialising a gate per accepted mirror,
// or a consolidated circuit per metric call, would scale with both.)
func TestGridTrialDepthMetricAllocs(t *testing.T) {
	cov := siswap()
	topo := topology.Grid(3, 4)
	opts := sabre.LayoutOptions{LayoutTrials: 1, RoutingTrials: 2, FwdBwdPasses: 1, Seed: 3, Parallelism: 1}
	prevMirrors := 0
	for _, n2q := range []int{20, 200} {
		rng := rand.New(rand.NewSource(int64(n2q)))
		raw := circuit.New(fmt.Sprintf("allocs-%d", n2q), 12)
		for raw.Count2Q() < n2q {
			a, b := rng.Intn(12), rng.Intn(12)
			if a != b {
				raw.Add(gates.CX(), a, b)
			}
		}
		pc, err := sabre.PrepareCircuit(circuit.ConsolidateBlocks(raw), topo)
		if err != nil {
			t.Fatal(err)
		}
		runner := sabre.NewTrialRunner(pc)
		layout, err := runner.RefineLayout(opts, 0)
		if err != nil {
			t.Fatal(err)
		}
		costs := NewCostTable(cov, pc.Classes())
		policy := NewPolicy(costs, AggressionEqual)
		depth := DepthMetric(costs)
		mirrors := 0
		metric := func(r *sabre.Result) float64 {
			mirrors = r.MirrorsUsed
			return depth(r)
		}
		trial := func() {
			if _, err := runner.GridTrial(layout, opts, 1, policy, metric); err != nil {
				t.Fatal(err)
			}
		}
		trial() // grow the arena, build the mirror table, fill the pass pool
		allocs := testing.AllocsPerRun(50, trial)
		if allocs > maxTrialAllocs {
			t.Errorf("%d 2Q ops, %d mirrors: %v allocations per trial, want <= %d",
				n2q, mirrors, allocs, maxTrialAllocs)
		}
		if mirrors <= prevMirrors {
			t.Fatalf("%d 2Q ops: %d mirrors accepted, want more than %d", n2q, mirrors, prevMirrors)
		}
		prevMirrors = mirrors
		t.Logf("%d 2Q ops: %d mirrors, %v allocations per trial", n2q, mirrors, allocs)
	}
}

// TestDepthMetricSharedAcrossWorkers evaluates one depth metric (one
// pool of streaming passes) and one prepared circuit (one mirror
// table) from several trial workers at once: the selected trial and
// its score must match the serial grid. Run under -race.
func TestDepthMetricSharedAcrossWorkers(t *testing.T) {
	cov := siswap()
	rng := rand.New(rand.NewSource(77))
	raw := randomMetricCircuit("shared-metric", 10, 60, rng)
	pc, err := sabre.PrepareCircuit(circuit.ConsolidateBlocks(raw), topology.Grid(3, 4))
	if err != nil {
		t.Fatal(err)
	}
	costs := NewCostTable(cov, pc.Classes())
	metric := DepthMetric(costs)
	factory := PolicyFactory(costs, DefaultMix)
	var want *sabre.Result
	for _, par := range []int{1, 4} {
		opts := sabre.LayoutOptions{LayoutTrials: 3, RoutingTrials: 4, FwdBwdPasses: 1, Seed: 9, Parallelism: par}
		res, err := sabre.FindBestRoutingPrepared(pc, opts, metric, factory)
		if err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = res
			continue
		}
		if res.SwapsInserted != want.SwapsInserted || res.MirrorsUsed != want.MirrorsUsed ||
			metric(res) != metric(want) {
			t.Fatalf("parallelism %d: swaps=%d mirrors=%d depth=%v, serial swaps=%d mirrors=%d depth=%v",
				par, res.SwapsInserted, res.MirrorsUsed, metric(res),
				want.SwapsInserted, want.MirrorsUsed, metric(want))
		}
	}
}

// refineAll returns the refined layout of every layout trial of opts.
func refineAll(t *testing.T, runner *sabre.TrialRunner, opts sabre.LayoutOptions) []*topology.Layout {
	t.Helper()
	layouts := make([]*topology.Layout, opts.LayoutTrials)
	for lt := range layouts {
		var err error
		if layouts[lt], err = runner.RefineLayout(opts, lt); err != nil {
			t.Fatal(err)
		}
	}
	return layouts
}
