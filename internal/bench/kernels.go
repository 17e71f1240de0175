package bench

// The numeric-kernel and routing -benchmem lane: ns/op and allocs/op
// for the hot kernels of the decomposition substrate — Weyl-coordinate
// extraction (fast and reference) and warm-cache block consolidation —
// for the routing trial engine (steady-state arena trials via
// sabre.TrialRunner, layout refinement, and a full
// FindBestRoutingPrepared grid) and for the MIRAGE-Depth trial metric,
// recorded into BENCH_routing.json next to the routing rows and
// diffed by cmd/benchdiff, so an allocation regression on either hot
// path fails CI as visibly as a depth regression would. Alloc counts are deterministic for deterministic
// code (the routing rows run the serial scheduler for exactly that
// reason); wall times are context for the reader.

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/circuit"
	"repro/internal/dispatch"
	"repro/internal/gates"
	"repro/internal/linalg"
	"repro/internal/mirage"
	"repro/internal/polytope"
	"repro/internal/sabre"
	"repro/internal/topology"
	"repro/internal/weyl"
)

// routingFixture builds the deterministic (topology, circuit, layout)
// triple shared by the routing benchmark rows: a 4x4 grid with a
// 2Q-heavy random circuit, the regime where trial throughput is the
// binding cost.
func routingFixture() (*topology.Topology, *circuit.Circuit, *topology.Layout) {
	topo := topology.Grid(4, 4)
	rng := rand.New(rand.NewSource(41))
	c := circuit.New("bench-routing", 16)
	for g := 0; g < 60; g++ {
		a, b := rng.Intn(16), rng.Intn(16)
		if a == b {
			continue
		}
		c.Add(gates.CX(), a, b)
	}
	layout := topology.TrivialLayout(16, 16)
	return topo, c, layout
}

// DepthMetricFixture returns the input of the mirage/DepthMetric row:
// QFT(12), consolidated into blocks as the transpiler prepares them,
// routed once on a 3x4 grid from the trivial layout under the MIRAGE
// policy at aggression 2 (so the routed circuit carries mirrors as
// well as router SWAPs), plus the class list of the prepared blocks it
// was routed from and the sqrt-iSWAP coverage set the metric prices it
// with — the input of the mirage/CostTable row.
func DepthMetricFixture() (res *sabre.Result, classes *circuit.Classes, cov *polytope.CoverageSet, err error) {
	cov = polytope.NewISwapRootCoverage(2)
	pc, err := sabre.PrepareCircuit(circuit.ConsolidateBlocks(QFT(12)), topology.Grid(3, 4))
	if err != nil {
		return nil, nil, nil, err
	}
	classes = pc.Classes()
	policy := mirage.NewPolicy(mirage.NewCostTable(cov, classes), mirage.AggressionEqual)
	res, err = sabre.NewTrialRunner(pc).Run(topology.TrivialLayout(12, 12), 7, policy)
	return res, classes, cov, err
}

// minCostRow times CoverageSet.MinCost on Haar-random coordinates under
// the iSWAP^(1/root) basis.
func minCostRow(root int) func(b *testing.B) error {
	return func(b *testing.B) error {
		cov := polytope.NewISwapRootCoverage(root)
		rng := rand.New(rand.NewSource(273))
		coords := make([]weyl.Coordinate, 1024)
		for i := range coords {
			coords[i] = weyl.HaarSample(rng)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r, _ := cov.MinCost(coords[i%len(coords)], false)
			depthMetricSink = r.Cost
		}
		return nil
	}
}

// depthMetricSink keeps the polytope and mirage rows' results live.
var depthMetricSink float64

// KernelRow is one numeric-kernel measurement.
type KernelRow struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
}

// RunKernelBenchmarks measures the kernel suite with the standard
// testing.Benchmark harness (self-calibrating iteration counts,
// -benchmem style allocation tracking). Kernel errors are returned,
// never reported through b.Fatal: testing.Benchmark runs here inside
// a plain binary with no test context, where b.Fatal crashes with a
// nil-pointer panic instead of a diagnosable message.
func RunKernelBenchmarks() ([]KernelRow, error) {
	rng := rand.New(rand.NewSource(271))
	targets := make([]*linalg.Matrix, 32)
	for i := range targets {
		targets[i] = linalg.RandSU(4, rng)
	}

	consolidateInput := QFT(12)

	specs := []struct {
		name string
		fn   func(b *testing.B) error
	}{
		{"weyl/CoordinateOfFast", func(b *testing.B) error {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := weyl.CoordinateOfFast(targets[i%len(targets)]); err != nil {
					return err
				}
			}
			return nil
		}},
		{"weyl/CoordinateOfReference", func(b *testing.B) error {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := weyl.CoordinateOfReference(targets[i%len(targets)]); err != nil {
					return err
				}
			}
			return nil
		}},
		{"circuit/ConsolidateBlocks", func(b *testing.B) error {
			circuit.ResetCoordinateCache()
			circuit.ConsolidateBlocks(consolidateInput) // warm the coordinate cache
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				circuit.ConsolidateBlocks(consolidateInput)
			}
			return nil
		}},
		// A direct coverage lookup, the price of a cost-table miss: the
		// closed-form sqrt-iSWAP regions and the empirical root-4 ones.
		{"polytope/MinCost@root2", minCostRow(2)},
		{"polytope/MinCost@root4", minCostRow(4)},
		// The per-call cost table of a routed MIRAGE run: the prices of
		// the class list of the routed blocks.
		{"mirage/CostTable", func(b *testing.B) error {
			_, classes, cov, err := DepthMetricFixture()
			if err != nil {
				return err
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				depthMetricSink = float64(mirage.NewCostTable(cov, classes).Len())
			}
			return nil
		}},
		// The per-trial score of a MIRAGE-Depth grid, priced by slot
		// through the cost table; allocs/op must stay 0.
		{"mirage/DepthMetric", func(b *testing.B) error {
			res, classes, cov, err := DepthMetricFixture()
			if err != nil {
				return err
			}
			metric := mirage.DepthMetric(mirage.NewCostTable(cov, classes))
			metric(res)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				depthMetricSink = metric(res)
			}
			return nil
		}},
		// One trial on a warm arena at a fixed seed: the pure
		// execute/stall-loop latency a trial grid pays per trial.
		// allocs/op must stay 0.
		{"sabre/RouteSingleWarm", func(b *testing.B) error {
			topo, c, layout := routingFixture()
			pc, err := sabre.PrepareCircuit(c, topo)
			if err != nil {
				return err
			}
			runner := sabre.NewTrialRunner(pc)
			if _, err := runner.Run(layout, 7, nil); err != nil {
				return err
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := runner.Run(layout, 7, nil); err != nil {
					return err
				}
			}
			return nil
		}},
		{"sabre/RouteArena", func(b *testing.B) error {
			topo, c, layout := routingFixture()
			pc, err := sabre.PrepareCircuit(c, topo)
			if err != nil {
				return err
			}
			runner := sabre.NewTrialRunner(pc)
			// One warmup trial grows the arena to its high-water mark so
			// the timed loop measures the steady state.
			if _, err := runner.Run(layout, 1, nil); err != nil {
				return err
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := runner.Run(layout, int64(i%16)+1, nil); err != nil {
					return err
				}
			}
			return nil
		}},
		// One layout row's refinement on a warm arena: a random layout
		// refined by four forward/backward routing rounds, cycling through
		// the rows of a 20-row grid. Refinement routes more than half of
		// a MIRAGE grid's stalls, and no policy or metric runs in it.
		{"sabre/RefineLayout", func(b *testing.B) error {
			topo, c, _ := routingFixture()
			pc, err := sabre.PrepareCircuit(c, topo)
			if err != nil {
				return err
			}
			runner := sabre.NewTrialRunner(pc)
			opts := sabre.LayoutOptions{Seed: 3}.WithDefaults()
			if _, err := runner.RefineLayout(opts, 0); err != nil {
				return err
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := runner.RefineLayout(opts, i%opts.LayoutTrials); err != nil {
					return err
				}
			}
			return nil
		}},
		// The @queue suffix marks the dispatch-queue scheduler era: the
		// row was renamed when the routing grid moved onto the work-queue
		// subsystem, so benchdiff never compares scheduler generations
		// against each other. The row keeps its name now that one queue
		// item is one layout row (refine, then route its trials).
		// Preparing the circuit stays inside the timed loop, so the row
		// times one whole prepare-and-route call.
		{"sabre/FindBestRouting@queue", func(b *testing.B) error {
			topo, c, _ := routingFixture()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// Serial scheduler: the parallel path's channel/goroutine
				// bookkeeping would make allocs/op scheduling-dependent,
				// and the gate needs a deterministic count.
				pc, err := sabre.PrepareCircuit(c, topo)
				if err != nil {
					return err
				}
				if _, err := sabre.FindBestRoutingPrepared(pc, sabre.LayoutOptions{
					LayoutTrials: 4, RoutingTrials: 4, FwdBwdPasses: 2, Seed: 3,
					Parallelism: 1,
				}, sabre.SwapCountMetric, nil); err != nil {
					return err
				}
			}
			return nil
		}},
		{"dispatch/QueueStream", func(b *testing.B) error {
			// Scheduler overhead floor: lease/complete/consume cycles on
			// trivial work items, serial transport. Deterministic allocs.
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				q := dispatch.NewQueue(256, 1, func(int, int) bool { return false })
				err := dispatch.RunLocal(q, 1,
					func(int) struct{} { return struct{}{} },
					func(t int, _ struct{}) (int, error) { return t, nil })
				if err != nil {
					return err
				}
			}
			return nil
		}},
	}

	rows := make([]KernelRow, 0, len(specs))
	for _, s := range specs {
		var runErr error
		r := testing.Benchmark(func(b *testing.B) {
			if err := s.fn(b); err != nil && runErr == nil {
				runErr = err
			}
		})
		if runErr != nil {
			return nil, fmt.Errorf("kernel %s: %w", s.name, runErr)
		}
		rows = append(rows, KernelRow{
			Name:        s.name,
			NsPerOp:     float64(r.NsPerOp()),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
		})
	}
	return rows, nil
}
