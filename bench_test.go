// Benchmarks regenerating every table and figure of the paper's
// evaluation at smoke scale. Each benchmark reports its headline
// numbers via b.ReportMetric so `go test -bench=. -benchmem` prints
// the reproduced results; the cmd/ tools run the same experiments at
// full scale (see EXPERIMENTS.md for paper-vs-measured values).
package mirage

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/bench"
	"repro/internal/circuit"
	"repro/internal/gates"
	"repro/internal/haar"
	"repro/internal/linalg"
	mirpkg "repro/internal/mirage"
	"repro/internal/polytope"
	"repro/internal/sabre"
	"repro/internal/topology"
	"repro/internal/transpile"
	"repro/internal/weyl"
)

func quickLayout(seed int64) sabre.LayoutOptions {
	return sabre.LayoutOptions{LayoutTrials: 3, RoutingTrials: 4, FwdBwdPasses: 2, Seed: seed}
}

// BenchmarkFig3Coverage reproduces the Fig. 3 coverage volumes: the
// k=2 polytopes of CNOT (0% volume) and sqrt-iSWAP (79.0% standard,
// 94.4% with mirrors).
func BenchmarkFig3Coverage(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rng := rand.New(rand.NewSource(3))
		const n = 1500
		cnot := polytope.HaarVolume(polytope.CNOTk2(), n, rng)
		std := polytope.HaarVolume(polytope.SqrtISwapK2(), n, rng)
		mir := polytope.HaarVolumeMirror(polytope.SqrtISwapK2(), n, rng)
		b.ReportMetric(cnot*100, "cnot_k2_vol_%")
		b.ReportMetric(std*100, "siswap_k2_vol_%")
		b.ReportMetric(mir*100, "siswap_k2_mirror_vol_%")
	}
}

// BenchmarkFig4Coverage reproduces the Fig. 4 coverage volumes for the
// 3rd and 4th roots of iSWAP at k=2, standard vs mirror-inclusive.
func BenchmarkFig4Coverage(b *testing.B) {
	regionK := func(cov *polytope.CoverageSet, k int) *polytope.Convex {
		for _, r := range cov.Regions {
			if r.K == k {
				return r.Region
			}
		}
		b.Fatalf("no k=%d region", k)
		return nil
	}
	r3 := regionK(polytope.NewISwapRootCoverage(3), 2)
	r4 := regionK(polytope.NewISwapRootCoverage(4), 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rng := rand.New(rand.NewSource(4))
		const n = 800
		v3 := polytope.HaarVolume(r3, n, rng)
		v3m := polytope.HaarVolumeMirror(r3, n, rng)
		v4 := polytope.HaarVolume(r4, n, rng)
		v4m := polytope.HaarVolumeMirror(r4, n, rng)
		b.ReportMetric(v3*100, "r3_k2_vol_%")
		b.ReportMetric(v3m*100, "r3_k2_mirror_vol_%")
		b.ReportMetric(v4*100, "r4_k2_vol_%")
		b.ReportMetric(v4m*100, "r4_k2_mirror_vol_%")
	}
}

// BenchmarkTableIHaarScores reproduces Table I: exact Haar scores and
// fidelities for sqrt/3rd/4th-root iSWAP, with and without mirrors.
func BenchmarkTableIHaarScores(b *testing.B) {
	cov := polytope.NewISwapRootCoverage(2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opts := haar.Options{Samples: 600, Seed: 5}
		std := haar.Score(cov, haar.Strategy{}, opts)
		mir := haar.Score(cov, haar.Strategy{Mirror: true}, opts)
		b.ReportMetric(std.Score, "haar_siswap")
		b.ReportMetric(std.AvgFidelity, "fid_siswap")
		b.ReportMetric(mir.Score, "haar_siswap_mirror")
		b.ReportMetric(mir.AvgFidelity, "fid_siswap_mirror")
	}
}

// BenchmarkTableIIApproxHaarScores reproduces Table II: Haar scores
// with approximate decomposition enabled.
func BenchmarkTableIIApproxHaarScores(b *testing.B) {
	cov := polytope.NewISwapRootCoverage(2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opts := haar.Options{Samples: 250, Seed: 6}
		std := haar.Score(cov, haar.Strategy{Approximate: true}, opts)
		mir := haar.Score(cov, haar.Strategy{Approximate: true, Mirror: true}, opts)
		b.ReportMetric(std.Score, "haar_siswap_approx")
		b.ReportMetric(mir.Score, "haar_siswap_approx_mirror")
		b.ReportMetric(mir.AvgFidelity, "fid_siswap_approx_mirror")
	}
}

// BenchmarkFig5Convergence reproduces the Fig. 5 Monte-Carlo
// convergence study for the 4th root of iSWAP: the exact and mirror
// series must approach their polytope-integration references.
func BenchmarkFig5Convergence(b *testing.B) {
	cov := polytope.NewISwapRootCoverage(4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opts := haar.Options{Samples: 300, Seed: 7}
		exact := haar.Score(cov, haar.Strategy{}, opts)
		mirror := haar.Score(cov, haar.Strategy{Mirror: true}, opts)
		ref := haar.ReferenceScore(cov, false, 1200, 7)
		refM := haar.ReferenceScore(cov, true, 1200, 7)
		b.ReportMetric(exact.Series[len(exact.Series)-1], "series_exact_end")
		b.ReportMetric(ref, "reference_exact")
		b.ReportMetric(mirror.Series[len(mirror.Series)-1], "series_mirror_end")
		b.ReportMetric(refM, "reference_mirror")
	}
}

// BenchmarkFig6CphaseMirror reproduces the Fig. 6 study: every CPHASE
// gate lies inside the sqrt-iSWAP k=2 region while its pSWAP mirror
// does not (until k=3).
func BenchmarkFig6CphaseMirror(b *testing.B) {
	region := polytope.SqrtISwapK2()
	for i := 0; i < b.N; i++ {
		inCount, mirrorIn := 0, 0
		const steps = 40
		for s := 1; s <= steps; s++ {
			theta := 3.14159 * float64(s) / float64(steps)
			c := weyl.Coordinate{X: theta / 4, Y: 0, Z: 0} // CPhase(theta)
			if region.Contains(c, 1e-9) {
				inCount++
			}
			if region.Contains(weyl.Mirror(c), 1e-9) {
				mirrorIn++
			}
		}
		b.ReportMetric(float64(inCount), "cphase_in_k2")
		b.ReportMetric(float64(mirrorIn), "pswap_in_k2")
	}
}

// BenchmarkFig8TwoLocal reproduces Fig. 8: the TwoLocal(full, 4q)
// ansatz on a 4-qubit line — Qiskit-style SABRE vs MIRAGE pulse depth.
func BenchmarkFig8TwoLocal(b *testing.B) {
	topo := topology.Line(4)
	for i := 0; i < b.N; i++ {
		c := bench.TwoLocal(4)
		sr, err := transpile.Transpile(c, topo, transpile.Options{
			Router: transpile.SABRE, Layout: quickLayout(8),
		})
		if err != nil {
			b.Fatal(err)
		}
		mr, err := transpile.Transpile(c, topo, transpile.Options{
			Router: transpile.MIRAGE, DepthSelection: true, Layout: quickLayout(8),
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(sr.DepthPulses, "sabre_pulses")
		b.ReportMetric(mr.DepthPulses, "mirage_pulses")
		b.ReportMetric(float64(sr.SwapsInserted), "sabre_swaps")
		b.ReportMetric(float64(mr.SwapsInserted), "mirage_swaps")
	}
}

// BenchmarkFig9Trials reproduces the Fig. 9 local-minima study:
// independent routing trials of the same 4-qubit sub-circuit land in
// different minima; the trial spread is the reported metric.
func BenchmarkFig9Trials(b *testing.B) {
	topo := topology.Line(4)
	cov := polytope.NewISwapRootCoverage(2)
	w := mirpkg.GateWeight(cov)
	for i := 0; i < b.N; i++ {
		c := circuit.New("fig9", 4)
		// The Fig. 9 sub-circuit: a reordered slice of TwoLocal.
		c.Add(gates.CX(), 0, 1)
		c.Add(gates.CX(), 2, 3)
		c.Add(gates.CX(), 0, 2)
		c.Add(gates.CX(), 1, 3)
		c.Add(gates.CX(), 0, 3)
		pc, err := sabre.PrepareCircuit(c, topo)
		if err != nil {
			b.Fatal(err)
		}
		runner := sabre.NewTrialRunner(pc)
		minD, maxD := 1e18, 0.0
		for trial := 0; trial < 8; trial++ {
			policy := mirpkg.NewPolicy(mirpkg.NewCostTable(cov, pc.Classes()), mirpkg.AggressionEqual)
			res, err := runner.Run(topology.TrivialLayout(4, 4), sabre.Options{}, int64(trial+1), policy)
			if err != nil {
				b.Fatal(err)
			}
			d := res.Routed.Depth(w)
			if d < minD {
				minD = d
			}
			if d > maxD {
				maxD = d
			}
		}
		b.ReportMetric(minD*2, "best_pulses")
		b.ReportMetric(maxD*2, "worst_pulses")
	}
}

// BenchmarkFig10Aggression reproduces the Fig. 10 aggression study on
// scaled-down versions of its four circuits: per-level average depth.
func BenchmarkFig10Aggression(b *testing.B) {
	topo := topology.Grid(4, 4)
	circs := []*circuit.Circuit{
		bench.WState(12), bench.BigAdder(10), bench.QFT(10), bench.BernsteinVazirani(14, 9),
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for lvl := 0; lvl <= 3; lvl++ {
			a := mirpkg.Aggression(lvl)
			var total float64
			for _, c := range circs {
				rep, err := transpile.Transpile(c, topo, transpile.Options{
					Router: transpile.MIRAGE, DepthSelection: true,
					FixedAggression: &a, Layout: quickLayout(10),
					SkipTrivialLayout: true,
				})
				if err != nil {
					b.Fatal(err)
				}
				total += rep.DepthPulses
			}
			b.ReportMetric(total/float64(len(circs)), fmt.Sprintf("avg_pulses_a%d", lvl))
		}
	}
}

// BenchmarkFig11PostSelection reproduces the Fig. 11 comparison:
// Qiskit-SABRE vs MIRAGE-Swaps vs MIRAGE-Depth average depth (the
// paper reports -24.1% and a further -7.5%).
func BenchmarkFig11PostSelection(b *testing.B) {
	topo := topology.SquareLattice66()
	circs := []*circuit.Circuit{bench.WState(16), bench.QFT(10), bench.TwoLocal(8)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var dq, ds, dd float64
		for _, c := range circs {
			q, err := transpile.Transpile(c, topo, transpile.Options{
				Router: transpile.SABRE, Layout: quickLayout(11), SkipTrivialLayout: true,
			})
			if err != nil {
				b.Fatal(err)
			}
			s, err := transpile.Transpile(c, topo, transpile.Options{
				Router: transpile.MIRAGE, Layout: quickLayout(11), SkipTrivialLayout: true,
			})
			if err != nil {
				b.Fatal(err)
			}
			d, err := transpile.Transpile(c, topo, transpile.Options{
				Router: transpile.MIRAGE, DepthSelection: true, Layout: quickLayout(11),
				SkipTrivialLayout: true,
			})
			if err != nil {
				b.Fatal(err)
			}
			dq += q.DepthPulses
			ds += s.DepthPulses
			dd += d.DepthPulses
		}
		b.ReportMetric(dq, "qiskit_pulses")
		b.ReportMetric(ds, "mirage_swaps_pulses")
		b.ReportMetric(dd, "mirage_depth_pulses")
		b.ReportMetric(100*(dq-dd)/dq, "depth_reduction_%")
	}
}

// BenchmarkFig12HeavyHex reproduces the Fig. 12a/b heavy-hex study at
// smoke scale: depth and total 2Q gate reductions of MIRAGE vs SABRE.
func BenchmarkFig12HeavyHex(b *testing.B) {
	benchmarkFig12(b, topology.HeavyHex57())
}

// BenchmarkFig12SquareLattice reproduces Fig. 12c/d on the 6x6 square
// lattice.
func BenchmarkFig12SquareLattice(b *testing.B) {
	benchmarkFig12(b, topology.SquareLattice66())
}

func benchmarkFig12(b *testing.B, topo *topology.Topology) {
	circs := []*circuit.Circuit{bench.WState(16), bench.QEC9XZ(17), bench.QFT(10)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var depthS, depthM, gatesS, gatesM, swapsS, swapsM float64
		for _, c := range circs {
			s, err := transpile.Transpile(c, topo, transpile.Options{
				Router: transpile.SABRE, Layout: quickLayout(12), SkipTrivialLayout: true,
			})
			if err != nil {
				b.Fatal(err)
			}
			m, err := transpile.Transpile(c, topo, transpile.Options{
				Router: transpile.MIRAGE, DepthSelection: true, Layout: quickLayout(12),
				SkipTrivialLayout: true,
			})
			if err != nil {
				b.Fatal(err)
			}
			depthS += s.DepthPulses
			depthM += m.DepthPulses
			gatesS += s.TotalBasisGates
			gatesM += m.TotalBasisGates
			swapsS += float64(s.SwapsInserted)
			swapsM += float64(m.SwapsInserted)
		}
		b.ReportMetric(100*(depthS-depthM)/depthS, "depth_reduction_%")
		b.ReportMetric(100*(gatesS-gatesM)/gatesS, "gate_reduction_%")
		if swapsS > 0 {
			b.ReportMetric(100*(swapsS-swapsM)/swapsS, "swap_reduction_%")
		}
	}
}

// BenchmarkFig13Runtime reproduces the Fig. 13b runtime scaling and
// the caching ablation: QFT transpilation wall time with a cold vs
// warm coordinate cache.
func BenchmarkFig13Runtime(b *testing.B) {
	topo := topology.SquareLattice66()
	c := bench.QFT(16)
	for i := 0; i < b.N; i++ {
		circuit.ResetCoordinateCache()
		if _, err := transpile.Transpile(c, topo, transpile.Options{
			Router: transpile.MIRAGE, DepthSelection: true,
			Layout:            sabre.LayoutOptions{LayoutTrials: 2, RoutingTrials: 2, FwdBwdPasses: 1, Seed: 13},
			SkipTrivialLayout: true,
		}); err != nil {
			b.Fatal(err)
		}
		hits, misses := circuit.CoordinateCacheStats()
		if hits+misses > 0 {
			b.ReportMetric(100*float64(hits)/float64(hits+misses), "coord_cache_hit_%")
		}
	}
}

// BenchmarkTableIIIGenerators regenerates the Table III inventory and
// reports the aggregate 2Q gate count as a checksum.
func BenchmarkTableIIIGenerators(b *testing.B) {
	for i := 0; i < b.N; i++ {
		total := 0
		for _, e := range bench.Suite() {
			total += e.Build().Count2Q()
		}
		b.ReportMetric(float64(total), "suite_2q_gates")
	}
}

// BenchmarkRoutingSerialVsParallel compares the trial engine at one
// worker vs one-per-CPU on the Fig. 12 circuit set (smoke scale). The
// routed results are seed-deterministic and identical in both modes;
// only the wall time differs. cmd/benchsuite writes the same
// comparison at full scale into BENCH_routing.json.
func BenchmarkRoutingSerialVsParallel(b *testing.B) {
	topo := topology.SquareLattice66()
	circs := []*circuit.Circuit{bench.WState(16), bench.QEC9XZ(17), bench.QFT(10)}
	for _, mode := range []struct {
		name string
		par  int
	}{
		{"serial", 1},
		{fmt.Sprintf("parallel_%d", runtime.GOMAXPROCS(0)), 0},
	} {
		b.Run(mode.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				var swaps, mirrors float64
				for _, c := range circs {
					rep, err := transpile.Transpile(c, topo, transpile.Options{
						Router: transpile.MIRAGE, DepthSelection: true,
						Layout:            quickLayout(12),
						Parallelism:       mode.par,
						SkipTrivialLayout: true,
					})
					if err != nil {
						b.Fatal(err)
					}
					swaps += float64(rep.SwapsInserted)
					mirrors += float64(rep.MirrorsUsed)
				}
				b.ReportMetric(swaps, "swaps")
				b.ReportMetric(mirrors, "mirrors")
			}
		})
	}
}

// BenchmarkTranspileBatch measures the batch entrypoint: many circuits,
// their layout rows on one work queue.
func BenchmarkTranspileBatch(b *testing.B) {
	topo := topology.SquareLattice66()
	circs := []*circuit.Circuit{
		bench.WState(16), bench.QEC9XZ(17), bench.QFT(10), bench.GHZ(12),
	}
	for i := 0; i < b.N; i++ {
		reps, err := transpile.TranspileBatch(circs, topo, transpile.Options{
			Router: transpile.MIRAGE, DepthSelection: true,
			Layout:            quickLayout(12),
			SkipTrivialLayout: true,
		})
		if err != nil {
			b.Fatal(err)
		}
		if len(reps) != len(circs) {
			b.Fatal("missing reports")
		}
	}
}

// BenchmarkCoordinateOf measures the core Weyl-coordinate kernel that
// dominates MIRAGE's cost model (the target of the Fig. 13a caching).
// CoordinateOf now serves from the closed-form Mat4 kernel; the
// Fast/Reference pair below isolates the two paths on fixed inputs.
func BenchmarkCoordinateOf(b *testing.B) {
	rng := rand.New(rand.NewSource(14))
	var sink weyl.Coordinate
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u := linalg.RandSU(4, rng)
		c, err := weyl.CoordinateOf(u)
		if err != nil {
			b.Fatal(err)
		}
		sink = c
	}
	_ = sink
}

// BenchmarkCoordinateKernels compares the closed-form fixed-size path
// against the Jacobi reference on identical inputs (run with -benchmem
// to see the allocation contrast: 0 vs ~54 allocs/op).
func BenchmarkCoordinateKernels(b *testing.B) {
	rng := rand.New(rand.NewSource(14))
	us := make([]*linalg.Matrix, 64)
	for i := range us {
		us[i] = linalg.RandSU(4, rng)
	}
	for _, mode := range []struct {
		name string
		f    func(*linalg.Matrix) (weyl.Coordinate, error)
	}{
		{"fast", weyl.CoordinateOfFast},
		{"reference", weyl.CoordinateOfReference},
	} {
		b.Run(mode.name, func(b *testing.B) {
			b.ReportAllocs()
			var sink weyl.Coordinate
			for i := 0; i < b.N; i++ {
				c, err := mode.f(us[i%len(us)])
				if err != nil {
					b.Fatal(err)
				}
				sink = c
			}
			_ = sink
		})
	}
}
