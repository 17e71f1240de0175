// Package haar computes Haar scores — the Haar-average basis-gate cost
// of decomposing a random two-qubit unitary — with and without mirror
// gates and approximate decomposition (paper Section III-C, Algorithm
// 1, Tables I/II and Fig. 5).
//
// The score of a coverage set is E[cost of the cheapest region that
// implements a Haar-random target]. Mirror scoring also accepts
// regions containing the target's mirror (the mirage-SWAP case);
// approximate scoring accepts a cheaper region when the decomposition
// fidelity it can reach, multiplied by its (shorter) circuit fidelity,
// beats the exact solution's circuit fidelity — the optimisation
// problem of paper Eq. 2.
package haar

import (
	"math"
	"math/cmplx"
	"math/rand"

	"repro/internal/optimize"
	"repro/internal/polytope"
	"repro/internal/weyl"
)

// Strategy selects the Algorithm 1 variant.
type Strategy struct {
	Mirror      bool // allow mirror gates (free output permutation)
	Approximate bool // allow approximate decomposition
}

// Result summarises a Monte-Carlo Haar-score run.
type Result struct {
	Score       float64   // Haar-average cost (iSWAP units)
	AvgFidelity float64   // Haar-average total fidelity
	Series      []float64 // running mean of the score (Fig. 5 convergence)
}

// Options tunes the Monte-Carlo run.
type Options struct {
	Samples int   // number of Haar targets (default 1000, as in Fig. 5)
	Seed    int64 // RNG seed (default 1)
}

func (o Options) withDefaults() Options {
	if o.Samples <= 0 {
		o.Samples = 1000
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// Score runs Algorithm 1 for the coverage set and strategy.
func Score(cov *polytope.CoverageSet, strat Strategy, opts Options) Result {
	opts = opts.withDefaults()
	rng := rand.New(rand.NewSource(opts.Seed))

	var totalCost, totalFid float64
	series := make([]float64, 0, opts.Samples)
	for i := 0; i < opts.Samples; i++ {
		target := weyl.HaarSample(rng)
		cost, fid := sampleCost(cov, target, strat, rng)
		totalCost += cost
		totalFid += fid
		series = append(series, totalCost/float64(i+1))
	}
	n := float64(opts.Samples)
	return Result{
		Score:       totalCost / n,
		AvgFidelity: totalFid / n,
		Series:      series,
	}
}

// circuitFidelity is the decoherence-limited fidelity of paper Eq. 2:
// a gate, or a sequence of basis gates, of total duration t has
// fidelity exp(-t / T1). Durations are normalised so that one iSWAP
// costs 1.0 (and iSWAP^{1/n} costs 1/n); 1Q gates are free, matching
// the paper. T1 is calibrated so that one iSWAP has fidelity 0.99
// (paper Section III-C).
func circuitFidelity(t float64) float64 {
	t1 := -1 / math.Log(0.99)
	return math.Exp(-t / t1)
}

// sampleCost evaluates one Haar target: the exact minimum-cost region,
// then (optionally) cheaper regions reachable within the fidelity
// threshold (Algorithm 1 lines 10-16).
func sampleCost(cov *polytope.CoverageSet, target weyl.Coordinate, strat Strategy,
	rng *rand.Rand) (cost, fidelity float64) {

	exact, ok := cov.MinCost(target, strat.Mirror)
	if !ok {
		exact = cov.Regions[len(cov.Regions)-1]
	}
	bestCost := exact.Cost
	bestFid := circuitFidelity(exact.Cost) // exact decomposition: decomp fidelity 1

	if strat.Approximate {
		mirrorTarget := weyl.Mirror(target)
		for _, r := range cov.Regions {
			if r.Cost >= bestCost {
				break // regions are cost-ordered
			}
			f := BestFidelityInRegion(target, r.Region, rng)
			if strat.Mirror {
				if fm := BestFidelityInRegion(mirrorTarget, r.Region, rng); fm > f {
					f = fm
				}
			}
			total := f * circuitFidelity(r.Cost)
			if total > bestFid {
				bestFid = total
				bestCost = r.Cost
				// Regions are cost-ordered, so the first acceptance is
				// the cheapest; keep scanning in case an even cheaper
				// region was skipped (they are visited cheapest-first,
				// so we can stop here).
				break
			}
		}
	}
	return bestCost, bestFid
}

// BestFidelityInRegion maximises the average gate fidelity between the
// target coordinate and any point of the region (the Optimize() call
// of Algorithm 1). The paper fits a full numerical ansatz; we optimise
// directly in coordinate space using the analytic canonical-gate
// overlap, which the decompose tests validate against ansatz fitting.
func BestFidelityInRegion(target weyl.Coordinate, region *polytope.Convex, rng *rand.Rand) float64 {
	if region.Contains(target, 1e-9) {
		return 1.0
	}
	obj := func(p []float64) float64 {
		c := weyl.Coordinate{X: p[0], Y: p[1], Z: p[2]}
		pen := region.Violation(c)
		return -(CanonicalFidelity(target, c)) + 100*pen*pen + pen
	}
	x0 := []float64{target.X, target.Y, target.Z}
	best, negF := optimize.Minimize(obj, 3, x0, 3, math.Pi/4, rng,
		optimize.Options{MaxIter: 400, InitialStep: 0.1})
	c := weyl.Coordinate{X: best[0], Y: best[1], Z: best[2]}
	if region.Violation(c) > 1e-6 {
		// The optimiser ended outside; clamp by re-evaluating the pure
		// fidelity at the nearest inside retry or give up with a lower
		// bound of 0.
		return 0
	}
	_ = negF
	return CanonicalFidelity(target, c)
}

// CanonicalFidelity returns the average gate fidelity between CAN(a)
// and CAN(b): Favg = (d*Fpro + 1)/(d+1) with
// Fpro = |Tr(CAN(a)^dagger CAN(b))|^2 / 16, evaluated analytically in
// the magic basis.
func CanonicalFidelity(a, b weyl.Coordinate) float64 {
	ta := [4]float64{a.X - a.Y + a.Z, a.X + a.Y - a.Z, -a.X - a.Y - a.Z, -a.X + a.Y + a.Z}
	tb := [4]float64{b.X - b.Y + b.Z, b.X + b.Y - b.Z, -b.X - b.Y - b.Z, -b.X + b.Y + b.Z}
	var tr complex128
	for k := 0; k < 4; k++ {
		tr += cmplx.Exp(complex(0, tb[k]-ta[k]))
	}
	fpro := real(tr)*real(tr) + imag(tr)*imag(tr)
	fpro /= 16
	return (4*fpro + 1) / 5
}

// ReferenceScore computes the "polytope integration" value the
// Monte-Carlo series should converge to (the dotted lines in Fig. 5):
// the exact expected cost from the coverage probabilities, estimated
// with a large independent sample.
func ReferenceScore(cov *polytope.CoverageSet, mirror bool, samples int, seed int64) float64 {
	if samples <= 0 {
		samples = 4000
	}
	rng := rand.New(rand.NewSource(seed + 777))
	var total float64
	for i := 0; i < samples; i++ {
		c := weyl.HaarSample(rng)
		r, ok := cov.MinCost(c, mirror)
		if !ok {
			r = cov.Regions[len(cov.Regions)-1]
		}
		total += r.Cost
	}
	return total / float64(samples)
}

// TableRow is one line of paper Tables I/II.
type TableRow struct {
	Basis      string
	Haar       float64
	Fidelity   float64
	MirrorHaar float64
	MirrorFid  float64
}

// Table computes Tables I (approximate = false) and II
// (approximate = true) for the given iSWAP roots.
func Table(roots []int, approximate bool, opts Options) []TableRow {
	var rows []TableRow
	for _, n := range roots {
		cov := polytope.NewISwapRootCoverage(n)
		std := Score(cov, Strategy{Mirror: false, Approximate: approximate}, opts)
		mir := Score(cov, Strategy{Mirror: true, Approximate: approximate}, opts)
		rows = append(rows, TableRow{
			Basis:      cov.Name,
			Haar:       std.Score,
			Fidelity:   std.AvgFidelity,
			MirrorHaar: mir.Score,
			MirrorFid:  mir.AvgFidelity,
		})
	}
	return rows
}
