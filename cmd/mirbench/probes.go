package main

import (
	"math/rand"
	"time"

	"repro/internal/circuit"
	"repro/internal/linalg"
	"repro/internal/polytope"
	"repro/internal/weyl"
)

// Kernel probes time the numeric kernels under the mirror decision and
// the depth metric, each over a fixed iteration count on inputs drawn
// from the run's seed.
const (
	minCostIters      = 200000
	coordinateIters   = 20000
	consolidateRounds = 3
)

// probeSink keeps the probed results live so the calls are not
// optimised away.
var probeSink float64

// probeMinCost is the mean time of the workload's CoverageSet.MinCost on
// Haar-random Weyl coordinates, in ns.
func probeMinCost(cs *polytope.CoverageSet, seed int64) float64 {
	rng := rand.New(rand.NewSource(seed))
	coords := make([]weyl.Coordinate, 1024)
	for i := range coords {
		coords[i] = weyl.HaarSample(rng)
	}
	start := time.Now()
	for i := 0; i < minCostIters; i++ {
		r, _ := cs.MinCost(coords[i%len(coords)], false)
		probeSink += r.Cost
	}
	return float64(time.Since(start).Nanoseconds()) / minCostIters
}

// probeCoordinate is the mean time of weyl.CoordinateOfMat4 on
// Haar-random SU(4) matrices, in ns.
func probeCoordinate(seed int64) float64 {
	rng := rand.New(rand.NewSource(seed))
	ms := make([]linalg.Mat4, 256)
	for i := range ms {
		ms[i] = linalg.RandSU4(rng)
	}
	start := time.Now()
	for i := 0; i < coordinateIters; i++ {
		c, _ := weyl.CoordinateOfMat4(ms[i%len(ms)])
		probeSink += c.X
	}
	return float64(time.Since(start).Nanoseconds()) / coordinateIters
}

// probeConsolidate is the time circuit.ConsolidateBlocks takes per
// input op over the given routed circuits, in ns.
func probeConsolidate(circs []*circuit.Circuit) float64 {
	ops := 0
	for _, c := range circs {
		ops += len(c.Ops)
	}
	start := time.Now()
	for r := 0; r < consolidateRounds; r++ {
		for _, c := range circs {
			probeSink += float64(len(circuit.ConsolidateBlocks(c).Ops))
		}
	}
	return ratio(float64(time.Since(start).Nanoseconds()), float64(consolidateRounds*ops))
}
