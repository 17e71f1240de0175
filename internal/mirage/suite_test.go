package mirage_test

import (
	"math/rand"
	"testing"

	"repro/internal/bench"
	"repro/internal/circuit"
	"repro/internal/mirage"
	"repro/internal/polytope"
	"repro/internal/sabre"
	"repro/internal/topology"
)

// parityCheck wraps the real policy: on every decision the router
// offers, it asks the policy twice — once with the prepared mirror
// coordinate, once with the field cleared so Decide computes it — and
// records any disagreement before returning the prepared verdict.
type parityCheck struct {
	inner      *mirage.Policy
	decisions  int
	unprepared int
	mismatches int
}

func (p *parityCheck) Decide(ctx *sabre.MirrorContext) bool {
	p.decisions++
	if ctx.MirrorCoord == nil {
		p.unprepared++
	}
	verdict := p.inner.Decide(ctx)
	computed := *ctx
	computed.MirrorCoord = nil
	if p.inner.Decide(&computed) != verdict {
		p.mismatches++
	}
	return verdict
}

// TestDecidePreparedMirrorMatchesComputed routes every suite circuit
// (consolidated, as the transpiler routes it) on the square lattice at
// the two cost-comparing aggression levels: for every 2Q op the router
// must offer a prepared mirror coordinate, and Decide must reach the
// same verdict with it as with the weyl.Mirror fallback.
func TestDecidePreparedMirrorMatchesComputed(t *testing.T) {
	cov := polytope.NewISwapRootCoverage(2)
	cache := polytope.NewCostCache(0)
	topo := topology.SquareLattice66()
	for _, e := range bench.Suite() {
		c := circuit.ConsolidateBlocks(circuit.UnrollTo2Q(e.Build()))
		rng := rand.New(rand.NewSource(11))
		layout := sabre.RandomLayout(c.NumQubits, topo, rng)
		for _, level := range []mirage.Aggression{mirage.AggressionLower, mirage.AggressionEqual} {
			check := &parityCheck{inner: mirage.NewPolicy(cov, cache, level)}
			if _, err := sabre.Route(c, topo, layout, sabre.Options{}, rng, check); err != nil {
				t.Fatal(err)
			}
			if check.decisions != c.Count2Q() || check.unprepared != 0 || check.mismatches != 0 {
				t.Fatalf("%s level %d: %d decisions for %d 2Q ops, %d without a prepared coordinate, %d verdict mismatches",
					e.Name, level, check.decisions, c.Count2Q(), check.unprepared, check.mismatches)
			}
		}
	}
}

// BenchmarkDepthMetric times the MIRAGE-Depth metric on one routed
// QFT(12) trial — the per-trial score a depth-selected grid pays — on
// the same input as the mirage/DepthMetric kernel row.
func BenchmarkDepthMetric(b *testing.B) {
	res, cov, err := bench.DepthMetricFixture()
	if err != nil {
		b.Fatal(err)
	}
	metric := mirage.DepthMetricWithCache(cov, nil)
	metric(res)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		depthSink = metric(res)
	}
}

var depthSink float64
