// Package mirage implements the paper's contribution: a mirror-gate
// routing policy layered on SABRE. For every two-qubit gate leaving
// the execute layer, the intermediate layer compares the combined
// decomposition + routing cost of the gate against its mirror
// (gate followed by a mirage SWAP) and substitutes the mirror
// according to an aggression level (paper Algorithm 2):
//
//	level 0: never accept a mirror
//	level 1: accept when it strictly lowers the cost
//	level 2: accept when it lowers or maintains the cost
//	level 3: always accept
//
// Routing trials are distributed across aggression levels 5% / 45% /
// 45% / 5% (paper Section IV-C), and the best trial is chosen by a
// post-selection metric: inserted-SWAP count (MIRAGE-Swaps) or the
// polytope-weighted critical-path depth (MIRAGE-Depth, Section IV-B).
//
// The depth metric is what consolidating each trial's routed circuit
// and pricing its blocks would give, computed in one streaming pass
// without building a block (circuit.BlockDepth): same-pair runs of 2Q
// ops are priced by their Weyl class — the payload op's coordinate,
// mirrored when the run holds an odd number of router SWAPs (paper
// Eq. 1). Routing takes a ConsolidateBlocks output, so no run holds
// two payload ops; the pass panics on one that does.
package mirage

import (
	"repro/internal/circuit"
	"repro/internal/polytope"
	"repro/internal/sabre"
	"repro/internal/weyl"
)

// Aggression is the mirror acceptance level of Algorithm 2.
type Aggression int

// Aggression levels.
const (
	AggressionNever  Aggression = 0
	AggressionLower  Aggression = 1
	AggressionEqual  Aggression = 2
	AggressionAlways Aggression = 3
)

// DefaultMix is the paper's trial distribution over aggression levels.
var DefaultMix = [4]float64{0.05, 0.45, 0.45, 0.05}

// Policy is the MIRAGE intermediate-layer decision procedure.
type Policy struct {
	// Costs prices the gate and its mirror under the target basis.
	Costs      *CostTable
	Aggression Aggression
	// swapCost converts one hop of the SABRE distance heuristic into
	// decomposition-cost units: the table's price of a SWAP gate (1.5
	// for sqrt-iSWAP).
	swapCost float64
}

// NewPolicy builds a policy pricing through costs, with the SWAP cost
// taken from the same table.
func NewPolicy(costs *CostTable, level Aggression) *Policy {
	return &Policy{Costs: costs, Aggression: level, swapCost: costs.CostOf(weyl.SwapCoord)}
}

// Decide implements Algorithm 2: compare
//
//	cost_current = decomp(U)        + swapCost * H(layout)
//	cost_trial   = decomp(mirror U) + swapCost * H(layout after mirage SWAP)
//
// and accept according to the aggression level. The gate's and the
// mirror's classes and both H values come from the router
// (MirrorContext); the table prices the classes by slot. Levels 0 and
// 3 decide without asking for either.
func (p *Policy) Decide(ctx *sabre.MirrorContext) bool {
	switch p.Aggression {
	case AggressionNever:
		return false
	case AggressionAlways:
		return true
	}
	dc, dm := p.Costs.decision(ctx)
	hCur, hTrial := ctx.RoutingCosts()
	costCurrent := dc + p.swapCost*hCur
	costTrial := dm + p.swapCost*hTrial

	const eps = 1e-9
	if p.Aggression == AggressionLower {
		return costTrial < costCurrent-eps
	}
	return costTrial <= costCurrent+eps // AggressionEqual
}

// PolicyFactory distributes aggression levels over routing trials
// according to mix (non-negative fractions for levels 0..3, not all
// zero); a one-hot mix fixes the level of every trial. A Policy is
// immutable, so every trial of a level shares one, and every policy
// prices through the one shared read-only table: the returned factory
// allocates nothing and is safe to call from concurrent routing
// trials.
func PolicyFactory(costs *CostTable, mix [4]float64) sabre.PolicyFactory {
	// Build the cumulative distribution and the policies once.
	var cum [4]float64
	var policies [4]*Policy
	total := 0.0
	for i, m := range mix {
		total += m
		cum[i] = total
		policies[i] = NewPolicy(costs, Aggression(i))
	}
	return func(trial int) sabre.MirrorPolicy {
		// Low-discrepancy assignment: walk the unit interval in golden-
		// ratio steps so every prefix of trials approximates the mix.
		u := float64((trial*2654435761)%4294967296) / 4294967296.0 * total
		level := AggressionAlways
		for i, c := range cum {
			if u < c {
				level = Aggression(i)
				break
			}
		}
		return policies[level]
	}
}

// --- Post-selection metrics (paper Section IV-B) ---

// GateWeight returns the decomposition time cost of an op under the
// coverage set: 2Q ops cost k * perGateCost basis applications, 1Q ops
// are free. Router SWAPs and mirrored gates are priced through their
// actual coordinates, so a mirage SWAP is automatically cheaper than
// an explicit SWAP whenever the polytopes say so. Each call prices
// directly with CoverageSet.CostOf.
func GateWeight(cov *polytope.CoverageSet) circuit.WeightFunc {
	return func(op circuit.Op) float64 {
		if !op.Is2Q() {
			return 0
		}
		return cov.CostOf(circuit.OpCoordinate(op), false)
	}
}

// DepthMetric scores a routing result by the polytope-weighted
// critical-path depth — the paper's key improvement over counting
// SWAPs (Section VI-A: optimising for depth rather than SWAPs yields
// an additional 7.5% improvement). Every block is priced through costs.
//
// The score is ConsolidateBlocks(r.Routed).Depth(GateWeight(cov)) —
// consolidating first prices a router SWAP adjacent to a same-pair
// gate as its merged block, the absorption the post-routing pipeline
// will actually perform — computed by the streaming circuit.BlockDepth
// pass instead. A run of same-pair 2Q ops (1Q ops never break one; a
// 2Q op on another pair sharing a wire does) is priced by its class:
// the payload op's coordinate for an even number of router SWAPs in
// the run and its mirror for an odd number; the SWAP class or the
// identity for a run of router SWAPs alone. r.Routed must route a
// ConsolidateBlocks output, where no run holds two payload ops; the
// pass panics on one that does. A table built over the class list of
// the routed circuit (sabre.PreparedCircuit.Classes) holds every class
// the pass asks for, and the pass reads each by the slot the router
// stamped on the run's payload (circuit.BlockDepth.DepthSlots).
//
// The pass is the one the trial bound (sabre.DepthBound) cuts trials
// with and the one a transpile report is measured with, so the
// winner's score is its report's DepthTime exactly: the table prices
// every class at cov.CostOf(class, false), as the report does.
//
// The metric honours the sabre.Metric contract: it is a pure function
// of the Result's contents and retains nothing, so
// FindBestRoutingPrepared may evaluate it on arena-backed Results that
// are recycled after the call. It is safe for concurrent use and, once
// warm, allocates nothing: each call borrows a BlockDepth from the
// circuit package's pool (circuit.GetBlockDepth).
func DepthMetric(costs *CostTable) sabre.Metric {
	cost, slots := costs.CostOf, costs.Slots()
	return func(r *sabre.Result) float64 {
		p := circuit.GetBlockDepth()
		d := p.DepthSlots(r.Routed, cost, slots)
		circuit.PutBlockDepth(p)
		return d
	}
}
