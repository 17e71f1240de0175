package mirage

import (
	"repro/internal/circuit"
	"repro/internal/polytope"
	"repro/internal/sabre"
	"repro/internal/weyl"
)

// CostTable prices Weyl classes under one coverage set, for the mirror
// decisions, the depth metric and the trial bound of one routed
// circuit. It holds a price per slot of the circuit's class list
// (circuit.Classes): each 2Q op's class, its mirror, its mirror's
// mirror, the SWAP and the identity — every class those three ask for
// on that circuit. The router stamps each decision and each routed op
// with its slot, so the hot path prices by index: no coordinate is
// hashed or mirrored per decision or per block.
//
// A run without a slot — a block of a route that stamped none, such as
// an unbounded SABRE trial — is priced directly by CoverageSet.CostOf
// (CostOf), which is what the table's slots hold too. So the table
// changes how fast a price comes back, never what it is. A decision
// from a route of a circuit with another class list panics.
//
// The paper puts an LRU cache in front of its polytope queries
// (Section VI-C) because a monodromy membership query is expensive.
// Our regions are closed-form halfspaces, and a circuit's classes are
// known before routing starts, so the table prices each class once,
// when it is built, and never evicts or locks: the empirical root-3/4
// regions, where a lookup costs several hundred nanoseconds, pay it
// once per class per circuit rather than once per decision. Slots key
// classes exactly, not quantised, so two coordinates a hair apart on
// either side of a region boundary each get their own region's cost.
//
// A CostTable is immutable once NewCostTable returns: trial workers
// read it concurrently without locks.
type CostTable struct {
	cov   *polytope.CoverageSet
	slots circuit.SlotCosts
}

// NewCostTable prices under cov every class of classes, the class list
// of the circuit the table prices (sabre.PreparedCircuit.Classes),
// whose routes stamp their decisions and routed ops with its slots.
func NewCostTable(cov *polytope.CoverageSet, classes *circuit.Classes) *CostTable {
	t := &CostTable{cov: cov}
	t.slots = *circuit.NewSlotCosts(classes, t.CostOf)
	return t
}

// CostOf returns the decomposition time cost of c: cov.CostOf(c,
// false).
func (t *CostTable) CostOf(c weyl.Coordinate) float64 { return t.cov.CostOf(c, false) }

// Slots returns the table's prices by slot of its class list.
func (t *CostTable) Slots() *circuit.SlotCosts { return &t.slots }

// Len returns the number of classes the table prices by slot.
func (t *CostTable) Len() int { return len(t.slots.Costs) - 1 }

// decision prices a mirror decision's gate and its mirror by slot.
func (t *CostTable) decision(ctx *sabre.MirrorContext) (gate, mirror float64) {
	if ctx.Classes != t.slots.Classes {
		panic("mirage: a mirror decision on a class list the cost table was not built over")
	}
	return t.slots.Costs[ctx.Class], t.slots.Costs[ctx.MirrorClass]
}
