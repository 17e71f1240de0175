package mirage

import (
	"repro/internal/circuit"
	"repro/internal/polytope"
	"repro/internal/weyl"
)

// CostTable prices Weyl coordinates under one coverage set, for the
// mirror decisions and the depth metric of one routed circuit. It
// holds, keyed by exact coordinate, every price those two ask for on
// that circuit:
//
//   - each 2Q op's coordinate (a decision's current gate, a block);
//   - its mirror (a decision's trial gate, an accepted mirror, a
//     block that absorbed one router SWAP);
//   - the mirror of that mirror (an accepted mirror that absorbed one
//     router SWAP);
//   - the SWAP and the identity (runs of router SWAPs alone).
//
// Any other coordinate — a multi-payload run's product, or a gate of
// a circuit the table was not built over — is priced directly by
// CoverageSet.CostOf, which is what the table's entries hold too. So
// the table changes how fast a price comes back, never what it is.
//
// The paper puts an LRU cache in front of its polytope queries
// (Section VI-C) because a monodromy membership query is expensive.
// Our regions are closed-form halfspaces: a direct lookup on the
// sqrt-iSWAP basis is cheaper than a locked cache hit, and the
// empirical root-3/4 regions, where a lookup costs several hundred
// nanoseconds, pay it here once per class per circuit rather than once
// per decision. Keys are exact, not quantised, so two coordinates a
// hair apart on either side of a region boundary each get their own
// region's cost.
//
// A CostTable is immutable once NewCostTable returns: trial workers
// read it concurrently without locks.
type CostTable struct {
	cov   *polytope.CoverageSet
	costs map[weyl.Coordinate]float64
}

// NewCostTable prices the coordinates of c's 2Q ops, their mirrors and
// their mirrors' mirrors under cov, plus the SWAP and the identity. A
// nil c gives a table holding those two classes alone, which prices
// everything else directly.
func NewCostTable(cov *polytope.CoverageSet, c *circuit.Circuit) *CostTable {
	t := &CostTable{cov: cov, costs: make(map[weyl.Coordinate]float64)}
	t.add(weyl.SwapCoord)
	t.add(weyl.IdentityCoord)
	if c == nil {
		return t
	}
	// Circuits repeat gate classes (every CX block is one class), and
	// weyl.Mirror costs far more than a map probe, so each distinct op
	// coordinate is mirrored once.
	seen := make(map[weyl.Coordinate]struct{})
	for _, op := range c.Ops {
		if !op.Is2Q() {
			continue
		}
		// The same expressions the router (sabre's mirror table) and the
		// depth pass (circuit.BlockDepth) evaluate, so their results are
		// bit-equal to these keys.
		coord := circuit.OpCoordinate(op)
		if _, ok := seen[coord]; ok {
			continue
		}
		seen[coord] = struct{}{}
		mirror := weyl.Mirror(coord)
		t.add(coord)
		t.add(mirror)
		t.add(weyl.Mirror(mirror))
	}
	return t
}

func (t *CostTable) add(c weyl.Coordinate) {
	if _, ok := t.costs[c]; !ok {
		t.costs[c] = t.cov.CostOf(c, false)
	}
}

// CostOf returns the decomposition time cost of c: cov.CostOf(c,
// false), read from the table when c is one of its entries.
func (t *CostTable) CostOf(c weyl.Coordinate) float64 {
	if v, ok := t.costs[c]; ok {
		return v
	}
	return t.cov.CostOf(c, false)
}

// Len returns the number of distinct coordinates the table holds.
func (t *CostTable) Len() int { return len(t.costs) }
