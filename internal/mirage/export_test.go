package mirage

import "repro/internal/weyl"

// Holds reports whether c is one of the table's entries, for the
// external tests that check the hot path never misses the table.
func (t *CostTable) Holds(c weyl.Coordinate) bool {
	_, ok := t.costs[c]
	return ok
}
