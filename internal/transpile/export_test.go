package transpile

import "repro/internal/polytope"

// FillMetrics measures rep.Routed into rep's depth and gate-count
// fields, for the external benchmark of that step alone.
func FillMetrics(rep *Report, basis *polytope.CoverageSet) { fillMetrics(rep, basis) }
