package bench

// Fig12Figures are one circuit's Fig. 12 quality figures: critical-path
// depth in basis pulses, total basis gates, and inserted SWAPs.
type Fig12Figures struct{ Depth, Gates, Swaps float64 }

// Fig12Row pairs a circuit's Qiskit-SABRE baseline with its MIRAGE
// figures.
type Fig12Row struct{ Base, Mirage Fig12Figures }

// Fig12Reductions summarises rows the two ways Fig. 12 is read, in
// percent: avg is the mean over rows of each row's reduction (a row
// whose baseline figure is zero counts as no reduction), weighted is
// the reduction of the summed figures. Both are zero for no rows.
func Fig12Reductions(rows []Fig12Row) (avg, weighted Fig12Figures) {
	if len(rows) == 0 {
		return avg, weighted
	}
	var base, mir Fig12Figures
	for _, r := range rows {
		avg.Depth += reduction(r.Base.Depth, r.Mirage.Depth)
		avg.Gates += reduction(r.Base.Gates, r.Mirage.Gates)
		avg.Swaps += reduction(r.Base.Swaps, r.Mirage.Swaps)
		base.Depth += r.Base.Depth
		base.Gates += r.Base.Gates
		base.Swaps += r.Base.Swaps
		mir.Depth += r.Mirage.Depth
		mir.Gates += r.Mirage.Gates
		mir.Swaps += r.Mirage.Swaps
	}
	n := float64(len(rows))
	avg = Fig12Figures{avg.Depth / n, avg.Gates / n, avg.Swaps / n}
	weighted = Fig12Figures{
		reduction(base.Depth, mir.Depth),
		reduction(base.Gates, mir.Gates),
		reduction(base.Swaps, mir.Swaps),
	}
	return avg, weighted
}

// reduction is the percentage by which m undercuts base (0 when base
// is zero).
func reduction(base, m float64) float64 {
	if base == 0 {
		return 0
	}
	return 100 * (base - m) / base
}
