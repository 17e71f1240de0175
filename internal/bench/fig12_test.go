package bench

import (
	"math"
	"testing"
)

func TestFig12Reductions(t *testing.T) {
	rows := []Fig12Row{
		{Base: Fig12Figures{Depth: 100, Gates: 200, Swaps: 10}, Mirage: Fig12Figures{Depth: 50, Gates: 200, Swaps: 5}},
		{Base: Fig12Figures{Depth: 300, Gates: 100, Swaps: 0}, Mirage: Fig12Figures{Depth: 300, Gates: 110, Swaps: 0}},
	}
	avg, weighted := Fig12Reductions(rows)
	// Per-row reductions: depth 50% and 0%, gates 0% and −10%, swaps
	// 50% and (zero baseline) 0%.
	wantAvg := Fig12Figures{Depth: 25, Gates: -5, Swaps: 25}
	// Sums: depth 400 → 350, gates 300 → 310, swaps 10 → 5.
	wantWeighted := Fig12Figures{Depth: 12.5, Gates: -100.0 / 30, Swaps: 50}
	for _, c := range []struct {
		name      string
		got, want Fig12Figures
	}{{"average", avg, wantAvg}, {"weighted", weighted, wantWeighted}} {
		for i, pair := range [][2]float64{{c.got.Depth, c.want.Depth}, {c.got.Gates, c.want.Gates}, {c.got.Swaps, c.want.Swaps}} {
			if math.Abs(pair[0]-pair[1]) > 1e-12 {
				t.Errorf("%s figure %d = %g, want %g", c.name, i, pair[0], pair[1])
			}
		}
	}
	if avg, weighted := Fig12Reductions(nil); avg != (Fig12Figures{}) || weighted != (Fig12Figures{}) {
		t.Errorf("no rows: got %+v, %+v, want zeros", avg, weighted)
	}
}
