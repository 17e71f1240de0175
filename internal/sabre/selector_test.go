package sabre

import (
	"math"
	"testing"
)

// feedUntilStop consumes scores[i] as trial start+i until Consume
// reports the grid stopped, and returns that trial's index, or -1.
func feedUntilStop(s *trialSelector, start int, scores []float64) int {
	for i, score := range scores {
		if s.Consume(start+i, score) {
			return start + i
		}
	}
	return -1
}

// TestSelectorFloorMatchesCutTrials: a selector that meets its floor
// at trial at finishes there, with the winner and executed count of a
// floorless selector fed the same scores up to at and +Inf (cut
// trials) after it, at patience 0 and 3, on the first, a middle and
// the last trial of the grid. At patience 3 the floor at trial 9 of 12
// caps the executed count at the budget.
func TestSelectorFloorMatchesCutTrials(t *testing.T) {
	const budget, floor = 12, 2.0
	sequences := map[string][]float64{
		"improving": {14, 13, 12, 11, 10, 9, 8, 7, 6, 5, 4, 3},
		"flat":      {9, 7, 8, 7, 6, 8, 6, 7, 6, 5, 7, 6},
	}
	for name, seq := range sequences {
		for _, at := range []int{0, 5, 9, budget - 1} {
			for _, hit := range []float64{floor, floor - 1} {
				for _, patience := range []int{0, 3} {
					scores := append([]float64(nil), seq...)
					scores[at] = hit
					cut := append([]float64(nil), scores[:at+1]...)
					for len(cut) < budget {
						cut = append(cut, math.Inf(1))
					}
					want := newTrialSelector(patience, budget, math.Inf(-1))
					wantStop := feedUntilStop(&want, 0, cut)

					got := newTrialSelector(patience, budget, floor)
					gotStop := feedUntilStop(&got, 0, scores)
					if wantStop < 0 || wantStop > at {
						wantStop = at // the floor finishes the grid first
					}
					if gotStop != wantStop || got.bestT != want.bestT || got.bestScore != want.bestScore ||
						got.executed != want.executed {
						t.Errorf("%s/at=%d/score=%g/patience=%d: stop %d, best %d (%g), executed %d; want stop %d, best %d (%g), executed %d",
							name, at, hit, patience, gotStop, got.bestT, got.bestScore, got.executed,
							wantStop, want.bestT, want.bestScore, want.executed)
					}
				}
			}
		}
	}
}

// TestSelectorCopyStopsAtFloor: a copy of a selector, the state a row
// follows, stops at the same trial as the selector it was copied from
// and ends in the same state.
func TestSelectorCopyStopsAtFloor(t *testing.T) {
	scores := []float64{9, 7, 8, 6, 7, 1, 5, 4}
	for _, patience := range []int{0, 3} {
		for split := 0; split <= 5; split++ {
			grid := newTrialSelector(patience, len(scores), 1)
			if stop := feedUntilStop(&grid, 0, scores[:split]); stop >= 0 {
				t.Fatalf("patience %d: stopped at %d before the floor", patience, stop)
			}
			row := grid
			gridStop := feedUntilStop(&grid, split, scores[split:])
			rowStop := feedUntilStop(&row, split, scores[split:])
			if gridStop != 5 || rowStop != gridStop || row != grid {
				t.Errorf("patience %d, copied after %d trials: grid stops at %d, copy at %d (state %+v vs %+v), want both at 5",
					patience, split, gridStop, rowStop, grid, row)
			}
		}
	}
}

// TestSelectorFloorNeverMet: a -Inf floor never finishes the grid on
// a finite score, however low, and a NaN score meets no floor.
func TestSelectorFloorNeverMet(t *testing.T) {
	s := newTrialSelector(0, 6, math.Inf(-1))
	if stop := feedUntilStop(&s, 0, []float64{0, -1e300, -math.MaxFloat64, -5, 0, math.Inf(1)}); stop >= 0 {
		t.Errorf("-Inf floor finished the grid at trial %d", stop)
	}
	if s.executed != 6 {
		t.Errorf("executed %d, want 6", s.executed)
	}
	for _, floor := range []float64{0, math.Inf(1)} {
		s := newTrialSelector(0, 4, floor)
		if stop := feedUntilStop(&s, 0, []float64{math.NaN(), math.NaN()}); stop >= 0 {
			t.Errorf("floor %g: a NaN score finished the grid at trial %d", floor, stop)
		}
	}
}
