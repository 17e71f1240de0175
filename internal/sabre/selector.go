package sabre

import "math"

// trialSelector is the deterministic consumer of a routing-trial
// stream: an online argmin over (trial index, score) pairs with the
// adaptive-patience stop rule. It must be fed results serially in
// strict trial-index order — which is exactly what Grid.Consume does
// with the rows the dispatch queue hands it — so that the selected
// winner, the executed-trial count and the stop decision are
// identical at any worker count, lease size or transport. Ties break
// toward the lowest trial index, matching what a serial loop would
// keep. A selector is a plain value: a copy continues from the state
// it was copied in, which is how a row follows the published state of
// its grid.
type trialSelector struct {
	patience  int
	bestT     int
	bestScore float64
	executed  int
	noImprove int
}

// newTrialSelector returns a selector with the given convergence
// patience (0 = never stop early; consume the whole grid).
func newTrialSelector(patience int) trialSelector {
	return trialSelector{patience: patience, bestT: -1}
}

// Consume feeds trial t's score. Returns true when the grid should
// stop: `patience` consecutive non-improving trial indices have been
// consumed.
func (s *trialSelector) Consume(t int, score float64) bool {
	s.executed++
	if s.bestT < 0 || score < s.bestScore {
		s.bestScore, s.bestT = score, t
		s.noImprove = 0
		return false
	}
	s.noImprove++
	return s.patience > 0 && s.noImprove >= s.patience
}

// best returns the best score consumed, +Inf before any.
func (s *trialSelector) best() float64 {
	if s.bestT < 0 {
		return math.Inf(1)
	}
	return s.bestScore
}
