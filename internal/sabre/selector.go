package sabre

import "math"

// trialSelector is the deterministic consumer of a routing-trial
// stream: an online argmin over (trial index, score) pairs with the
// adaptive-patience stop rule and the floor rule. It must be fed
// results serially in strict trial-index order — which is exactly what
// Grid.Consume does with the rows the dispatch queue hands it — so
// that the selected winner, the executed-trial count and the stop
// decision are identical at any worker count, lease size or transport.
// Ties break toward the lowest trial index, matching what a serial
// loop would keep. A selector is a plain value: a copy continues from
// the state it was copied in, which is how a row follows the published
// state of its grid.
//
// The floor is a score no trial of the grid can go below. A trial
// that scores at or below it is the winner: a later trial could at
// best tie, and ties go to the lower index. So the selector finishes
// the grid there, and counts as executed what consuming every later
// trial as a cut (+Inf) trial would have counted: the whole budget at
// patience 0, else up to the trial where the patience rule would stop
// the grid. The winner and TrialsExecuted are those of the same grid
// with no floor.
type trialSelector struct {
	patience  int
	budget    int     // trials in the grid
	floor     float64 // -Inf: the grid never finishes at its floor
	bestT     int
	bestScore float64
	executed  int
	noImprove int
}

// newTrialSelector returns a selector over a grid of budget trials
// with the given convergence patience (0 = never stop on patience) and
// floor (-Inf = no floor).
func newTrialSelector(patience, budget int, floor float64) trialSelector {
	return trialSelector{patience: patience, budget: budget, floor: floor, bestT: -1}
}

// Consume feeds trial t's score. Returns true when the grid should
// stop: `patience` consecutive non-improving trial indices have been
// consumed, or the score met the floor. A NaN score never meets the
// floor and never displaces a held best, but the first trial consumed
// becomes the best whatever its score: after a NaN there, no later
// score compares below it, so every later trial counts as
// non-improving. No in-tree metric returns NaN, and distrib turns its
// NaN-marked failed trials into row errors before they reach a
// selector.
func (s *trialSelector) Consume(t int, score float64) bool {
	s.executed++
	if s.bestT < 0 || score < s.bestScore {
		s.bestScore, s.bestT = score, t
		s.noImprove = 0
	} else {
		s.noImprove++
		if s.patience > 0 && s.noImprove >= s.patience {
			return true
		}
	}
	if score <= s.floor {
		if s.patience > 0 {
			s.executed = min(s.budget, s.executed+s.patience-s.noImprove)
		} else {
			s.executed = s.budget
		}
		return true
	}
	return false
}

// best returns the best score consumed, +Inf before any.
func (s *trialSelector) best() float64 {
	if s.bestT < 0 {
		return math.Inf(1)
	}
	return s.bestScore
}
