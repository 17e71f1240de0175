package sabre

import (
	"errors"
	"testing"

	"repro/internal/topology"
)

// TestGridTrialErrorAtItsIndex: a row that ends in a trial error fails
// the grid only if the selector reaches that trial, exactly as a
// serial loop would. An error past the patience stop — a row that ran
// ahead of the stop rule — is discarded with the row's other scores.
func TestGridTrialErrorAtItsIndex(t *testing.T) {
	topo := topology.Grid(3, 3)
	pc, err := PrepareCircuit(schedulerCircuit(6, 12, 3), topo)
	if err != nil {
		t.Fatal(err)
	}
	opts := LayoutOptions{LayoutTrials: 2, RoutingTrials: 4, FwdBwdPasses: 1, Seed: 5, ConvergencePatience: 2}
	layout := topology.TrivialLayout(6, topo.NumQubits)
	diverged := errors.New("trial diverged")

	// Trials 1 and 2 do not improve on trial 0: the stop rule fires at
	// trial 2, before the error that follows it.
	g := NewGrid(pc, opts, nil, nil)
	if !g.Consume(0, Row{Layout: layout, Scores: []float64{3, 4, 5}, Err: diverged}) {
		t.Fatal("the grid did not stop at its patience")
	}
	res, err := g.Result()
	if err != nil {
		t.Fatalf("an error past the stop index failed the grid: %v", err)
	}
	if res.TrialsExecuted != 3 {
		t.Fatalf("TrialsExecuted = %d, want 3", res.TrialsExecuted)
	}

	// Trial 1 improves, so the selector reaches the error at trial 2.
	g = NewGrid(pc, opts, nil, nil)
	if !g.Consume(0, Row{Layout: layout, Scores: []float64{3, 2}, Err: diverged}) {
		t.Fatal("a trial error did not stop the grid")
	}
	if _, err := g.Result(); !errors.Is(err, diverged) {
		t.Fatalf("Result error %v, want the trial error", err)
	}
}

// TestGridRowStopsWithTheGrid: a row that started before the earlier
// rows were consumed follows the selector from the trial at which it
// catches up, feeding its own earlier scores to the copy, and returns
// as soon as the grid has finished even if it never catches up. The
// earlier rows are consumed from inside row 2's first policy-factory
// call, so the row sees them at its second trial.
func TestGridRowStopsWithTheGrid(t *testing.T) {
	topo := topology.Grid(3, 3)
	pc, err := PrepareCircuit(schedulerCircuit(6, 12, 3), topo)
	if err != nil {
		t.Fatal(err)
	}
	opts := LayoutOptions{LayoutTrials: 3, RoutingTrials: 4, FwdBwdPasses: 1, Seed: 5, ConvergencePatience: 3}
	layout := topology.TrivialLayout(6, topo.NumQubits)
	for _, tc := range []struct {
		name   string
		before [][]float64 // the scores of the rows consumed before row 2's second trial
		scores int         // scores row 2 returns
	}{
		// Trial 6 improves, trial 7 does not. Row 2's trial 8 (a SWAP
		// count, so >= 0) is fed to the copy on catching up, and trial
		// 9 is the third in a row that does not improve.
		{"follows once caught up", [][]float64{{0, 9, 9, -1}, {9, 9, -2, 9}}, 2},
		// The grid stops at trial 3; row 2 never catches up.
		{"returns once finished", [][]float64{{0, 9, 9, 9}}, 1},
	} {
		var g *Grid
		factory := func(tr int) MirrorPolicy {
			if tr == 8 {
				for lt, scores := range tc.before {
					g.Consume(lt, Row{Layout: layout, Scores: scores})
				}
			}
			return nil
		}
		g = NewGrid(pc, opts, nil, factory)
		row, err := g.row(NewTrialRunnerPrepared(pc), 2)
		if err != nil {
			t.Fatal(err)
		}
		if len(row.Scores) != tc.scores || row.Err != nil {
			t.Fatalf("%s: row 2 returned %d scores (err %v), want %d", tc.name, len(row.Scores), row.Err, tc.scores)
		}
	}
}
