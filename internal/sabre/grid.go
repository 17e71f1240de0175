package sabre

import (
	"errors"
	"math"
	"sync"

	"repro/internal/dispatch"
	"repro/internal/topology"
)

// Row is one layout row of the trial grid: layout trial lt's refined
// initial layout and the scores of its routing trials
// t = lt*RoutingTrials + rt, in trial order. A cut trial scores +Inf.
// A row holds fewer than RoutingTrials scores when it stopped early:
// where the grid finished or its copy of the selector stopped the grid
// (see Grid), or at a trial that failed with Err.
type Row struct {
	Layout *topology.Layout
	Scores []float64
	Err    error
}

// Grid consumes the layout rows of one FindBestRoutingPrepared grid and
// replays its winner. Both schedulers drive it through Consume, from
// the consume callback of a dispatch.Queue, so scores reach the trial
// selector in trial-index order: RunGrids runs rows on
// dispatch.RunLocal, and the distributed coordinator
// (internal/distrib) assembles each row from the trials its TCP
// workers return. A queue that carries the rows of several grids may
// hand a grid rows after it finished; Consume drops them.
//
// After each row the Grid publishes the selector's state, which the
// local rows still running read before every trial:
//
//   - once every earlier row was consumed, a row follows a copy of
//     that state, fed with its own scores so far: it stops routing at
//     the trial where the copy stops the grid. Serial runs follow from
//     a row's first trial, so they route exactly the trials the
//     selector consumes.
//   - until then it runs on, and returns as soon as the grid finished.
//     A row that starts on a finished grid refines no layout.
//
// A grid with a bound finishes at the first trial that meets its floor
// (see Bound), as the patience rule finishes it: rows after it are
// never refined, rows already running return at their next trial, and
// the selector counts what it skips as executed.
//
// Every row cuts each trial at the lower of the published best and its
// own best so far. A trial is thus only cut at the score of a
// lower-index trial, so it could not have won, and it reaches the
// selector as +Inf: a non-improving score, as its real one would have
// been.
type Grid struct {
	pc      *PreparedCircuit
	opts    LayoutOptions
	metric  Metric
	factory PolicyFactory
	bound   *trialBound // nil: no trial is cut

	mu     sync.Mutex
	rows   int              // rows consumed by Consume
	done   bool             // the grid is finished: see Consume
	sel    trialSelector    // the selector after the trials consumed
	layout *topology.Layout // the winner's layout
	err    error            // the trial error that ended the grid
}

// NewGrid returns the consumer of a grid over pc. metric and factory
// score and replay its trials; a nil metric is SwapCountMetric.
func NewGrid(pc *PreparedCircuit, opts LayoutOptions, metric Metric, factory PolicyFactory) *Grid {
	opts = opts.WithDefaults()
	if metric == nil {
		metric = SwapCountMetric
	}
	g := &Grid{pc: pc, opts: opts, metric: metric, factory: factory}
	floor := math.Inf(-1)
	if opts.bound != nil {
		g.bound = newTrialBound(opts.bound, pc)
		floor = g.bound.floor()
	}
	g.sel = newTrialSelector(opts.ConvergencePatience, opts.LayoutTrials*opts.RoutingTrials, floor)
	return g
}

// Prepared returns the circuit the grid routes.
func (g *Grid) Prepared() *PreparedCircuit { return g.pc }

// Options returns the grid's layout options, defaults applied.
func (g *Grid) Options() LayoutOptions { return g.opts }

// Consume feeds row lt's scores to the selector and publishes its
// state. It returns true once the grid is finished: the patience rule
// fired, a trial met the floor, or the row ended in an error. On a
// finished grid it is a no-op, so a late row moves neither the winner
// nor TrialsExecuted.
func (g *Grid) Consume(lt int, row Row) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.done {
		return true
	}
	g.rows++
	for rt, score := range row.Scores {
		t := lt*g.opts.RoutingTrials + rt
		g.done = g.sel.Consume(t, score)
		if g.sel.bestT == t {
			g.layout = row.Layout
		}
		if g.done {
			return true
		}
	}
	if row.Err != nil {
		g.err, g.done = row.Err, true
	}
	return g.done
}

// Result replays the winning trial on a pooled arena and copies the
// Result out of it, so the Result owns its buffers; the copy builds
// the mirror gates of the winner's accepted mirrors, the only ones the
// grid builds. Trials are deterministic in (Seed, index), so this
// reproduces the scored run bit for bit at the cost of one extra
// route. Call it once the queue feeding Consume finished without
// error.
func (g *Grid) Result() (*Result, error) {
	if g.err != nil {
		return nil, g.err
	}
	bestT := g.sel.bestT
	if bestT < 0 {
		return nil, errors.New("sabre: the grid consumed no trial")
	}
	var policy MirrorPolicy
	if g.factory != nil {
		policy = g.factory(bestT)
	}
	a := getArena()
	defer putArena(a)
	r := TrialRunner{pc: g.pc, arena: a}
	res, err := r.gridTrial(g.layout, g.opts, bestT, policy, nil)
	if err != nil {
		return nil, err
	}
	best := res.own()
	best.TrialsExecuted = g.sel.executed
	best.TrialsBudgeted = g.sel.budget
	return best, nil
}

// snapshot returns a copy of the published selector, whether every
// row before lt was consumed, and whether the grid is finished.
func (g *Grid) snapshot(lt int) (sel trialSelector, caughtUp, done bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.sel, g.rows == lt, g.done
}

// row refines layout trial lt on r and routes and scores its trials
// under the rules of the Grid doc. A refinement or trial error ends the
// row in Row.Err.
func (g *Grid) row(r *TrialRunner, lt int) Row {
	if _, _, done := g.snapshot(lt); done {
		return Row{}
	}
	layout, err := r.RefineLayout(g.opts, lt)
	if err != nil {
		return Row{Err: err}
	}
	n := g.opts.RoutingTrials
	row := Row{Layout: layout, Scores: make([]float64, 0, n)}
	var sel trialSelector // the followed copy of the grid's selector
	following := false
	own := math.Inf(1) // the row's best score so far
	var tb trialBound
	for rt := 0; rt < n; rt++ {
		published, caughtUp, done := g.snapshot(lt)
		if done {
			return row
		}
		if !following && caughtUp {
			sel, following = published, true
			for i, score := range row.Scores {
				if sel.Consume(lt*n+i, score) {
					return row
				}
			}
		}
		t := lt*n + rt
		var bound *trialBound
		if beat := math.Min(own, published.best()); g.bound != nil && !math.IsInf(beat, 1) {
			tb = *g.bound
			tb.beat = beat
			bound = &tb
		}
		var policy MirrorPolicy
		if g.factory != nil {
			policy = g.factory(t)
		}
		score, err := r.scoreTrial(layout, g.opts, t, policy, g.metric, bound)
		if err != nil {
			row.Err = err
			return row
		}
		row.Scores = append(row.Scores, score)
		own = math.Min(own, score)
		if following && sel.Consume(t, score) {
			break
		}
	}
	return row
}

// RunGrids routes the layout rows of every grid on one local work
// queue, row-major: item lt*K + k is row lt of grids[k], so the workers
// start every grid's first row before any grid's second. (In circuit
// order a second worker would route a grid's second row beside its
// first, work thrown away whenever patience stops the grid in its
// first row.) The grids share one LayoutOptions, whose Parallelism
// sizes the worker pool, and each worker takes one trial arena from
// the pool, rebinds it to the circuit of each row it runs and puts it
// back when the queue is done. The queue leases no row of a finished
// grid, and stops once every grid has finished. Read each grid's
// winner with its Result afterwards.
func RunGrids(grids []*Grid) error {
	K := len(grids)
	if K == 0 {
		return nil
	}
	finished, left := make([]bool, K), K
	q := dispatch.NewQueue(K*grids[0].opts.LayoutTrials, 1, func(i int, row Row) bool {
		if k := i % K; grids[k].Consume(i/K, row) {
			finished[k], left = true, left-1
		}
		return left == 0
	})
	q.SetSkip(func(i int) bool { return finished[i%K] })
	// RunLocal numbers its workers below Size(parallelism). A panic
	// re-raised by RunLocal leaves the arenas to the garbage collector.
	parallelism := grids[0].opts.Parallelism
	runners := make([]TrialRunner, dispatch.Size(parallelism))
	err := dispatch.RunLocal(q, parallelism,
		func(w int) *TrialRunner {
			runners[w].arena = getArena()
			return &runners[w]
		},
		func(i int, r *TrialRunner) (Row, error) {
			g := grids[i%K]
			r.Bind(g.pc)
			return g.row(r, i/K), nil
		})
	for _, r := range runners {
		if r.arena != nil {
			putArena(r.arena)
		}
	}
	return err
}
