package sabre

import (
	"errors"
	"math"
	"sync/atomic"

	"repro/internal/circuit"
	"repro/internal/weyl"
)

// Bound declares a lower bound on a Metric's score that a routing
// trial can track while it routes and that never decreases as the
// trial emits ops. FindBestRouting uses it to stop a grid trial once
// its bound reaches the best score among the trials the selector has
// already consumed: those all have lower indices and ties break toward
// the lower index, so the cut trial could not have won. Winner, score,
// TrialsExecuted and the replayed Result are what the unpruned grid
// returns, at any Parallelism.
//
// A Bound is only valid for the metric it was declared for, so it is
// declared next to that metric (transpile does) and travels with the
// options handed to FindBestRoutingPrepared (LayoutOptions.WithBound).
// A grid without one — any caller-supplied Metric — is never cut.
type Bound struct {
	// depthCost is the cost a depth bound prices blocks with; nil
	// bounds the SWAP count.
	depthCost circuit.CoordCost
}

var swapCountBound = &Bound{}

// SwapCountBound bounds SwapCountMetric: a trial's inserted SWAPs
// only grow.
func SwapCountBound() *Bound { return swapCountBound }

// DepthBound bounds a metric equal to circuit.BlockDepth's depth of
// the routed circuit priced by cost (mirage.DepthMetric), using two
// bounds that only grow:
//
//   - the latest finish time over the runs the router's own BlockDepth
//     pass has closed (the metric's final pass computes the same
//     clocks bit for bit);
//   - at each emitted gate, the time its run starts plus the gate's
//     tail: the longest path from it to the sink of the logical DAG,
//     each 2Q op priced at the cheapest class its run can take (its
//     coordinate, its mirror, its mirror's mirror). A run cannot start
//     earlier and routing cannot beat the logical critical path.
//
// The tail term needs every run to hold at most one payload gate,
// which holds when no two consecutive gates on a wire pair share both
// wires (a ConsolidateBlocks output); on other circuits only the
// closed-run bound is used. cost must be non-negative.
func DepthBound(cost circuit.CoordCost) *Bound { return &Bound{depthCost: cost} }

// WithBound returns o with b declared as the lower bound on the score
// of the metric passed along with o. The bound is not part of the
// options' wire form: a distributed trial job never cuts trials.
func (o LayoutOptions) WithBound(b *Bound) LayoutOptions {
	o.bound = b
	return o
}

// errTrialCut stops a route whose bound reached the score to beat.
var errTrialCut = errors.New("sabre: trial cut by its score bound")

// gridBound is a Bound prepared for one trial grid: the tail of every
// op and the best score consumed so far, which workers read when a
// trial starts.
type gridBound struct {
	trialBound
	best atomic.Uint64 // float64 bits; +Inf until a trial is consumed
}

// trialBound is what one route checks against.
type trialBound struct {
	depth bool // bound BlockDepth's depth; otherwise the SWAP count
	cost  circuit.CoordCost
	// tail[i] is op i's longest cost-weighted path to the sink; nil
	// disables the tail term.
	tail []float64
	// slack is the relative margin the tail term keeps when its float
	// sums can differ from the clocks' by rounding (0 when every price
	// is a multiple of 2⁻²⁰, which makes all sums exact).
	slack float64
	beat  float64 // the score a trial must stay below
}

// newGridBound prepares b for a grid over pc routed with opts.
func newGridBound(b *Bound, pc *PreparedCircuit, opts Options) *gridBound {
	g := &gridBound{trialBound: trialBound{depth: b.depthCost != nil, cost: b.depthCost}}
	g.best.Store(math.Float64bits(math.Inf(1)))
	if g.depth {
		g.tail, g.slack = depthTail(pc, b.depthCost, maxSwaps(opts, len(pc.Circ.Ops)))
	}
	return g
}

// consume is the selector's Consume, publishing the new best score.
func (g *gridBound) consume(sel *TrialSelector) func(t int, score float64) bool {
	return func(t int, score float64) bool {
		stop := sel.Consume(t, score)
		_, best := sel.Best()
		g.best.Store(math.Float64bits(best))
		return stop
	}
}

// forTrial fills tb with the bound a trial starting now checks and
// returns it, or returns nil when there is none: on a nil grid bound,
// and until a trial was consumed.
func (g *gridBound) forTrial(tb *trialBound) *trialBound {
	if g == nil {
		return nil
	}
	beat := math.Float64frombits(g.best.Load())
	if math.IsInf(beat, 1) {
		return nil
	}
	*tb = g.trialBound
	tb.beat = beat
	return tb
}

// depthReached reports whether the depth pass, just fed a 2Q op on
// physical wires (pa, pb) that routes logical op idx (idx < 0 for a
// router SWAP), reached the score to beat.
func (b *trialBound) depthReached(bd *circuit.BlockDepth, pa, pb, idx int) bool {
	if bd.Closed() >= b.beat {
		return true
	}
	if idx < 0 || b.tail == nil {
		return false
	}
	start := bd.Clock(pa)
	if s := bd.Clock(pb); s > start {
		start = s
	}
	lb := start + b.tail[idx]
	return lb-b.slack*lb >= b.beat
}

// depthTail returns every op's cost-weighted longest path to the sink
// of pc's DAG, or nil when a routed run could hold two payload gates,
// plus the relative slack the tail term needs.
func depthTail(pc *PreparedCircuit, cost circuit.CoordCost, swaps int) ([]float64, float64) {
	c, fd := pc.Circ, pc.FD
	if multiPayloadPossible(fd) {
		return nil, 0
	}
	mirrors := pc.mirrors.get()
	exact := dyadic(cost(weyl.SwapCoord)) && dyadic(cost(weyl.IdentityCoord))
	maxW := cost(weyl.SwapCoord)
	minCost := make(map[weyl.Coordinate]float64)
	tail := make([]float64, len(c.Ops))
	for i := len(c.Ops) - 1; i >= 0; i-- {
		w := 0.0
		if c.Ops[i].Is2Q() {
			coord := circuit.OpCoordinate(c.Ops[i])
			var ok bool
			if w, ok = minCost[coord]; !ok {
				// The run of a payload op prices its coordinate or, with
				// an odd number of router SWAPs, its mirror; a mirrored
				// payload carries the mirror, whose run may price the
				// mirror's mirror.
				mm := weyl.Mirror(mirrors.coord[i])
				prices := [3]float64{cost(coord), cost(mirrors.coord[i]), cost(mm)}
				w = math.Min(prices[0], math.Min(prices[1], prices[2]))
				for _, p := range prices {
					exact = exact && dyadic(p)
					maxW = math.Max(maxW, p)
				}
				minCost[coord] = w
			}
		}
		longest := 0.0
		for _, s := range fd.SuccsOf(i) {
			longest = math.Max(longest, tail[s])
		}
		tail[i] = w + longest
	}
	// Every clock is a sum of at most one price per routed op, SWAPs
	// included; dyadic prices summed below 2³² stay exact in a float64.
	if !exact || float64(len(c.Ops)+swaps)*maxW >= 1<<32 {
		return tail, 1e-9
	}
	return tail, 0
}

// dyadic reports whether x is a multiple of 2⁻²⁰ below 2²⁰.
func dyadic(x float64) bool {
	y := x * (1 << 20)
	return x >= 0 && x < 1<<20 && y == math.Trunc(y)
}

// multiPayloadPossible reports whether some 2Q op's next 2Q op on both
// of its wires is one op — the only way a routed same-pair run can
// hold two payload gates.
func multiPayloadPossible(fd *circuit.FlatDAG) bool {
	c := fd.Circ
	next := make([]int, c.NumQubits) // next 2Q op on each wire, scanning backward
	for q := range next {
		next[q] = -1
	}
	for i := len(c.Ops) - 1; i >= 0; i-- {
		op := c.Ops[i]
		if !op.Is2Q() {
			continue
		}
		a, b := op.Qubits[0], op.Qubits[1]
		if next[a] >= 0 && next[a] == next[b] {
			return true
		}
		next[a], next[b] = i, i
	}
	return false
}
