package sabre

import (
	"errors"
	"math"

	"repro/internal/circuit"
)

// Bound declares a lower bound on a Metric's score that a routing
// trial can track while it routes and that never decreases as the
// trial emits ops. FindBestRoutingPrepared uses it to stop a grid trial once
// its bound reaches a score of a lower-index trial (see Grid): ties
// break toward the lower index, so the cut trial could not have won.
// Winner, score, TrialsExecuted and the replayed Result are what the
// unpruned grid returns, at any Parallelism.
//
// A Bound is only valid for the metric it was declared for, so it is
// declared next to that metric (transpile does) and travels with the
// options handed to FindBestRoutingPrepared (LayoutOptions.WithBound).
// A grid without one — any caller-supplied Metric — is never cut.
type Bound struct {
	// depthCost is the cost a depth bound prices blocks with; nil
	// bounds the SWAP count. depthSlots prices the classes of the
	// routed circuit's class list as depthCost does.
	depthCost  circuit.CoordCost
	depthSlots *circuit.SlotCosts
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
//
// slots holds cost's prices of the classes of the routed circuit's
// class list (PreparedCircuit.Classes), which the bound reads by slot;
// a grid over a circuit with another list panics.
func DepthBound(cost circuit.CoordCost, slots *circuit.SlotCosts) *Bound {
	return &Bound{depthCost: cost, depthSlots: slots}
}

// WithBound returns o with b declared as the lower bound on the score
// of the metric passed along with o. The bound is not part of the
// options' wire form: a distributed trial job never cuts trials.
func (o LayoutOptions) WithBound(b *Bound) LayoutOptions {
	o.bound = b
	return o
}

// errTrialCut stops a route whose bound reached the score to beat.
var errTrialCut = errors.New("sabre: trial cut by its score bound")

// trialBound is a Bound prepared for one trial grid, plus the score
// the route checking it must stay below.
type trialBound struct {
	depth bool // bound BlockDepth's depth; otherwise the SWAP count
	cost  circuit.CoordCost
	slots *circuit.SlotCosts // cost's prices of the routed circuit's classes
	// tail[i] is op i's longest cost-weighted path to the sink; nil
	// disables the tail term.
	tail []float64
	// slack is the relative margin the tail term keeps when its float
	// sums can differ from the clocks' by rounding (0 when every price
	// is a multiple of 2⁻²⁰, which makes all sums exact).
	slack float64
	beat  float64 // the score a trial must stay below
}

// newTrialBound prepares b for a grid over pc routed with opts.
func newTrialBound(b *Bound, pc *PreparedCircuit, opts Options) *trialBound {
	tb := &trialBound{depth: b.depthCost != nil, cost: b.depthCost}
	if tb.depth {
		tb.slots = b.depthSlots
		if tb.slots.Classes != pc.Classes() {
			panic("sabre: a depth bound priced over another circuit's class list")
		}
		tb.tail, tb.slack = depthTail(pc, tb.slots.Costs, maxSwaps(opts, len(pc.Circ.Ops)))
	}
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
// plus the relative slack the tail term needs. prices holds the price
// of every slot of pc's class list.
func depthTail(pc *PreparedCircuit, prices []float64, swaps int) ([]float64, float64) {
	cls, slot := pc.mirrors.getClasses(), pc.mirrors.slot
	if pc.mirrors.multi {
		return nil, 0
	}
	exact, maxW := true, 0.0
	for _, p := range prices[1:] {
		exact = exact && dyadic(p)
		maxW = math.Max(maxW, p)
	}
	fd := pc.FD
	tail := make([]float64, fd.NumOps)
	for i := len(tail) - 1; i >= 0; i-- {
		w := 0.0
		if s := slot[i]; s != 0 {
			// The run of a payload op prices its class or, with an odd
			// number of router SWAPs, its mirror; a mirrored payload
			// carries the mirror, whose run may price the mirror's
			// mirror.
			m := cls.Mirror[s]
			w = math.Min(prices[s], math.Min(prices[m], prices[cls.Mirror[m]]))
		}
		longest := 0.0
		for _, s := range fd.SuccsOf(i) {
			longest = math.Max(longest, tail[s])
		}
		tail[i] = w + longest
	}
	// Every clock is a sum of at most one price per routed op, SWAPs
	// included; dyadic prices summed below 2³² stay exact in a float64.
	if !exact || float64(fd.NumOps+swaps)*maxW >= 1<<32 {
		return tail, 1e-9
	}
	return tail, 0
}

// dyadic reports whether x is a multiple of 2⁻²⁰ below 2²⁰.
func dyadic(x float64) bool {
	y := x * (1 << 20)
	return x >= 0 && x < 1<<20 && y == math.Trunc(y)
}
