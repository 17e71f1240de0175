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
// The bound also gives the grid a floor: the score of a route that
// meets the bound's least value, no SWAP for the SWAP count and the
// logical critical path at the cheapest classes for the depth. A trial
// at or below the floor wins, since a later trial could only tie, so
// the grid finishes there and routes no later trial. It counts those
// trials as executed, as it does cut trials, so TrialsExecuted is
// still the unpruned grid's.
//
// A Bound is only valid for the metric it was declared for, so it is
// declared next to that metric (transpile does) and travels with the
// options handed to FindBestRoutingPrepared (LayoutOptions.WithBound).
// A grid without one — any caller-supplied Metric — is never cut.
type Bound struct {
	// depthSlots prices the classes of the routed circuit's class
	// list for a depth bound; nil bounds the SWAP count.
	depthSlots *circuit.SlotCosts
}

var swapCountBound = &Bound{}

// SwapCountBound bounds SwapCountMetric: a trial's inserted SWAPs
// only grow.
func SwapCountBound() *Bound { return swapCountBound }

// DepthBound bounds a metric equal to circuit.BlockDepth's depth of
// the routed circuit priced as slots prices its classes
// (mirage.DepthMetric), using two bounds that only grow:
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
// slots holds the non-negative prices of the classes of the routed
// circuit's class list (PreparedCircuit.Classes). Every run of a
// bounded route carries a slot, so the bound reads every price by
// slot; a grid over a circuit with another list panics. The routed
// circuit must be a ConsolidateBlocks output, as circuit.BlockDepth
// requires: the tail term needs every run to hold at most one payload
// gate.
func DepthBound(slots *circuit.SlotCosts) *Bound {
	return &Bound{depthSlots: slots}
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
	// slots prices the routed circuit's classes for a bound on
	// BlockDepth's depth; nil bounds the SWAP count.
	slots *circuit.SlotCosts
	// tail[i] is op i's longest price-weighted path to the sink.
	tail []float64
	// slack is the relative margin the tail term keeps when its float
	// sums can differ from the clocks' by rounding (0 when every price
	// is a multiple of 2⁻²⁰, which makes all sums exact).
	slack float64
	beat  float64 // the score a trial must stay below
}

// newTrialBound prepares b for a grid over pc.
func newTrialBound(b *Bound, pc *PreparedCircuit) *trialBound {
	tb := &trialBound{slots: b.depthSlots}
	if tb.slots != nil {
		if tb.slots.Classes != pc.Classes() {
			panic("sabre: a depth bound priced over another circuit's class list")
		}
		tb.tail, tb.slack = depthTail(pc, tb.slots.Costs, maxSwaps(len(pc.Circ.Ops)))
	}
	return tb
}

// floor returns the lowest score the bounded metric can give any
// route of the grid's circuit: no SWAP for the SWAP count, and for the
// depth the longest tail in the DAG, less the slack the tail keeps.
func (b *trialBound) floor() float64 {
	f := 0.0
	for _, x := range b.tail {
		f = math.Max(f, x)
	}
	return f - b.slack*f
}

// depthReached reports whether the depth pass, just fed a 2Q op on
// physical wires (pa, pb) that routes logical op idx (idx < 0 for a
// router SWAP), reached the score to beat.
func (b *trialBound) depthReached(bd *circuit.BlockDepth, pa, pb, idx int) bool {
	if bd.Closed() >= b.beat {
		return true
	}
	if idx < 0 {
		return false
	}
	start := bd.Clock(pa)
	if s := bd.Clock(pb); s > start {
		start = s
	}
	lb := start + b.tail[idx]
	return lb-b.slack*lb >= b.beat
}

// depthTail returns every op's price-weighted longest path to the
// sink of pc's DAG, plus the relative slack the tail term needs.
// prices holds the price of every slot of pc's class list.
func depthTail(pc *PreparedCircuit, prices []float64, swaps int) ([]float64, float64) {
	cls, slot := pc.mirrors.getClasses(), pc.mirrors.slot
	exact, maxW := true, 0.0
	for _, p := range prices[1:] {
		exact = exact && dyadic(p)
		maxW = math.Max(maxW, p)
	}
	fd := pc.FD()
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
