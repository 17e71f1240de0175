package circuit

import (
	"sync"

	"repro/internal/linalg"
	"repro/internal/weyl"
)

// CoordCost prices a 2Q block by the Weyl coordinate of its local-
// equivalence class.
type CoordCost func(weyl.Coordinate) float64

// BlockDepth is the streaming form of ConsolidateBlocks followed by
// Depth: it returns the weighted critical-path depth the consolidated
// circuit would have, where every 2Q block weighs cost(its coordinate)
// and every other op weighs nothing, without building the consolidated
// circuit — no block matrices, no gates, no ops.
//
// The pass keeps one clock per wire and at most one open "run" per
// wire, grouped exactly as ConsolidateBlocks groups blocks: a 2Q op on
// the pair of the run its wires hold joins that run; a 2Q op on a
// different pair closes the runs on its wires and opens a new one; 1Q
// ops never break a run; an op on more than two qubits closes the runs
// it touches and synchronises its wires. Closing a run prices it by
// its class, derived from the paper's mirror identity (Eq. 1: U·SWAP
// is locally equivalent to Mirror(U), whatever 1Q layers sit between
// them):
//
//   - a run holds router SWAPs (ops marked RouterSwap, which must be
//     SWAP gates) and payload ops (every other 2Q op);
//   - with one payload, the class is OpCoordinate(payload) when the run
//     holds an even number of router SWAPs and its mirror when odd;
//   - with no payload, the class is the SWAP for odd parity and the
//     identity for even parity (which still synchronises both wires);
//   - with two or more payloads — which routing a ConsolidateBlocks
//     output never produces — the run's interior is multiplied out
//     exactly as ConsolidateBlocks does and its coordinate taken from
//     the shared coordinate cache. Fallbacks counts these runs.
//
// A pass that prices by slot (DepthSlots, PriceSlots) reads the same
// class from the circuit's class list instead: the payload's slot
// (Op.Class) or its mirror's, the SWAP's or the identity's, and looks
// its price up by index; only a run without a slot is priced by its
// coordinate.
//
// Runs close in the order in which ConsolidateBlocks emits its
// blocks. So after Finish, Blocks is the consolidated circuit's 2Q op
// count and Total sums the blocks' prices in that circuit's op order:
// both equal what a count and a sum over ConsolidateBlocks' output
// give, under the same condition as Depth.
//
// The pass is push-style: Start, then Push each op in order, then
// Finish. Depth runs it over a whole circuit; the router runs it over
// the ops it emits, reading Closed and Clock as a trial's lower bound
// while it routes. The trial bound, the trial metric
// (mirage.DepthMetric) and a transpile report's depth and gate counts
// all come from this one pass, so a winner's selection score and its
// reported depth agree by construction. A BlockDepth holds reusable
// per-wire buffers: after the first pass over a given width it
// allocates nothing. It is single-goroutine; use one per worker, or
// borrow one from the package's pool (GetBlockDepth).
type BlockDepth struct {
	clock  []float64  // per-wire finish time
	owner  []int32    // lower wire of the open run holding the wire, or -1
	runs   []blockRun // open runs, indexed by their lower wire
	cost   CoordCost
	slots  *SlotCosts // non-nil: price classed runs by slot (PriceSlots)
	closed float64    // latest finish time over the closed runs
	total  float64    // summed price of the closed runs, in closing order
	blocks int        // number of closed runs
	// Fallbacks counts the runs the current pass closed through the
	// matrix fallback (two or more payload ops).
	Fallbacks int
}

// blockDepths holds passes between calls, so a caller that measures
// or scores per call reuses the per-wire buffers earlier calls grew.
var blockDepths = sync.Pool{New: func() any { return new(BlockDepth) }}

// GetBlockDepth borrows a pass from the package's pool; PutBlockDepth
// returns it. Every per-call depth pass (a trial metric, a report's
// measurement) shares the pool.
func GetBlockDepth() *BlockDepth { return blockDepths.Get().(*BlockDepth) }

// PutBlockDepth returns p to the pool, dropping its prices.
func PutBlockDepth(p *BlockDepth) {
	p.cost, p.slots = nil, nil
	blockDepths.Put(p)
}

// blockRun is one open same-pair run, stored at its lower wire.
type blockRun struct {
	b           int // upper wire
	first, last int // op indices of the run's first and latest 2Q ops
	payload     int // op index of the run's payload (meaningful when payloads == 1)
	payloads    int // non-router-SWAP 2Q ops in the run
	swaps       int // router SWAPs in the run
}

// absorb adds the 2Q op at index i to the run.
func (r *blockRun) absorb(op *Op, i int) {
	r.last = i
	if op.RouterSwap {
		r.swaps++
		return
	}
	r.payload = i
	r.payloads++
}

// Depth returns ConsolidateBlocks(c).Depth(w) for the weight w that
// prices a 2Q op at cost(OpCoordinate(op)) and every other op at zero,
// provided the 2Q ops' Coord annotations (where present) are their
// true coordinates. Clocks advance by the same float64 additions in
// the same per-wire order as Depth over the consolidated circuit, so
// the result is equal, not merely close, whenever cost agrees on each
// block's class and its consolidated coordinate.
func (p *BlockDepth) Depth(c *Circuit, cost CoordCost) float64 { return p.DepthSlots(c, cost, nil) }

// DepthSlots is Depth pricing by slot: when c's ops carry slots
// (c.Classes is set), a run whose class has a slot is priced
// sc.Costs[slot] instead of cost(class). sc must price every slot as
// cost prices its class, so the result is Depth's; only the lookups
// are cheaper. A circuit without slots, or a nil sc, is priced by
// coordinate; slots of a class list other than sc's panic.
func (p *BlockDepth) DepthSlots(c *Circuit, cost CoordCost, sc *SlotCosts) float64 {
	p.Start(c.NumQubits, cost)
	if sc != nil && c.Classes != nil {
		if c.Classes != sc.Classes {
			panic("circuit: DepthSlots prices the slots of another class list")
		}
		p.PriceSlots(sc)
	}
	for i := range c.Ops {
		p.Push(c.Ops, i)
	}
	return p.Finish(c.Ops)
}

// PriceSlots makes the pass price the runs of the ops pushed from now
// on by slot, as DepthSlots does: those ops' Class slots must index
// sc's class list. Start undoes it.
func (p *BlockDepth) PriceSlots(sc *SlotCosts) { p.slots = sc }

// Start rewinds the pass for a circuit on n wires priced by cost.
func (p *BlockDepth) Start(n int, cost CoordCost) {
	if cap(p.clock) < n {
		p.clock = make([]float64, n)
		p.owner = make([]int32, n)
		p.runs = make([]blockRun, n)
	}
	p.clock, p.owner, p.runs = p.clock[:n], p.owner[:n], p.runs[:n]
	for q := range p.clock {
		p.clock[q] = 0
		p.owner[q] = -1
	}
	p.cost, p.slots = cost, nil
	p.closed, p.total, p.blocks = 0, 0, 0
	p.Fallbacks = 0
}

// Push feeds ops[i] to the pass; the ops before it must have been
// pushed in order. 1Q ops neither weigh nor break a run, so a caller
// may skip pushing them, but they must stay in ops: a run's matrix
// fallback multiplies out every op between its bounds.
func (p *BlockDepth) Push(ops []Op, i int) {
	op := &ops[i]
	switch len(op.Qubits) {
	case 1:
		// 1Q ops weigh nothing and never break a run.
	case 2:
		a, b := op.Qubits[0], op.Qubits[1]
		if a > b {
			a, b = b, a
		}
		if p.owner[a] == int32(a) && p.runs[a].b == b {
			p.runs[a].absorb(op, i)
			return
		}
		// The pair changes: close the runs that share a wire.
		p.close(ops, a)
		p.close(ops, b)
		p.runs[a] = blockRun{b: b, first: i}
		p.runs[a].absorb(op, i)
		p.owner[a], p.owner[b] = int32(a), int32(a)
	default:
		start := 0.0
		for _, q := range op.Qubits {
			p.close(ops, q)
			if p.clock[q] > start {
				start = p.clock[q]
			}
		}
		for _, q := range op.Qubits {
			p.clock[q] = start
		}
	}
}

// Closed returns the latest finish time over the runs closed so far.
// It never decreases as ops are pushed and never exceeds Finish's
// result: it is exactly the depth of the pushed prefix minus its open
// runs.
func (p *BlockDepth) Closed() float64 { return p.closed }

// Total returns the summed price of the runs closed so far, added in
// closing order; after Finish it is the consolidated circuit's total
// 2Q cost.
func (p *BlockDepth) Total() float64 { return p.total }

// Blocks returns the number of runs closed so far; after Finish it is
// the consolidated circuit's 2Q op count.
func (p *BlockDepth) Blocks() int { return p.blocks }

// Clock returns wire q's finish time over the closed runs. While a run
// is open on q, no other run can close on q, so this is the time that
// run will start at.
func (p *BlockDepth) Clock(q int) float64 { return p.clock[q] }

// Finish closes every open run and returns the depth of the pushed
// circuit, whose ops are ops.
func (p *BlockDepth) Finish(ops []Op) float64 {
	for q := range p.owner {
		p.close(ops, q)
	}
	return p.closed
}

// close prices and closes the run holding wire q, if any.
func (p *BlockDepth) close(ops []Op, q int) {
	a := p.owner[q]
	if a < 0 {
		return
	}
	r := &p.runs[a]
	w := p.price(ops, int(a), r)
	start := 0.0
	if p.clock[a] > start {
		start = p.clock[a]
	}
	if p.clock[r.b] > start {
		start = p.clock[r.b]
	}
	end := start + w
	p.total += w
	p.blocks++
	p.clock[a], p.clock[r.b] = end, end
	p.owner[a], p.owner[r.b] = -1, -1
	if end > p.closed {
		p.closed = end
	}
}

// price returns the price of run r on wires (a, r.b): by slot when
// the pass prices slots and the run's class has one, else by its
// coordinate.
func (p *BlockDepth) price(ops []Op, a int, r *blockRun) float64 {
	if p.slots != nil {
		if s := p.slot(ops, r); s != 0 {
			return p.slots.Costs[s]
		}
	}
	return p.cost(p.class(ops, a, r))
}

// slot returns the slot of the class class returns for run r, or 0
// when it has none: the run multiplies out, or its payload has no slot.
func (p *BlockDepth) slot(ops []Op, r *blockRun) int32 {
	switch {
	case r.payloads >= 2:
		return 0
	case r.payloads == 1:
		s := ops[r.payload].Class
		if s != 0 && r.swaps%2 == 1 {
			s = p.slots.Classes.Mirror[s]
		}
		return s
	case r.swaps%2 == 1:
		return SwapSlot
	default:
		return IdentitySlot
	}
}

// class returns the Weyl coordinate of run r on wires (a, r.b).
func (p *BlockDepth) class(ops []Op, a int, r *blockRun) weyl.Coordinate {
	switch {
	case r.payloads >= 2:
		p.Fallbacks++
		return cachedCoordinateMat4(runInterior(ops[r.first:r.last+1], a, r.b))
	case r.payloads == 1:
		coord := OpCoordinate(ops[r.payload])
		if r.swaps%2 == 1 {
			coord = weyl.Mirror(coord)
		}
		return coord
	case r.swaps%2 == 1:
		return weyl.SwapCoord
	default:
		return weyl.IdentityCoord
	}
}

// runInterior multiplies out the interior of the run on (a, b) whose
// first and latest 2Q ops bound ops. Inside those bounds an op whose
// first wire is a or b belongs to the run: a 2Q op on another pair
// sharing a wire, or a wider op, would have closed it.
func runInterior(ops []Op, a, b int) linalg.Mat4 {
	var bi blockInterior
	bi.open(ops[0], a)
	for _, op := range ops[1:] {
		q := op.Qubits[0]
		if q != a && q != b {
			continue
		}
		if len(op.Qubits) == 2 {
			bi.apply2Q(op, a)
			continue
		}
		s := 0
		if q == b {
			s = 1
		}
		bi.apply1Q(linalg.Mat2From(op.Gate.Matrix()), s)
	}
	return bi.interior
}
