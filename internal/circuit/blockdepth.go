package circuit

import (
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
// A BlockDepth holds reusable per-wire buffers: after the first call
// on a circuit of a given width, Depth allocates nothing. It is
// single-goroutine; use one per worker (or a sync.Pool).
type BlockDepth struct {
	clock []float64  // per-wire finish time
	owner []int32    // lower wire of the open run holding the wire, or -1
	runs  []blockRun // open runs, indexed by their lower wire
	// Fallbacks counts the runs the last Depth call closed through the
	// matrix fallback (two or more payload ops).
	Fallbacks int
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
func (r *blockRun) absorb(op Op, i int) {
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
func (p *BlockDepth) Depth(c *Circuit, cost CoordCost) float64 {
	p.reset(c.NumQubits)
	var depth float64
	for i, op := range c.Ops {
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
				continue
			}
			// The pair changes: close the runs that share a wire.
			depth = p.close(c, a, cost, depth)
			depth = p.close(c, b, cost, depth)
			p.runs[a] = blockRun{b: b, first: i}
			p.runs[a].absorb(op, i)
			p.owner[a], p.owner[b] = int32(a), int32(a)
		default:
			start := 0.0
			for _, q := range op.Qubits {
				depth = p.close(c, q, cost, depth)
				if p.clock[q] > start {
					start = p.clock[q]
				}
			}
			for _, q := range op.Qubits {
				p.clock[q] = start
			}
		}
	}
	for q := range p.owner {
		depth = p.close(c, q, cost, depth)
	}
	return depth
}

// reset sizes the buffers for n wires and clears them.
func (p *BlockDepth) reset(n int) {
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
	p.Fallbacks = 0
}

// close prices and closes the run holding wire q, if any, and returns
// the updated circuit depth.
func (p *BlockDepth) close(c *Circuit, q int, cost CoordCost, depth float64) float64 {
	a := p.owner[q]
	if a < 0 {
		return depth
	}
	r := &p.runs[a]
	w := cost(p.class(c, int(a), r))
	start := 0.0
	if p.clock[a] > start {
		start = p.clock[a]
	}
	if p.clock[r.b] > start {
		start = p.clock[r.b]
	}
	end := start + w
	p.clock[a], p.clock[r.b] = end, end
	p.owner[a], p.owner[r.b] = -1, -1
	if end > depth {
		depth = end
	}
	return depth
}

// class returns the Weyl coordinate of run r on wires (a, r.b).
func (p *BlockDepth) class(c *Circuit, a int, r *blockRun) weyl.Coordinate {
	switch {
	case r.payloads >= 2:
		p.Fallbacks++
		return cachedCoordinateMat4(runInterior(c.Ops[r.first:r.last+1], a, r.b))
	case r.payloads == 1:
		coord := OpCoordinate(c.Ops[r.payload])
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
