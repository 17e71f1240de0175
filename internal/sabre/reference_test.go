package sabre

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/circuit"
	"repro/internal/gates"
	"repro/internal/topology"
	"repro/internal/weyl"
)

// RouteReference is the naive SABRE formulation: every stall rebuilds
// the front/lookahead pair sets and re-scores all pending gates for
// every SWAP candidate under a copied layout, where the engine scores
// each candidate by delta against per-stall scoring sets. It is kept as
// the executable specification of Route — the equivalence property
// tests (TestRouteMatchesReference and its circuit-size sweep) check the
// engine reproduces it bit-identically, and BenchmarkRouteWide
// measures the engine's speedup against it. Behaviour changes belong
// in both or neither.
//
// Like the engine, the reference runs against the immutable
// circuit.FlatDAG (with a freshly allocated traversal — the reference
// stays naive about state reuse, only the graph representation is
// shared), so both paths see the same execution schedule by
// construction. It routes pc.Circ on pc.Topo and offers a policy the
// slots of pc's class list, so a policy priced over pc.Classes()
// decides on it as on the engine's routes of pc.
func RouteReference(pc *PreparedCircuit, initial *topology.Layout,
	rng *rand.Rand, policy MirrorPolicy) (*Result, error) {

	c, topo := pc.Circ, pc.Topo
	var cls *circuit.Classes
	if policy != nil {
		cls = pc.Classes()
	}
	maxSteps := maxSwaps(len(c.Ops))

	layout := initial.Copy()
	fd := circuit.BuildFlatDAG(c)
	tr := fd.NewFlatTraversal()
	out := circuit.New(c.Name+"_routed", topo.NumQubits)
	decay := make([]float64, topo.NumQubits)
	resetDecay := func() {
		for i := range decay {
			decay[i] = 1.0
		}
	}
	resetDecay()

	res := &Result{InitialLayout: initial.Copy()}

	// routingCost captures the current front and lookahead op sets and
	// returns an evaluator for hypothetical layouts. When averaged is
	// true it computes the canonical SABRE score (mean front distance
	// plus weighted mean lookahead distance, used for SWAP selection);
	// otherwise it returns absolute sums (used by the mirror policy,
	// where the delta must be commensurable with decomposition costs).
	routingCost := func(skip int, averaged bool) func(*topology.Layout) float64 {
		var front [][2]int
		for _, idx := range tr.AppendReady(nil) {
			if int(idx) == skip {
				continue
			}
			op := c.Ops[idx]
			if op.Is2Q() {
				front = append(front, [2]int{op.Qubits[0], op.Qubits[1]})
			}
		}
		if skip >= 0 {
			// Mirror decision for op `skip`: its own direct successors
			// are the gates most affected by permuting its outputs, so
			// they join the front at full weight ("considering
			// downstream operations", paper Section III-D).
			for _, s := range fd.SuccsOf(skip) {
				op := c.Ops[s]
				if op.Is2Q() {
					front = append(front, [2]int{op.Qubits[0], op.Qubits[1]})
				}
			}
		}
		var ext [][2]int
		for _, idx := range tr.Descendants(extendedSetSize) {
			op := c.Ops[idx]
			if op.Is2Q() {
				ext = append(ext, [2]int{op.Qubits[0], op.Qubits[1]})
			}
		}
		return func(l *topology.Layout) float64 {
			var h float64
			if len(front) > 0 {
				var s float64
				for _, p := range front {
					s += float64(topo.Distance(l.Phys(p[0]), l.Phys(p[1])))
				}
				if averaged {
					s /= float64(len(front))
				}
				h += s
			}
			if len(ext) > 0 {
				var s float64
				for _, p := range ext {
					s += float64(topo.Distance(l.Phys(p[0]), l.Phys(p[1])))
				}
				if averaged {
					s /= float64(len(ext))
				}
				h += extendedSetWeight * s
			}
			return h
		}
	}

	steps := 0
	for !tr.Done() {
		// Execute everything currently executable.
		progress := true
		for progress {
			progress = false
			ready := tr.AppendReady(nil)
			for _, idx32 := range ready {
				idx := int(idx32)
				op := c.Ops[idx]
				switch len(op.Qubits) {
				case 1:
					out.Append(circuit.Op{
						Gate:   op.Gate,
						Qubits: []int{layout.Phys(op.Qubits[0])},
					})
					tr.Execute(idx)
					progress = true
				case 2:
					pa, pb := layout.Phys(op.Qubits[0]), layout.Phys(op.Qubits[1])
					if !topo.HasEdge(pa, pb) {
						continue
					}
					mirrored := false
					var mc weyl.Coordinate
					if policy != nil {
						// The engine annotates a mirror with its class
						// list's coordinate and prices both layouts in
						// place; the reference recomputes the coordinate
						// and prices the live layout and a swapped copy.
						mc = mirrorCoord(op)
						slot := pc.mirrors.slot[idx]
						ctx := &MirrorContext{Op: op, Classes: cls, Class: slot, MirrorClass: cls.Mirror[slot],
							RoutingCosts: func() (float64, float64) {
								cost := routingCost(idx, false)
								swapped := layout.Copy()
								swapped.SwapPhysical(pa, pb)
								return cost(layout), cost(swapped)
							}}
						mirrored = policy.Decide(ctx)
					}
					emit := circuit.Op{Gate: op.Gate, Qubits: []int{pa, pb}, Coord: op.Coord}
					if mirrored {
						emit.Gate = mirrorGate(op)
						emit.Mirrored = true
						emit.Coord = &mc
						res.MirrorsUsed++
					}
					out.Append(emit)
					res.TwoQubitGates++
					if mirrored {
						layout.SwapPhysical(pa, pb)
					}
					tr.Execute(idx)
					resetDecay()
					progress = true
				}
			}
		}
		if tr.Done() {
			break
		}

		// Stalled: pick the best SWAP.
		type cand struct{ a, b int }
		seen := map[cand]bool{}
		var candidates []cand
		for _, idx := range tr.AppendReady(nil) {
			op := c.Ops[idx]
			if !op.Is2Q() {
				continue
			}
			for _, lq := range op.Qubits {
				p := layout.Phys(lq)
				for _, nb := range topo.Neighbors(p) {
					k := cand{p, nb}
					if k.a > k.b {
						k.a, k.b = k.b, k.a
					}
					if !seen[k] {
						seen[k] = true
						candidates = append(candidates, k)
					}
				}
			}
		}
		if len(candidates) == 0 {
			return nil, fmt.Errorf("sabre: stalled with no swap candidates (disconnected topology?)")
		}
		cost := routingCost(-1, true)
		bestScore := 0.0
		bestIdx := -1
		for i, sc := range candidates {
			trial := layout.Copy()
			trial.SwapPhysical(sc.a, sc.b)
			d := decay[sc.a]
			if decay[sc.b] > d {
				d = decay[sc.b]
			}
			score := d * cost(trial)
			if bestIdx < 0 || score < bestScore-1e-12 ||
				(score < bestScore+1e-12 && rng.Intn(2) == 0) {
				bestScore, bestIdx = score, i
			}
		}
		chosen := candidates[bestIdx]
		out.Append(circuit.Op{
			Gate:       gates.SWAP(),
			Qubits:     []int{chosen.a, chosen.b},
			RouterSwap: true,
		})
		layout.SwapPhysical(chosen.a, chosen.b)
		res.SwapsInserted++
		decay[chosen.a] += decayRate
		decay[chosen.b] += decayRate
		steps++
		if steps%decayResetInterval == 0 {
			resetDecay()
		}
		if steps > maxSteps {
			return nil, fmt.Errorf("sabre: exceeded %d swap insertions; routing diverged", maxSteps)
		}
	}

	res.Routed = out
	res.FinalLayout = layout
	return res, nil
}

// mirrorCoord is the Weyl coordinate of op's mirror gate, recomputed
// from the op: the mirror of its own coordinate (paper Eq. 1).
func mirrorCoord(op circuit.Op) weyl.Coordinate {
	return weyl.Mirror(circuit.OpCoordinate(op))
}

// mustPrepare prepares c on topo for RouteReference, failing tb if the
// pair cannot route.
func mustPrepare(tb testing.TB, c *circuit.Circuit, topo *topology.Topology) *PreparedCircuit {
	tb.Helper()
	pc, err := PrepareCircuit(c, topo)
	if err != nil {
		tb.Fatal(err)
	}
	return pc
}
