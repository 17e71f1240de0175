package circuit

import (
	"repro/internal/gates"
	"repro/internal/linalg"
)

// ConsolidateBlocksOracle is ConsolidateBlocks as it was written
// before its open runs moved into per-wire slices: a map from wire
// pair to heap block, a map from wire to pair, and one append per
// output op. It is kept as the oracle the current implementation must
// match op for op (consolidate_test.go).
func ConsolidateBlocksOracle(c *Circuit) *Circuit {
	out := New(c.Name, c.NumQubits)

	type block struct {
		a, b    int // a < b
		leading [2]linalg.Mat2
		blockInterior
	}
	active := map[[2]int]*block{}
	owner := make(map[int][2]int) // qubit -> pair key
	pending := make([]linalg.Mat2, c.NumQubits)
	pendingSet := make([]bool, c.NumQubits)

	id2 := linalg.IdentityMat2()
	side := func(bl *block, q int) int {
		if q == bl.a {
			return 0
		}
		return 1
	}

	flush := func(bl *block) {
		delete(active, [2]int{bl.a, bl.b})
		delete(owner, bl.a)
		delete(owner, bl.b)
		full := embed1Q(bl.trailing[0], 0).Mul(embed1Q(bl.trailing[1], 1)).
			Mul(bl.interior).
			Mul(embed1Q(bl.leading[0], 0)).Mul(embed1Q(bl.leading[1], 1))
		coord := cachedCoordinateMat4(bl.interior)
		out.Append(Op{
			Gate:   gates.NewCustom("block", 2, full.ToMatrix()),
			Qubits: []int{bl.a, bl.b},
			Coord:  &coord,
		})
	}
	flushQubit := func(q int) {
		if key, ok := owner[q]; ok {
			flush(active[key])
		}
	}
	flushPending := func(q int) {
		if pendingSet[q] {
			out.Append(Op{Gate: gates.NewCustom("u", 1, pending[q].ToMatrix()), Qubits: []int{q}})
			pendingSet[q] = false
		}
	}

	for _, op := range c.Ops {
		switch len(op.Qubits) {
		case 1:
			q := op.Qubits[0]
			g := linalg.Mat2From(op.Gate.Matrix())
			if key, ok := owner[q]; ok {
				bl := active[key]
				bl.apply1Q(g, side(bl, q))
				continue
			}
			if !pendingSet[q] {
				pending[q] = g
				pendingSet[q] = true
			} else {
				pending[q] = g.Mul(pending[q])
			}
		case 2:
			a, b := op.Qubits[0], op.Qubits[1]
			if a > b {
				a, b = b, a
			}
			key := [2]int{a, b}
			if bl, ok := active[key]; ok {
				bl.apply2Q(op, a)
				continue
			}
			// The pair changes: close blocks that share a wire.
			flushQubit(a)
			flushQubit(b)
			bl := &block{a: a, b: b, leading: [2]linalg.Mat2{id2, id2}}
			bl.open(op, a)
			if pendingSet[a] {
				bl.leading[0] = pending[a]
				pendingSet[a] = false
			}
			if pendingSet[b] {
				bl.leading[1] = pending[b]
				pendingSet[b] = false
			}
			active[key] = bl
			owner[a], owner[b] = key, key
		default:
			// Multi-qubit op: flush everything it touches and emit as-is.
			for _, q := range op.Qubits {
				flushQubit(q)
				flushPending(q)
			}
			out.Append(op)
		}
	}
	// Flush remaining blocks in wire order for determinism.
	for q := 0; q < c.NumQubits; q++ {
		flushQubit(q)
	}
	for q := 0; q < c.NumQubits; q++ {
		flushPending(q)
	}
	return out
}
