package circuit

import (
	"math"
	"sync"

	"repro/internal/gates"
	"repro/internal/linalg"
	"repro/internal/weyl"
)

// ConsolidateBlocks merges maximal runs of gates acting within a
// single qubit pair into one 2Q "block" op whose Weyl coordinate is
// annotated. This mirrors Qiskit's ConsolidateBlocks pass with the
// paper's performance rewrite (Section VI-C / Fig. 13a): the
// coordinate is computed from the block *interior* — exterior 1Q
// layers cannot change it — and the interior unitary doubles as the
// key of a process-wide coordinate cache.
//
// All block accumulation runs on the fixed-size linalg.Mat2/Mat4
// value kernels: absorbing a gate into a block is pure stack
// arithmetic. The open runs live in per-wire slices, as in
// BlockDepth: a run sits at its lower wire and every wire records the
// run holding it. The output's ops, their qubits and the blocks'
// coordinates each go into one slice sized from the input, so an
// emitted block or 1Q gate allocates only its matrix.
func ConsolidateBlocks(c *Circuit) *Circuit {
	n := c.NumQubits
	k := consolidator{
		out:        New(c.Name, n),
		runs:       make([]openBlock, n),
		owner:      make([]int32, n),
		pending:    make([]linalg.Mat2, n),
		pendingSet: make([]bool, n),
	}
	// Every emitted block or 1Q gate absorbs at least one input op of
	// its width, so the input bounds each output slice.
	wires, pairs := 0, 0
	for _, op := range c.Ops {
		switch len(op.Qubits) {
		case 1:
			wires++
		case 2:
			wires += 2
			pairs++
		}
	}
	k.out.Ops = make([]Op, 0, len(c.Ops))
	k.qubits = make([]int, 0, wires)
	k.coords = make([]weyl.Coordinate, 0, pairs)
	for q := range k.owner {
		k.owner[q] = -1
	}

	id2 := linalg.IdentityMat2()
	for _, op := range c.Ops {
		switch len(op.Qubits) {
		case 1:
			q := op.Qubits[0]
			g := linalg.Mat2From(op.Gate.Matrix())
			if a := k.owner[q]; a >= 0 {
				s := 0
				if q != int(a) {
					s = 1
				}
				k.runs[a].apply1Q(g, s)
				continue
			}
			if !k.pendingSet[q] {
				k.pending[q] = g
				k.pendingSet[q] = true
			} else {
				k.pending[q] = g.Mul(k.pending[q])
			}
		case 2:
			a, b := op.Qubits[0], op.Qubits[1]
			if a > b {
				a, b = b, a
			}
			if k.owner[a] == int32(a) && k.runs[a].b == b {
				k.runs[a].apply2Q(op, a)
				continue
			}
			// The pair changes: close blocks that share a wire.
			k.flush(a)
			k.flush(b)
			bl := &k.runs[a]
			bl.b, bl.leading = b, [2]linalg.Mat2{id2, id2}
			bl.open(op, a)
			if k.pendingSet[a] {
				bl.leading[0] = k.pending[a]
				k.pendingSet[a] = false
			}
			if k.pendingSet[b] {
				bl.leading[1] = k.pending[b]
				k.pendingSet[b] = false
			}
			k.owner[a], k.owner[b] = int32(a), int32(a)
		default:
			// Multi-qubit op: flush everything it touches and emit as-is.
			for _, q := range op.Qubits {
				k.flush(q)
				k.flushPending(q)
			}
			k.out.Append(op)
		}
	}
	// Flush remaining blocks in wire order for determinism.
	for q := 0; q < n; q++ {
		k.flush(q)
	}
	for q := 0; q < n; q++ {
		k.flushPending(q)
	}
	return k.out
}

// consolidator is ConsolidateBlocks' state: the open runs, indexed by
// their lower wire; per wire, the lower wire of the run holding it
// (-1: none) and the 1Q product waiting for the wire's next block; and
// the output with the slices its qubits and coordinates are cut from.
type consolidator struct {
	out        *Circuit
	runs       []openBlock
	owner      []int32
	pending    []linalg.Mat2
	pendingSet []bool
	qubits     []int
	coords     []weyl.Coordinate
}

// openBlock is an open run on wires (its index in runs, b): the 1Q
// layers before its first 2Q gate, then its interior.
type openBlock struct {
	b       int
	leading [2]linalg.Mat2
	blockInterior
}

// flush emits the block holding wire q, if any, and closes it.
func (k *consolidator) flush(q int) {
	a := k.owner[q]
	if a < 0 {
		return
	}
	bl := &k.runs[a]
	k.owner[a], k.owner[bl.b] = -1, -1
	full := embed1Q(bl.trailing[0], 0).Mul(embed1Q(bl.trailing[1], 1)).
		Mul(bl.interior).
		Mul(embed1Q(bl.leading[0], 0)).Mul(embed1Q(bl.leading[1], 1))
	k.coords = append(k.coords, cachedCoordinateMat4(bl.interior))
	k.out.Append(Op{
		Gate:   gates.NewCustom("block", 2, full.ToMatrix()),
		Qubits: k.cut(int(a), bl.b),
		Coord:  &k.coords[len(k.coords)-1],
	})
}

// flushPending emits wire q's waiting 1Q product, if any.
func (k *consolidator) flushPending(q int) {
	if k.pendingSet[q] {
		k.out.Append(Op{Gate: gates.NewCustom("u", 1, k.pending[q].ToMatrix()), Qubits: k.cut(q)})
		k.pendingSet[q] = false
	}
}

// cut appends qs to the shared qubit slice and returns them as a
// slice of their own capacity, so no append through it reaches a
// neighbour's qubits.
func (k *consolidator) cut(qs ...int) []int {
	lo := len(k.qubits)
	k.qubits = append(k.qubits, qs...)
	return k.qubits[lo:len(k.qubits):len(k.qubits)]
}

// blockInterior is the running product of one block's interior: the
// 2Q gates of the run and the 1Q gates between them, in the block's
// (a, b) wire order. 1Q gates after the latest 2Q gate wait in
// trailing — they are exterior unless another 2Q gate of the run
// follows.
type blockInterior struct {
	interior linalg.Mat4
	trailing [2]linalg.Mat2
}

// open starts the interior with the block's first 2Q gate on (a, b).
func (bi *blockInterior) open(op Op, a int) {
	id2 := linalg.IdentityMat2()
	bi.interior = orientMat4(op, a)
	bi.trailing = [2]linalg.Mat2{id2, id2}
}

// apply1Q records a 1Q gate on side s of the block (0 = wire a).
func (bi *blockInterior) apply1Q(g linalg.Mat2, s int) {
	bi.trailing[s] = g.Mul(bi.trailing[s])
}

// apply2Q folds any trailing 1Q layers back into the interior, then
// absorbs op.
func (bi *blockInterior) apply2Q(op Op, a int) {
	id2 := linalg.IdentityMat2()
	for s := 0; s < 2; s++ {
		bi.interior = embed1Q(bi.trailing[s], s).Mul(bi.interior)
		bi.trailing[s] = id2
	}
	bi.interior = orientMat4(op, a).Mul(bi.interior)
}

// swap4 is the SWAP unitary orientMat4 conjugates by.
var swap4 = swapMat4()

// orientMat4 returns a 2Q op's matrix in (a, b) wire order.
func orientMat4(op Op, a int) linalg.Mat4 {
	g := linalg.Mat4From(op.Gate.Matrix())
	if op.Qubits[0] == a {
		return g
	}
	return swap4.Mul(g).Mul(swap4)
}

// embed1Q lifts a 1Q matrix onto side s of a wire pair; wire a (s = 0)
// is the most significant bit of the 4x4 index.
func embed1Q(m linalg.Mat2, s int) linalg.Mat4 {
	if s == 0 {
		return m.KronI()
	}
	return m.IKron()
}

// --- Coordinate cache (paper Fig. 13a) ---

// coordKey is a block interior's exact key: the IEEE-754 bits of the
// real and imaginary parts of its 16 entries. Interiors share an entry
// only when they are bit-identical, so a hit returns exactly what
// weyl.CoordinateOfMat4 computes for the matrix at hand. (Keying on
// the Mat4 value would merge -0 with +0, which cmplx.Phase tells
// apart, and a NaN key would never hit.)
type coordKey [32]uint64

func keyOf(m linalg.Mat4) coordKey {
	var k coordKey
	for i, v := range m {
		k[2*i] = math.Float64bits(real(v))
		k[2*i+1] = math.Float64bits(imag(v))
	}
	return k
}

// coordCacheCap bounds the cache; it is cleared when full. A
// long-running worker or service would otherwise only grow it, while
// one small-mirror or Fig. 12 benchmark run fills a few thousand.
const coordCacheCap = 1 << 15

var (
	coordCache   = map[coordKey]weyl.Coordinate{}
	coordCacheMu sync.Mutex
	coordHits    int64
	coordMisses  int64
)

// cachedCoordinate returns the Weyl coordinate of a 4x4 unitary,
// memoised on the exact matrix entries.
func cachedCoordinate(m *linalg.Matrix) weyl.Coordinate {
	return cachedCoordinateMat4(linalg.Mat4From(m))
}

// cachedCoordinateMat4 is cachedCoordinate on the fixed-size type; a
// cache hit performs no allocation at all.
func cachedCoordinateMat4(m linalg.Mat4) weyl.Coordinate {
	key := keyOf(m)
	coordCacheMu.Lock()
	if c, ok := coordCache[key]; ok {
		coordHits++
		coordCacheMu.Unlock()
		return c
	}
	coordMisses++
	coordCacheMu.Unlock()

	c, err := weyl.CoordinateOfMat4(m)
	if err != nil {
		// Blocks are products of unitaries, so this indicates numerical
		// trouble; fall back to the origin rather than crashing.
		c = weyl.IdentityCoord
	}
	coordCacheMu.Lock()
	if len(coordCache) >= coordCacheCap {
		clear(coordCache)
	}
	coordCache[key] = c
	coordCacheMu.Unlock()
	return c
}

// CoordinateCacheStats reports cumulative hits and misses of the
// consolidation coordinate cache.
func CoordinateCacheStats() (hits, misses int64) {
	coordCacheMu.Lock()
	defer coordCacheMu.Unlock()
	return coordHits, coordMisses
}

// ResetCoordinateCache clears the cache (for benchmarks that measure
// cold vs warm behaviour).
func ResetCoordinateCache() {
	coordCacheMu.Lock()
	defer coordCacheMu.Unlock()
	coordCache = map[coordKey]weyl.Coordinate{}
	coordHits, coordMisses = 0, 0
}

// OpCoordinate returns the Weyl coordinate of a 2Q op, preferring the
// annotation and falling back to the (cached) matrix computation.
func OpCoordinate(op Op) weyl.Coordinate {
	if op.Coord != nil {
		return *op.Coord
	}
	return cachedCoordinate(op.Gate.Matrix())
}
