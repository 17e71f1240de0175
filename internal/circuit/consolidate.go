package circuit

import (
	"fmt"
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
// arithmetic, and the only per-block allocations left are the two
// output gates themselves.
func ConsolidateBlocks(c *Circuit) *Circuit {
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

// blockInterior is the running product of one block's interior: the
// 2Q gates of the run and the 1Q gates between them, in the block's
// (a, b) wire order. 1Q gates after the latest 2Q gate wait in
// trailing — they are exterior unless another 2Q gate of the run
// follows. ConsolidateBlocks and the matrix fallback of
// BlockDepth.Depth share it, so both reach bit-identical interiors
// (and so the same coordinate-cache entries).
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

// coordKey is the quantised matrix key: every entry rounded to 1e-7
// (the same resolution the string-based key used), packed into a
// comparable fixed-size array. Building one is pure stack work — no
// byte-slice, no string conversion, no hashing allocation.
type coordKey [32]int32

// coordKeyScale quantises matrix entries at 1e-7 resolution: far finer
// than any polytope feature, coarse enough to absorb the accumulated
// floating-point noise of block products.
const coordKeyScale = 1e7

func quantiseMat4(m linalg.Mat4) coordKey {
	var k coordKey
	for i, v := range m {
		k[2*i] = int32(math.Round(real(v) * coordKeyScale))
		k[2*i+1] = int32(math.Round(imag(v) * coordKeyScale))
	}
	return k
}

var (
	coordCache   = map[coordKey]weyl.Coordinate{}
	coordCacheMu sync.Mutex
	coordHits    int64
	coordMisses  int64
)

// cachedCoordinate returns the Weyl coordinate of a 4x4 unitary,
// memoised on the quantised matrix entries.
func cachedCoordinate(m *linalg.Matrix) weyl.Coordinate {
	return cachedCoordinateMat4(linalg.Mat4From(m))
}

// cachedCoordinateMat4 is cachedCoordinate on the fixed-size type; a
// cache hit performs no allocation at all.
func cachedCoordinateMat4(m linalg.Mat4) weyl.Coordinate {
	key := quantiseMat4(m)
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

// AnnotateCoordinates fills Op.Coord for every 2Q op that lacks it
// (without consolidating), using the coordinate cache.
func AnnotateCoordinates(c *Circuit) {
	for i := range c.Ops {
		op := &c.Ops[i]
		if op.Is2Q() && op.Coord == nil {
			coord := cachedCoordinate(op.Gate.Matrix())
			op.Coord = &coord
		}
	}
}

// BlockCount returns a human-readable summary of block sizes after
// consolidation (used by tooling).
func BlockCount(c *Circuit) string {
	blocks, singles := 0, 0
	for _, op := range c.Ops {
		if op.Is2Q() {
			blocks++
		} else {
			singles++
		}
	}
	return fmt.Sprintf("%d 2Q blocks, %d 1Q ops", blocks, singles)
}
