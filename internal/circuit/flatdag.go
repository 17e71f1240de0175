package circuit

import "fmt"

// FlatDAG is the CSR (compressed sparse row) form of the wire
// dependency graph: op j depends on op i (i < j) when they share a
// qubit and no op between them uses it, the structure SABRE and MIRAGE
// traverse (front layer, execute layer, lookahead window). Predecessor
// and successor adjacency are packed into offset + edge arrays with no
// per-node slices, maps or pointers: built once per circuit and shared
// read-only by every trial worker, it is an immutable structure a
// FlatTraversal walks using caller-owned buffers.
//
// The edge multiset includes the duplicate edge a 2Q op shares with a
// predecessor touching both of its qubits. The property tests in
// flatdag_test.go pin FlatDAG and FlatTraversal — edges, ready-set
// order, lookahead order — to a slice-based reference DAG kept in
// dag_test.go.
//
// Ownership rules: a FlatDAG is immutable after BuildFlatDAG returns
// and safe to share across goroutines without synchronisation; all
// mutable traversal state lives in FlatTraversal values owned by one
// goroutine each.
type FlatDAG struct {
	Circ   *Circuit
	NumOps int

	// CSR adjacency: predecessors of op i are Preds[PredOff[i]:PredOff[i+1]],
	// successors are Succs[SuccOff[i]:SuccOff[i+1]]. Edge order matches
	// DAG's append order (scan order over ops and their qubits).
	PredOff []int32
	Preds   []int32
	SuccOff []int32
	Succs   []int32

	// InDeg is the initial in-degree of each op (counting duplicate
	// edges, exactly like Traversal); Roots lists the in-degree-0 ops in
	// index order (the initial front layer).
	InDeg []int32
	Roots []int32

	// Q0/Q1 cache each op's qubits so traversal-driven hot loops avoid
	// the Ops slice indirection: Q1 is -1 for single-qubit ops.
	Q0, Q1 []int32
}

// BuildFlatDAG constructs the CSR dependency graph of c.
func BuildFlatDAG(c *Circuit) *FlatDAG {
	n := len(c.Ops)
	d := &FlatDAG{
		Circ:    c,
		NumOps:  n,
		PredOff: make([]int32, n+1),
		SuccOff: make([]int32, n+1),
		InDeg:   make([]int32, n),
		Q0:      make([]int32, n),
		Q1:      make([]int32, n),
	}
	last := make([]int, c.NumQubits)
	for i := range last {
		last[i] = -1
	}
	// Pass 1: count edges per op (duplicates included).
	for i, op := range c.Ops {
		d.Q0[i] = int32(op.Qubits[0])
		d.Q1[i] = -1
		if len(op.Qubits) > 1 {
			d.Q1[i] = int32(op.Qubits[1])
		}
		for _, q := range op.Qubits {
			if p := last[q]; p >= 0 {
				d.PredOff[i+1]++
				d.SuccOff[p+1]++
			}
			last[q] = i
		}
	}
	for i := 0; i < n; i++ {
		d.PredOff[i+1] += d.PredOff[i]
		d.SuccOff[i+1] += d.SuccOff[i]
	}
	d.Preds = make([]int32, d.PredOff[n])
	d.Succs = make([]int32, d.SuccOff[n])
	// Pass 2: fill in the same scan order DAG uses, so the slice
	// contents match Preds[i]/Succs[p] element for element.
	predNext := make([]int32, n)
	succNext := make([]int32, n)
	copy(predNext, d.PredOff[:n])
	copy(succNext, d.SuccOff[:n])
	for i := range last {
		last[i] = -1
	}
	for i, op := range c.Ops {
		for _, q := range op.Qubits {
			if p := last[q]; p >= 0 {
				d.Preds[predNext[i]] = int32(p)
				predNext[i]++
				d.Succs[succNext[p]] = int32(i)
				succNext[p]++
				d.InDeg[i]++
			}
			last[q] = i
		}
	}
	for i := 0; i < n; i++ {
		if d.InDeg[i] == 0 {
			d.Roots = append(d.Roots, int32(i))
		}
	}
	return d
}

// FlatDAGFromParts reassembles a FlatDAG for c from CSR adjacency
// arrays produced by BuildFlatDAG on another machine (the distributed
// coordinator ships them inside trial job specs so workers skip the
// rebuild). The derived fields — InDeg, Roots, Q0/Q1 — are recomputed
// locally; only the edge structure crosses the wire.
//
// The arrays are validated structurally in O(V+E): offset arrays must
// be monotone and bounded by the edge arrays, every edge endpoint must
// be in range and respect op order (edges only point from earlier ops
// to later ones, as wire dependencies do), and the predecessor and
// successor views must describe the same edge multiset. A failure
// returns an error rather than a DAG that could deadlock a traversal.
// The check is cheaper than BuildFlatDAG (no circuit scan, no edge
// counting passes) but it does NOT verify the edges match c's wire
// dependencies — callers ship the DAG alongside the circuit it was
// built from and must keep the two paired.
func FlatDAGFromParts(c *Circuit, predOff, preds, succOff, succs []int32) (*FlatDAG, error) {
	n := len(c.Ops)
	if len(predOff) != n+1 || len(succOff) != n+1 {
		return nil, fmt.Errorf("circuit: flat DAG offsets sized %d/%d for %d ops",
			len(predOff)-1, len(succOff)-1, n)
	}
	if predOff[0] != 0 || succOff[0] != 0 {
		return nil, fmt.Errorf("circuit: flat DAG offsets must start at 0")
	}
	for i := 0; i < n; i++ {
		if predOff[i+1] < predOff[i] || succOff[i+1] < succOff[i] {
			return nil, fmt.Errorf("circuit: flat DAG offsets not monotone at op %d", i)
		}
	}
	if int(predOff[n]) != len(preds) || int(succOff[n]) != len(succs) ||
		len(preds) != len(succs) {
		return nil, fmt.Errorf("circuit: flat DAG edge arrays sized %d/%d, offsets claim %d/%d",
			len(preds), len(succs), predOff[n], succOff[n])
	}
	d := &FlatDAG{
		Circ:    c,
		NumOps:  n,
		PredOff: predOff,
		Preds:   preds,
		SuccOff: succOff,
		Succs:   succs,
		InDeg:   make([]int32, n),
		Q0:      make([]int32, n),
		Q1:      make([]int32, n),
	}
	// succSeen[i] counts how often i appears as a successor target; it
	// must agree with i's predecessor count or the two views describe
	// different graphs.
	succSeen := make([]int32, n)
	for i := 0; i < n; i++ {
		for _, p := range d.PredsOf(i) {
			if p < 0 || int(p) >= i {
				return nil, fmt.Errorf("circuit: flat DAG pred %d of op %d out of order", p, i)
			}
		}
		for _, s := range d.SuccsOf(i) {
			if int(s) <= i || int(s) >= n {
				return nil, fmt.Errorf("circuit: flat DAG succ %d of op %d out of order", s, i)
			}
			succSeen[s]++
		}
	}
	for i := 0; i < n; i++ {
		d.InDeg[i] = predOff[i+1] - predOff[i]
		if succSeen[i] != d.InDeg[i] {
			return nil, fmt.Errorf("circuit: flat DAG op %d has %d preds but appears as succ %d times",
				i, d.InDeg[i], succSeen[i])
		}
		if d.InDeg[i] == 0 {
			d.Roots = append(d.Roots, int32(i))
		}
		op := c.Ops[i]
		d.Q0[i] = int32(op.Qubits[0])
		d.Q1[i] = -1
		if len(op.Qubits) > 1 {
			d.Q1[i] = int32(op.Qubits[1])
		}
	}
	return d, nil
}

// PredsOf returns the predecessor list of op i (a view into the shared
// edge array; do not mutate).
func (d *FlatDAG) PredsOf(i int) []int32 { return d.Preds[d.PredOff[i]:d.PredOff[i+1]] }

// SuccsOf returns the successor list of op i (a view into the shared
// edge array; do not mutate).
func (d *FlatDAG) SuccsOf(i int) []int32 { return d.Succs[d.SuccOff[i]:d.SuccOff[i+1]] }

// FlatTraversal tracks incremental execution of a FlatDAG. Unlike the
// reference Traversal it owns growable scratch buffers that survive Reset, so a
// trial arena can replay the same (or an equally sized) DAG over and
// over with zero steady-state allocations. All methods are
// single-goroutine; the underlying FlatDAG is shared read-only.
//
// The ready set is an intrusive doubly-linked list over op indices in
// insertion order — the exact order the slice-based Traversal.Ready
// maintains (roots in index order, then successors in execution order;
// removal preserves relative order). The list makes Execute O(deg)
// instead of O(|ready|): no linear scan-and-shift to delist the
// executed op. Iterate with ReadyFirst/ReadyNext, or snapshot with
// AppendReady; ReadySeq exposes each op's insertion ordinal so callers
// can merge ready ops from different sources back into list order.
type FlatTraversal struct {
	D      *FlatDAG
	Remain int

	// LastReady holds the ops that entered the ready set during the
	// most recent Execute call, in insertion order. It is overwritten
	// by the next Execute — the worklist scheduler in internal/sabre
	// drains it immediately to feed newly-executable gates forward
	// without rescanning the ready set.
	LastReady []int32

	indeg []int32
	// Ready linked list: next/prev are op-indexed (-1 terminated),
	// seq[i] is op i's insertion ordinal. Every op enters the ready set
	// exactly once, so seq is assigned once and never reused.
	head, tail int32
	next, prev []int32
	seq        []int32
	seqCounter int32
	readyLen   int

	// Descendants scratch: generation-stamped visited marks plus a BFS
	// ring reused across calls (Reset bumps the generation instead of
	// clearing the stamp array).
	seen  []int32
	gen   int32
	queue []int32
	desc  []int32
}

// NewFlatTraversal starts a traversal of d with freshly sized buffers.
func (d *FlatDAG) NewFlatTraversal() *FlatTraversal {
	t := &FlatTraversal{}
	t.Reset(d)
	return t
}

// Reset rebinds the traversal to d (which may differ from the previous
// DAG) and rewinds it to the initial front layer. Buffers are reused
// when large enough, so resetting to a same-or-smaller DAG allocates
// nothing.
func (t *FlatTraversal) Reset(d *FlatDAG) {
	t.D = d
	n := d.NumOps
	if cap(t.indeg) < n {
		t.indeg = make([]int32, n)
		t.seen = make([]int32, n)
		t.next = make([]int32, n)
		t.prev = make([]int32, n)
		t.seq = make([]int32, n)
		t.gen = 0
	}
	t.indeg = t.indeg[:n]
	t.seen = t.seen[:n]
	t.next = t.next[:n]
	t.prev = t.prev[:n]
	t.seq = t.seq[:n]
	copy(t.indeg, d.InDeg)
	t.head, t.tail = -1, -1
	t.readyLen = 0
	t.seqCounter = 0
	t.LastReady = t.LastReady[:0]
	for _, r := range d.Roots {
		t.pushReady(r)
	}
	t.Remain = n
}

// pushReady appends op i to the tail of the ready list and stamps its
// insertion ordinal.
func (t *FlatTraversal) pushReady(i int32) {
	t.seq[i] = t.seqCounter
	t.seqCounter++
	t.next[i] = -1
	t.prev[i] = t.tail
	if t.tail >= 0 {
		t.next[t.tail] = i
	} else {
		t.head = i
	}
	t.tail = i
	t.readyLen++
}

// Execute marks op i as done, unlinks it from the ready list (O(1))
// and appends any newly unblocked successors — the exact update
// Traversal.Execute performs, with the delisted scan replaced by
// pointer splicing. Newly ready ops are also recorded in LastReady.
func (t *FlatTraversal) Execute(i int) {
	if t.indeg[i] != 0 {
		panic("circuit: op executed before its dependencies")
	}
	t.indeg[i] = -1 // poisons double execution (decrements go negative)
	t.Remain--
	i32 := int32(i)
	if t.prev[i32] >= 0 {
		t.next[t.prev[i32]] = t.next[i32]
	} else if t.head == i32 {
		t.head = t.next[i32]
	}
	if t.next[i32] >= 0 {
		t.prev[t.next[i32]] = t.prev[i32]
	} else if t.tail == i32 {
		t.tail = t.prev[i32]
	}
	t.readyLen--
	t.LastReady = t.LastReady[:0]
	for _, s := range t.D.SuccsOf(i) {
		t.indeg[s]--
		if t.indeg[s] == 0 {
			t.pushReady(s)
			t.LastReady = append(t.LastReady, s)
		}
	}
}

// Done reports whether every op has executed.
func (t *FlatTraversal) Done() bool { return t.Remain == 0 }

// Pending reports whether op i is in the ready set (all dependencies
// executed, i itself not yet executed).
func (t *FlatTraversal) Pending(i int32) bool { return t.indeg[i] == 0 }

// ReadyLen returns the current size of the ready set.
func (t *FlatTraversal) ReadyLen() int { return t.readyLen }

// ReadyFirst returns the first ready op in insertion order, or -1.
func (t *FlatTraversal) ReadyFirst() int32 { return t.head }

// ReadyNext returns the ready op after i in insertion order, or -1.
// i must currently be in the ready set.
func (t *FlatTraversal) ReadyNext(i int32) int32 { return t.next[i] }

// ReadySeq returns op i's insertion ordinal in the ready list. Ordinals
// are assigned once (each op becomes ready exactly once) and increase
// in insertion order, so sorting by ReadySeq recovers list order.
func (t *FlatTraversal) ReadySeq(i int32) int32 { return t.seq[i] }

// AppendReady appends the ready set in insertion order to dst and
// returns it — the snapshot form of ReadyFirst/ReadyNext iteration.
func (t *FlatTraversal) AppendReady(dst []int32) []int32 {
	for i := t.head; i >= 0; i = t.next[i] {
		dst = append(dst, i)
	}
	return dst
}

// Descendants returns up to limit op indices reachable from the ready
// set in BFS order, excluding the ready ops themselves — SABRE's
// extended (lookahead) set, in the exact order Traversal.Descendants
// produces. The returned slice is owned by the traversal and valid
// until the next Descendants call.
func (t *FlatTraversal) Descendants(limit int) []int32 {
	t.gen++
	if t.gen == 0 { // generation counter wrapped: clear stamps once
		// Full capacity, not current length: a later Reset to a larger
		// DAG re-extends the slice, and stale stamps there must not
		// alias a live generation.
		full := t.seen[:cap(t.seen)]
		for i := range full {
			full[i] = 0
		}
		t.gen = 1
	}
	t.desc = t.desc[:0]
	t.queue = t.queue[:0]
	for i := t.head; i >= 0; i = t.next[i] {
		t.queue = append(t.queue, i)
		t.seen[i] = t.gen
	}
	for head := 0; head < len(t.queue) && len(t.desc) < limit; head++ {
		cur := t.queue[head]
		for _, s := range t.D.SuccsOf(int(cur)) {
			if t.seen[s] == t.gen {
				continue
			}
			t.seen[s] = t.gen
			t.desc = append(t.desc, s)
			t.queue = append(t.queue, s)
			if len(t.desc) >= limit {
				break
			}
		}
	}
	return t.desc
}
