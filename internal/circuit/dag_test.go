package circuit

// DAG is the readable reference form of the wire-dependency graph
// whose successors and in-degrees FlatDAG packs into CSR arrays:
// per-op predecessor and successor slices, with Traversal walking it
// by rescanning a ready slice. The tests pin FlatDAG and FlatTraversal
// to it.
type DAG struct {
	Circ  *Circuit
	Preds [][]int
	Succs [][]int
}

// BuildDAG constructs the dependency graph.
func BuildDAG(c *Circuit) *DAG {
	n := len(c.Ops)
	d := &DAG{
		Circ:  c,
		Preds: make([][]int, n),
		Succs: make([][]int, n),
	}
	last := make([]int, c.NumQubits)
	for i := range last {
		last[i] = -1
	}
	for i, op := range c.Ops {
		for _, q := range op.Qubits {
			if p := last[q]; p >= 0 {
				d.Preds[i] = append(d.Preds[i], p)
				d.Succs[p] = append(d.Succs[p], i)
			}
			last[q] = i
		}
	}
	return d
}

// FrontLayer returns the indices of ops with no predecessors.
func (d *DAG) FrontLayer() []int {
	var front []int
	for i, p := range d.Preds {
		if len(p) == 0 {
			front = append(front, i)
		}
	}
	return front
}

// Traversal tracks incremental execution of the DAG: ops become ready
// when all their predecessors have executed.
type Traversal struct {
	dag      *DAG
	indegree []int
	executed []bool
	Ready    []int // current front (ready, unexecuted ops)
	Remain   int
}

// NewTraversal starts a traversal with the initial front layer.
func (d *DAG) NewTraversal() *Traversal {
	t := &Traversal{
		dag:      d,
		indegree: make([]int, len(d.Circ.Ops)),
		executed: make([]bool, len(d.Circ.Ops)),
		Remain:   len(d.Circ.Ops),
	}
	for i, p := range d.Preds {
		t.indegree[i] = len(p)
		if len(p) == 0 {
			t.Ready = append(t.Ready, i)
		}
	}
	return t
}

// Execute marks op i as done, removes it from the ready set and adds
// any newly unblocked successors.
func (t *Traversal) Execute(i int) {
	if t.executed[i] {
		panic("circuit: op executed twice")
	}
	if t.indegree[i] != 0 {
		panic("circuit: op executed before its dependencies")
	}
	t.executed[i] = true
	t.Remain--
	for k, r := range t.Ready {
		if r == i {
			t.Ready = append(t.Ready[:k], t.Ready[k+1:]...)
			break
		}
	}
	for _, s := range t.dag.Succs[i] {
		t.indegree[s]--
		if t.indegree[s] == 0 {
			t.Ready = append(t.Ready, s)
		}
	}
}

// Done reports whether every op has executed.
func (t *Traversal) Done() bool { return t.Remain == 0 }

// Descendants returns up to limit op indices reachable from the ready
// set in BFS order, excluding the ready ops themselves. This is the
// extended (lookahead) set of SABRE.
func (t *Traversal) Descendants(limit int) []int {
	var out []int
	seen := make(map[int]bool, limit*2)
	queue := append([]int(nil), t.Ready...)
	for _, q := range queue {
		seen[q] = true
	}
	for len(queue) > 0 && len(out) < limit {
		cur := queue[0]
		queue = queue[1:]
		for _, s := range t.dag.Succs[cur] {
			if seen[s] {
				continue
			}
			seen[s] = true
			out = append(out, s)
			queue = append(queue, s)
			if len(out) >= limit {
				break
			}
		}
	}
	return out
}
