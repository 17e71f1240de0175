package topology

import "sort"

// Layout maps logical circuit qubits to physical device qubits.
type Layout struct {
	L2P []int // logical -> physical
	P2L []int // physical -> logical (-1 when unused)
}

// NewLayout builds a layout from a logical-to-physical assignment.
func NewLayout(l2p []int, numPhysical int) *Layout {
	l := &Layout{
		L2P: append([]int(nil), l2p...),
		P2L: make([]int, numPhysical),
	}
	for i := range l.P2L {
		l.P2L[i] = -1
	}
	for logical, phys := range l.L2P {
		l.P2L[phys] = logical
	}
	return l
}

// TrivialLayout maps logical i to physical i.
func TrivialLayout(numLogical, numPhysical int) *Layout {
	l2p := make([]int, numLogical)
	for i := range l2p {
		l2p[i] = i
	}
	return NewLayout(l2p, numPhysical)
}

// Copy returns an independent copy.
func (l *Layout) Copy() *Layout {
	return &Layout{
		L2P: append([]int(nil), l.L2P...),
		P2L: append([]int(nil), l.P2L...),
	}
}

// CopyFrom overwrites l with o, reusing l's backing arrays when large
// enough (the trial-arena reset path: one layout buffer replayed across
// thousands of routing trials with zero steady-state allocations).
func (l *Layout) CopyFrom(o *Layout) {
	l.L2P = append(l.L2P[:0], o.L2P...)
	l.P2L = append(l.P2L[:0], o.P2L...)
}

// SwapPhysical exchanges the logical qubits on two physical locations
// (the effect of a SWAP gate on those wires, or of a mirage SWAP).
func (l *Layout) SwapPhysical(a, b int) {
	la, lb := l.P2L[a], l.P2L[b]
	l.P2L[a], l.P2L[b] = lb, la
	if la >= 0 {
		l.L2P[la] = b
	}
	if lb >= 0 {
		l.L2P[lb] = a
	}
}

// Phys returns the physical location of logical qubit q.
func (l *Layout) Phys(q int) int { return l.L2P[q] }

// --- SWAP-free layout search (the VF2Layout analogue) ---

// InteractionGraph is the logical 2Q interaction multigraph of a
// circuit, given as canonical pairs.
type InteractionGraph struct {
	NumQubits int
	Pairs     [][2]int
}

// FindSwapFreeLayout searches for an assignment of logical qubits to
// physical qubits such that every interacting pair is adjacent — the
// subgraph-monomorphism check Qiskit performs with VF2Layout before
// invoking routing. Returns (layout, true) on success. The search is
// exact backtracking with a node budget (maxNodes <= 0: 200,000);
// circuits needing SWAPs fail quickly because some logical degree
// exceeds the physical degree.
//
// Logical qubits are assigned in descending order of degree. A qubit
// with an assigned partner may only go to a common neighbour of all
// its assigned partners' sites, tried in ascending order; one without
// tries every site. Each search depth keeps its candidate list in its
// own slot of one buffer, so the search allocates nothing per node.
func FindSwapFreeLayout(ig InteractionGraph, t *Topology, maxNodes int) (*Layout, bool) {
	if ig.NumQubits > t.NumQubits {
		return nil, false
	}
	ladj := interactionAdjacency(ig)
	// Quick reject: logical degree must not exceed physical degree.
	maxPhysDeg := 0
	for q := 0; q < t.NumQubits; q++ {
		maxPhysDeg = max(maxPhysDeg, t.Degree(q))
	}
	order := make([]int, ig.NumQubits)
	for i := range order {
		order[i] = i
	}
	// Assign high-degree logical qubits first.
	sort.Slice(order, func(i, j int) bool {
		return len(ladj[order[i]]) > len(ladj[order[j]])
	})
	for _, q := range order {
		if len(ladj[q]) > maxPhysDeg {
			return nil, false
		}
	}
	if maxNodes <= 0 {
		maxNodes = 200000
	}
	s := swapFreeSearch{
		t: t, ladj: ladj, order: order, maxNodes: maxNodes,
		assign: make([]int, ig.NumQubits),
		used:   make([]bool, t.NumQubits),
		cands:  make([]int, ig.NumQubits*maxPhysDeg),
		stride: maxPhysDeg,
	}
	for i := range s.assign {
		s.assign[i] = -1
	}
	if !s.dfs(0) {
		return nil, false
	}
	return NewLayout(s.assign, t.NumQubits), true
}

// interactionAdjacency returns each logical qubit's distinct
// interaction partners, self-pairs dropped, as subslices of one
// backing array.
func interactionAdjacency(ig InteractionGraph) [][]int {
	// Row q of the backing array starts at start[q]: count each
	// qubit's pair ends into start[q+1], then sum the counts up.
	start := make([]int, ig.NumQubits+1)
	for _, p := range ig.Pairs {
		if p[0] != p[1] {
			start[p[0]+1]++
			start[p[1]+1]++
		}
	}
	for q := 1; q < len(start); q++ {
		start[q] += start[q-1]
	}
	flat := make([]int, start[ig.NumQubits])
	fill := append([]int(nil), start[:ig.NumQubits]...)
	for _, p := range ig.Pairs {
		if a, b := p[0], p[1]; a != b {
			flat[fill[a]], flat[fill[b]] = b, a
			fill[a]++
			fill[b]++
		}
	}
	ladj := make([][]int, ig.NumQubits)
	for q := range ladj {
		row := flat[start[q]:start[q+1]]
		sort.Ints(row)
		n := 0
		for i, v := range row {
			if i == 0 || v != row[n-1] {
				row[n] = v
				n++
			}
		}
		ladj[q] = row[:n:n]
	}
	return ladj
}

// swapFreeSearch is the backtracking state of FindSwapFreeLayout.
// cands[d*stride : (d+1)*stride] holds depth d's candidate sites.
type swapFreeSearch struct {
	t               *Topology
	ladj            [][]int
	order           []int
	assign          []int // logical -> physical, -1 while unassigned
	used            []bool
	cands           []int
	stride          int
	nodes, maxNodes int
}

func (s *swapFreeSearch) dfs(idx int) bool {
	if idx == len(s.order) {
		return true
	}
	s.nodes++
	if s.nodes > s.maxNodes {
		return false
	}
	q := s.order[idx]
	deg := len(s.ladj[q])
	cands, restricted := s.cands[idx*s.stride:idx*s.stride], false
	for _, nb := range s.ladj[q] {
		site := s.assign[nb]
		if site < 0 {
			continue
		}
		if !restricted {
			cands, restricted = append(cands, s.t.Neighbors(site)...), true
			continue
		}
		keep := cands[:0]
		for _, c := range cands {
			if s.t.HasEdge(c, site) {
				keep = append(keep, c)
			}
		}
		cands = keep
	}
	n := len(cands)
	if !restricted {
		n = s.t.NumQubits // no assigned partner: every site
	}
	for i := 0; i < n; i++ {
		p := i
		if restricted {
			p = cands[i]
		}
		if s.used[p] || s.t.Degree(p) < deg {
			continue
		}
		s.assign[q], s.used[p] = p, true
		if s.dfs(idx + 1) {
			return true
		}
		s.assign[q], s.used[p] = -1, false
	}
	return false
}
