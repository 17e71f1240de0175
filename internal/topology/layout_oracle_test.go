package topology

import "sort"

// findSwapFreeLayoutOracle is FindSwapFreeLayout as it was written
// before the search reused its buffers: map adjacency sets and a fresh
// candidate slice per search node. It is kept as the oracle the
// buffer-reusing search must reproduce result for result.
func findSwapFreeLayoutOracle(ig InteractionGraph, t *Topology, maxNodes int) (*Layout, bool) {
	if ig.NumQubits > t.NumQubits {
		return nil, false
	}
	// Logical adjacency sets.
	ladj := make([]map[int]bool, ig.NumQubits)
	for i := range ladj {
		ladj[i] = map[int]bool{}
	}
	for _, p := range ig.Pairs {
		if p[0] == p[1] {
			continue
		}
		ladj[p[0]][p[1]] = true
		ladj[p[1]][p[0]] = true
	}
	// Quick reject: logical degree must not exceed physical degree.
	maxPhysDeg := 0
	for q := 0; q < t.NumQubits; q++ {
		if d := t.Degree(q); d > maxPhysDeg {
			maxPhysDeg = d
		}
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

	assign := make([]int, ig.NumQubits) // logical -> physical
	used := make([]bool, t.NumQubits)
	for i := range assign {
		assign[i] = -1
	}
	nodes := 0
	if maxNodes <= 0 {
		maxNodes = 200000
	}

	var dfs func(idx int) bool
	dfs = func(idx int) bool {
		if idx == len(order) {
			return true
		}
		nodes++
		if nodes > maxNodes {
			return false
		}
		q := order[idx]
		// Candidate physical sites: neighbours of already-assigned
		// logical neighbours, or any free site if none assigned yet.
		var candidates []int
		restricted := false
		for nb := range ladj[q] {
			if assign[nb] >= 0 {
				if !restricted {
					candidates = append([]int(nil), t.Neighbors(assign[nb])...)
					restricted = true
				} else {
					// Intersect with neighbours of this assigned peer.
					keep := candidates[:0]
					for _, c := range candidates {
						if t.HasEdge(c, assign[nb]) {
							keep = append(keep, c)
						}
					}
					candidates = keep
				}
			}
		}
		if !restricted {
			for p := 0; p < t.NumQubits; p++ {
				candidates = append(candidates, p)
			}
		}
		for _, p := range candidates {
			if used[p] || t.Degree(p) < len(ladj[q]) {
				continue
			}
			assign[q] = p
			used[p] = true
			if dfs(idx + 1) {
				return true
			}
			assign[q] = -1
			used[p] = false
		}
		return false
	}
	if !dfs(0) {
		return nil, false
	}
	return NewLayout(assign, t.NumQubits), true
}
