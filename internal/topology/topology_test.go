package topology

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

func TestLine(t *testing.T) {
	l := Line(5)
	if l.NumQubits != 5 || len(l.Edges()) != 4 {
		t.Fatalf("line-5: %d qubits, %d edges", l.NumQubits, len(l.Edges()))
	}
	if !l.HasEdge(2, 3) || l.HasEdge(0, 2) {
		t.Fatal("line adjacency wrong")
	}
	if l.Distance(0, 4) != 4 {
		t.Fatalf("line distance(0,4) = %d, want 4", l.Distance(0, 4))
	}
}

func TestRing(t *testing.T) {
	r := Ring(6)
	if len(r.Edges()) != 6 {
		t.Fatalf("ring-6 has %d edges, want 6", len(r.Edges()))
	}
	if r.Distance(0, 3) != 3 || r.Distance(0, 5) != 1 {
		t.Fatal("ring distances wrong")
	}
}

func TestGrid(t *testing.T) {
	g := Grid(3, 4)
	if g.NumQubits != 12 {
		t.Fatalf("grid 3x4 has %d qubits", g.NumQubits)
	}
	// Edge count: 3*3 horizontal + 2*4 vertical = 9 + 8 = 17.
	if len(g.Edges()) != 17 {
		t.Fatalf("grid 3x4 has %d edges, want 17", len(g.Edges()))
	}
	if g.Distance(0, 11) != 5 {
		t.Fatalf("grid corner distance = %d, want 5", g.Distance(0, 11))
	}
}

func TestSquareLattice66(t *testing.T) {
	s := SquareLattice66()
	if s.NumQubits != 36 {
		t.Fatalf("6x6 lattice has %d qubits", s.NumQubits)
	}
	if !s.IsConnected() {
		t.Fatal("6x6 lattice disconnected")
	}
	// Max degree 4 for an interior site.
	if s.Degree(7) != 4 {
		t.Fatalf("interior degree = %d, want 4", s.Degree(7))
	}
}

func TestAllToAll(t *testing.T) {
	a := AllToAll(5)
	if len(a.Edges()) != 10 {
		t.Fatalf("K5 has %d edges, want 10", len(a.Edges()))
	}
	for i := 0; i < 5; i++ {
		for j := 0; j < 5; j++ {
			if i != j && a.Distance(i, j) != 1 {
				t.Fatal("A2A distance must be 1 everywhere")
			}
		}
	}
}

func TestHeavyHex57(t *testing.T) {
	h := HeavyHex57()
	if h.NumQubits != 57 {
		t.Fatalf("heavy-hex-57 has %d qubits", h.NumQubits)
	}
	if !h.IsConnected() {
		t.Fatal("heavy-hex disconnected")
	}
	// Heavy-hex property: no qubit exceeds degree 3.
	for q := 0; q < h.NumQubits; q++ {
		if h.Degree(q) > 3 {
			t.Fatalf("heavy-hex qubit %d has degree %d > 3", q, h.Degree(q))
		}
	}
	// Heavy-hex must be sparser than a grid of the same size: fewer
	// edges than qubits * 1.5.
	if len(h.Edges()) >= h.NumQubits*3/2 {
		t.Fatalf("heavy-hex has %d edges, too dense", len(h.Edges()))
	}
}

func TestLayoutSwap(t *testing.T) {
	l := TrivialLayout(3, 5)
	l.SwapPhysical(0, 1)
	if l.Phys(0) != 1 || l.Phys(1) != 0 || l.Phys(2) != 2 {
		t.Fatalf("layout after swap: %v", l.L2P)
	}
	// Swap with an unused physical site.
	l.SwapPhysical(2, 4)
	if l.Phys(2) != 4 || l.P2L[2] != -1 {
		t.Fatal("swap with empty site mishandled")
	}
}

func TestFindSwapFreeLayoutLineOnGrid(t *testing.T) {
	// A 4-qubit line interaction pattern embeds in a 2x2 grid.
	ig := InteractionGraph{
		NumQubits: 4,
		Pairs:     [][2]int{{0, 1}, {1, 2}, {2, 3}},
	}
	g := Grid(2, 2)
	layout, ok := FindSwapFreeLayout(ig, g, 0)
	if !ok {
		t.Fatal("no swap-free layout found for a line on a 2x2 grid")
	}
	for _, p := range ig.Pairs {
		if !g.HasEdge(layout.Phys(p[0]), layout.Phys(p[1])) {
			t.Fatalf("pair %v not adjacent under layout %v", p, layout.L2P)
		}
	}
}

func TestFindSwapFreeLayoutImpossible(t *testing.T) {
	// A 4-clique cannot embed in a line.
	ig := InteractionGraph{
		NumQubits: 4,
		Pairs:     [][2]int{{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}},
	}
	if _, ok := FindSwapFreeLayout(ig, Line(8), 0); ok {
		t.Fatal("found impossible swap-free layout for K4 on a line")
	}
}

func TestFindSwapFreeLayoutStar(t *testing.T) {
	// A 4-star needs a degree-4 centre: works on a grid interior, fails
	// on heavy-hex (max degree 3).
	ig := InteractionGraph{
		NumQubits: 5,
		Pairs:     [][2]int{{0, 1}, {0, 2}, {0, 3}, {0, 4}},
	}
	if _, ok := FindSwapFreeLayout(ig, SquareLattice66(), 0); !ok {
		t.Fatal("4-star should embed in the square lattice")
	}
	if _, ok := FindSwapFreeLayout(ig, HeavyHex57(), 0); ok {
		t.Fatal("4-star cannot embed in heavy-hex (degree <= 3)")
	}
}

// TestFindSwapFreeLayoutMatchesOracle: the buffer-reusing search must
// return what the map-based search it replaced returns — the same ok
// and the same layout — on random interaction graphs that embed (an
// edge subset of a random set of sites, relabelled, sometimes with one
// extra pair that may break it) and on random graphs that mostly do
// not, under the default node budget and under budgets small enough
// to run out. Pairs come shuffled, reversed, repeated and with
// self-pairs, as a multigraph may hold them.
func TestFindSwapFreeLayoutMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for _, topo := range []*Topology{Grid(3, 4), SquareLattice66(), HeavyHex57()} {
		found := 0
		for i := 0; i < 60; i++ {
			k := 2 + rng.Intn(min(topo.NumQubits, 14)-1)
			ig := InteractionGraph{NumQubits: k}
			switch i % 3 {
			case 0, 1: // embeddable, plus one random pair on odd cases
				sites := rng.Perm(topo.NumQubits)[:k]
				for a := range sites {
					for b := a + 1; b < k; b++ {
						if topo.HasEdge(sites[a], sites[b]) && rng.Intn(4) != 0 {
							ig.Pairs = append(ig.Pairs, [2]int{a, b})
						}
					}
				}
				if i%2 == 1 {
					ig.Pairs = append(ig.Pairs, [2]int{rng.Intn(k), rng.Intn(k)})
				}
			default: // random pairs
				for e := rng.Intn(2 * k); e >= 0; e-- {
					ig.Pairs = append(ig.Pairs, [2]int{rng.Intn(k), rng.Intn(k)})
				}
			}
			for j := range ig.Pairs {
				if rng.Intn(3) == 0 {
					ig.Pairs[j][0], ig.Pairs[j][1] = ig.Pairs[j][1], ig.Pairs[j][0]
				}
			}
			if len(ig.Pairs) > 0 && rng.Intn(2) == 0 {
				ig.Pairs = append(ig.Pairs, ig.Pairs[rng.Intn(len(ig.Pairs))], [2]int{0, 0})
			}
			rng.Shuffle(len(ig.Pairs), func(a, b int) { ig.Pairs[a], ig.Pairs[b] = ig.Pairs[b], ig.Pairs[a] })
			for _, budget := range []int{0, 40, 3} {
				name := fmt.Sprintf("%s case %d budget %d (%d qubits, pairs %v)", topo.Name, i, budget, k, ig.Pairs)
				got, ok := FindSwapFreeLayout(ig, topo, budget)
				want, wantOK := findSwapFreeLayoutOracle(ig, topo, budget)
				if ok != wantOK {
					t.Fatalf("%s: ok %v, oracle %v", name, ok, wantOK)
				}
				if !ok {
					continue
				}
				if !slices.Equal(got.L2P, want.L2P) || !slices.Equal(got.P2L, want.P2L) {
					t.Fatalf("%s: layout %v, oracle %v", name, got.L2P, want.L2P)
				}
				if budget == 0 {
					found++
				}
			}
		}
		t.Logf("%s: %d of 60 embed", topo.Name, found)
		if found == 0 || found == 60 {
			t.Fatalf("%s: %d of 60 graphs embed; want both outcomes covered", topo.Name, found)
		}
	}
}

func TestNewRejectsBadEdges(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for self-loop edge")
		}
	}()
	New("bad", 3, [][2]int{{1, 1}})
}
