package circuit_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/bench"
	"repro/internal/circuit"
	"repro/internal/gates"
	"repro/internal/weyl"
)

// TestConsolidateBlocksMatchesOracle pins ConsolidateBlocks to the
// map-based implementation it replaced (ConsolidateBlocksOracle), op
// for op and bit for bit: gate name, qubits, flags, every matrix
// entry and the block coordinate. The inputs are every suite circuit
// raw and cleaned, seeded random circuits mixing 1Q, 2Q and 3Q ops on
// few wires (so pairs repeat and runs interleave), and the Clean
// outputs of random circuits carrying algorithm SWAPs.
func TestConsolidateBlocksMatchesOracle(t *testing.T) {
	var inputs []*circuit.Circuit
	for _, e := range bench.Suite() {
		c := e.Build()
		clean, _ := circuit.Clean(c)
		inputs = append(inputs, c, clean)
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 60; i++ {
		c := randomMixed(fmt.Sprintf("mixed%d", i), 3+i%5, 20+3*i, rng)
		clean, _ := circuit.Clean(c)
		inputs = append(inputs, c, clean)
	}
	for _, c := range inputs {
		want := circuit.ConsolidateBlocksOracle(c)
		got := circuit.ConsolidateBlocks(c)
		if err := sameOps(got, want); err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
	}
}

// randomMixed draws a circuit on n wires: 1Q rotations, CX and CZ on
// a few repeated pairs, algorithm SWAPs, and ccx/cswap ops.
func randomMixed(name string, n, ops int, rng *rand.Rand) *circuit.Circuit {
	c := circuit.New(name, n)
	pairs := [][2]int{{0, 1}, {1, 2}, {0, 2}, {n - 1, 0}}
	for len(c.Ops) < ops {
		switch k := rng.Intn(10); {
		case k < 4:
			c.Add(gates.RZ(rng.Float64()), rng.Intn(n))
		case k == 4:
			c.Add(gates.H(), rng.Intn(n))
		case k < 8:
			p := pairs[rng.Intn(len(pairs))]
			g := gates.CX()
			if k == 7 {
				g = gates.CZ()
			}
			if rng.Intn(2) == 0 {
				p[0], p[1] = p[1], p[0]
			}
			c.Add(g, p[0], p[1])
		case k == 8:
			a, b := rng.Intn(n), rng.Intn(n)
			if a != b {
				c.Add(gates.SWAP(), a, b)
			}
		default:
			q := rng.Perm(n)[:3]
			if rng.Intn(2) == 0 {
				c.Add(circuit.Toffoli(), q...)
			} else {
				c.Add(circuit.Fredkin(), q...)
			}
		}
	}
	return c
}

// sameOps reports the first difference between two circuits' ops.
func sameOps(got, want *circuit.Circuit) error {
	if got.NumQubits != want.NumQubits || len(got.Ops) != len(want.Ops) {
		return fmt.Errorf("%d wires, %d ops; want %d wires, %d ops",
			got.NumQubits, len(got.Ops), want.NumQubits, len(want.Ops))
	}
	for i := range got.Ops {
		g, w := got.Ops[i], want.Ops[i]
		if g.Gate.Name != w.Gate.Name || g.Gate.Qubits != w.Gate.Qubits ||
			fmt.Sprint(g.Qubits) != fmt.Sprint(w.Qubits) ||
			g.Mirrored != w.Mirrored || g.RouterSwap != w.RouterSwap {
			return fmt.Errorf("op %d is %v, want %v", i, g, w)
		}
		gm, wm := g.Gate.Matrix().Data, w.Gate.Matrix().Data
		for j := range wm {
			if !sameFloat(real(gm[j]), real(wm[j])) || !sameFloat(imag(gm[j]), imag(wm[j])) {
				return fmt.Errorf("op %d (%v): matrix entry %d is %v, want %v", i, g, j, gm[j], wm[j])
			}
		}
		if (g.Coord == nil) != (w.Coord == nil) || g.Coord != nil && !sameCoord(*g.Coord, *w.Coord) {
			return fmt.Errorf("op %d (%v): coordinate %v, want %v", i, g, g.Coord, w.Coord)
		}
	}
	return nil
}

func sameFloat(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func sameCoord(a, b weyl.Coordinate) bool {
	return sameFloat(a.X, b.X) && sameFloat(a.Y, b.Y) && sameFloat(a.Z, b.Z)
}

// TestCleanPreservesUnitary checks the cleaning contract on random
// circuits mixing identities, zero rotations, algorithm SWAPs and 3Q
// gates: the output holds none of them, and
// U(c) = PermutationMatrix(inverse(pi)) * U(clean).
func TestCleanPreservesUnitary(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 20; i++ {
		n := 3 + i%3
		c := circuit.New(fmt.Sprintf("clean%d", i), n)
		c.Add(gates.I(), rng.Intn(n))
		c.Ops = append(c.Ops, randomMixed(c.Name, n, 10+i, rng).Ops...)
		c.Add(gates.RZ(0), rng.Intn(n))
		c.Add(gates.CPhase(0), 0, 1)
		clean, pi := circuit.Clean(c)
		for _, op := range clean.Ops {
			if len(op.Qubits) > 2 || op.Gate.Name == "id" || op.Gate.Name == "swap" || len(op.Gate.Params) > 0 && op.Gate.Params[0] == 0 {
				t.Fatalf("%s: cleaning kept %s", c.Name, op)
			}
		}
		uc, err := c.Unitary()
		if err != nil {
			t.Fatal(err)
		}
		ue, err := clean.Unitary()
		if err != nil {
			t.Fatal(err)
		}
		if !circuit.PermutationMatrix(circuit.InversePermutation(pi)).Mul(ue).EqualApprox(uc, 1e-9) {
			t.Fatalf("%s: cleaning changed the unitary beyond its wire permutation", c.Name)
		}
	}
}
