package transpile_test

import (
	"fmt"
	"testing"

	"repro/internal/bench"
	"repro/internal/circuit"
	"repro/internal/gates"
	"repro/internal/sabre"
	"repro/internal/topology"
	"repro/internal/transpile"
	"repro/internal/weyl"
)

// certifyRouting checks that rep.Routed routes src, the circuit the
// router was given, without computing a unitary, so it reaches any
// width. It walks the routed ops from rep.InitialLayout, moving the
// logical-to-physical map at every router SWAP and mirrored op, and
// requires that:
//
//   - every other op is the next pending op of src on each of its
//     logical wires, on the same wires in the same order, which checks
//     dependency order;
//   - it carries that op's gate, or SWAP · U when it is Mirrored;
//   - every 2Q op sits on a coupled pair;
//   - every op of src is routed, and the map ends at the layout whose
//     composition with elided, the permutation input cleaning returned,
//     is rep.FinalLayout;
//   - when the routed circuit carries a class list, every payload 2Q
//     op's Class indexes it at the class of its source op, or at
//     weyl.Mirror of that class when it is Mirrored, and every router
//     SWAP carries circuit.SwapSlot; without a list, no op carries a
//     slot.
func certifyRouting(src *circuit.Circuit, elided []int, topo *topology.Topology, rep *transpile.Report) error {
	onWire := make([][]int, src.NumQubits) // src ops per logical wire, in order
	for k, op := range src.Ops {
		for _, q := range op.Qubits {
			onWire[q] = append(onWire[q], k)
		}
	}
	next := make([]int, src.NumQubits)
	l2p := append([]int(nil), rep.InitialLayout.L2P...)
	p2l := append([]int(nil), rep.InitialLayout.P2L...)
	swapLogical := func(a, b int) {
		p2l[a], p2l[b] = p2l[b], p2l[a]
		for _, p := range []int{a, b} {
			if l := p2l[p]; l >= 0 {
				l2p[l] = p
			}
		}
	}
	swap := gates.SWAP().Matrix()
	cls := rep.Routed.Classes
	for i, op := range rep.Routed.Ops {
		if op.Is2Q() && !topo.HasEdge(op.Qubits[0], op.Qubits[1]) {
			return fmt.Errorf("op %d (%s) sits on an uncoupled pair", i, op)
		}
		if cls == nil && op.Class != 0 {
			return fmt.Errorf("op %d (%s) carries slot %d without a class list", i, op, op.Class)
		}
		if op.RouterSwap {
			if cls != nil && op.Class != circuit.SwapSlot {
				return fmt.Errorf("router SWAP %d carries slot %d, not the SWAP's", i, op.Class)
			}
			swapLogical(op.Qubits[0], op.Qubits[1])
			continue
		}
		l0 := p2l[op.Qubits[0]]
		if l0 < 0 || next[l0] == len(onWire[l0]) {
			return fmt.Errorf("op %d (%s) has no pending source op on its first wire", i, op)
		}
		k := onWire[l0][next[l0]]
		for j, p := range op.Qubits {
			if l := p2l[p]; l != src.Ops[k].Qubits[j] || next[l] == len(onWire[l]) || onWire[l][next[l]] != k {
				return fmt.Errorf("op %d (%s) is not source op %d (%s) on its wires", i, op, k, src.Ops[k])
			}
		}
		want := src.Ops[k].Gate.Matrix()
		if op.Mirrored {
			want = swap.Mul(want)
		}
		if !op.Gate.Matrix().EqualApprox(want, 1e-12) {
			return fmt.Errorf("op %d (%s, mirrored %v) does not carry source op %d's gate", i, op, op.Mirrored, k)
		}
		if cls != nil && op.Is2Q() {
			class := circuit.OpCoordinate(src.Ops[k])
			if op.Mirrored {
				class = weyl.Mirror(class)
			}
			if op.Class <= 0 || int(op.Class) >= len(cls.Coords) || cls.Coords[op.Class] != class {
				return fmt.Errorf("op %d (%s, mirrored %v) carries slot %d, not the class %v of source op %d",
					i, op, op.Mirrored, op.Class, class, k)
			}
		}
		for _, p := range op.Qubits {
			next[p2l[p]]++
		}
		if op.Mirrored {
			swapLogical(op.Qubits[0], op.Qubits[1])
		}
	}
	for l := range next {
		if next[l] != len(onWire[l]) {
			return fmt.Errorf("wire %d: %d of %d source ops routed", l, next[l], len(onWire[l]))
		}
	}
	for w, e := range elided {
		if l2p[e] != rep.FinalLayout.L2P[w] {
			return fmt.Errorf("source wire %d ends on %d, the report says %d", w, l2p[e], rep.FinalLayout.L2P[w])
		}
	}
	return nil
}

// TestRoutingCertificateSuite certifies the routing of every suite
// circuit under SABRE and MIRAGE-Depth on square-6x6 and heavy-hex at a
// quick trial budget: 11 to 30 qubits, where no unitary check reaches.
// It pins, among the rest, that the winner's accepted mirrors carry
// SWAP · U although its scored trials never built one, that every
// routed MIRAGE-Depth row carries its class list and slots, and that
// SWAP-count SABRE rows carry none.
func TestRoutingCertificateSuite(t *testing.T) {
	layout := sabre.LayoutOptions{LayoutTrials: 3, RoutingTrials: 3, FwdBwdPasses: 2, Seed: 1}
	mirrors, classed := 0, 0
	for _, topo := range []*topology.Topology{topology.SquareLattice66(), topology.HeavyHex57()} {
		for _, e := range bench.Suite() {
			c := e.Build()
			pc := transpile.PrepareCircuit(c, topo)
			_, elided := circuit.Clean(c)
			for _, opts := range []transpile.Options{
				{Router: transpile.SABRE, Layout: layout},
				{Router: transpile.MIRAGE, DepthSelection: true, Layout: layout},
			} {
				rep, err := transpile.TranspilePrepared(pc, opts)
				if err != nil {
					t.Fatal(err)
				}
				if err := certifyRouting(pc.Blocks, elided, topo, rep); err != nil {
					t.Fatalf("%s on %s under %s: %v", e.Name, topo.Name, rep.Router, err)
				}
				switch classes := rep.Routed.Classes; {
				case opts.Router == transpile.SABRE && classes != nil:
					t.Fatalf("%s on %s: a SWAP-count SABRE row carries a class list", e.Name, topo.Name)
				case opts.Router == transpile.MIRAGE && !rep.TrivialLayout && classes == nil:
					t.Fatalf("%s on %s: a routed MIRAGE-Depth row carries no class list", e.Name, topo.Name)
				case classes != nil:
					classed++
				}
				mirrors += rep.MirrorsUsed
			}
		}
	}
	if mirrors == 0 || classed == 0 {
		t.Fatalf("%d certified mirrors and %d rows with class slots, want some of each", mirrors, classed)
	}
	t.Logf("%d mirrors certified; %d rows' class slots certified", mirrors, classed)
}
