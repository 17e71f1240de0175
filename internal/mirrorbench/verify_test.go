package mirrorbench

import (
	"errors"
	"math"
	"testing"

	"repro/internal/circuit"
	"repro/internal/gates"
	"repro/internal/sabre"
	"repro/internal/topology"
	"repro/internal/transpile"
)

// suiteSpecs are the specs exercised end-to-end below (a superset of
// the bench.MirrorSuite rows, plus extra seeds).
func suiteSpecs() []Spec {
	return []Spec{
		{Kind: RandomizedClifford, Qubits: 5, Layers: 4, Seed: 1},
		{Kind: RandomizedClifford, Qubits: 6, Layers: 6, Seed: 2},
		{Kind: RandomizedClifford, Qubits: 4, Layers: 3, Seed: 11},
		{Kind: QuantumVolume, Qubits: 4, Layers: 3, Seed: 7},
		{Kind: QuantumVolume, Qubits: 5, Layers: 4, Seed: 3},
	}
}

func transpileMirror(t *testing.T, m *Mirror, topo *topology.Topology,
	router transpile.Router) *transpile.Report {
	t.Helper()
	rep, err := transpile.Transpile(m.Circuit, topo, transpile.Options{
		Router:         router,
		DepthSelection: router == transpile.MIRAGE,
		Layout: sabre.LayoutOptions{
			LayoutTrials: 4, RoutingTrials: 4, FwdBwdPasses: 2, Seed: 1,
		},
		SkipTrivialLayout: true, // force the routed path — that is what the oracle audits
	})
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestVerifyTranspiledMirrors is the semantic gate in miniature: every
// mirror spec, transpiled with both routers onto small devices, must
// keep the survival amplitude at exactly 1 (within numerics). No
// reference implementation is consulted — only the mirror identity.
func TestVerifyTranspiledMirrors(t *testing.T) {
	topos := []*topology.Topology{topology.Grid(3, 4), topology.Line(8)}
	for _, s := range suiteSpecs() {
		m := Generate(s)
		for _, topo := range topos {
			for _, router := range []transpile.Router{transpile.SABRE, transpile.MIRAGE} {
				rep := transpileMirror(t, m, topo, router)
				fid, err := Verify(rep.Routed, rep.FinalLayout, m.Expected, 1e-9)
				if err != nil {
					t.Errorf("%s on %s via %s: %v", s.Name(), topo.Name, router, err)
					continue
				}
				if math.Abs(1-fid) > 1e-9 {
					t.Errorf("%s on %s via %s: survival fidelity %.12f", s.Name(), topo.Name, router, fid)
				}
				// The reconsolidated form must satisfy the identity too:
				// this additionally audits block consolidation on the
				// routed output (the circuit the metrics are measured on).
				fid, err = Verify(circuit.ConsolidateBlocks(rep.Routed), rep.FinalLayout, m.Expected, 1e-9)
				if err != nil {
					t.Errorf("%s on %s via %s (reconsolidated): %v", s.Name(), topo.Name, router, err)
				} else if math.Abs(1-fid) > 1e-9 {
					t.Errorf("%s on %s via %s (reconsolidated): survival fidelity %.12f",
						s.Name(), topo.Name, router, fid)
				}
			}
		}
	}
}

// TestVerifyCatchesPipelineBugs injects the classes of bug the gate
// exists for — a dropped op, a corrupted wire, a stale final layout —
// and demands Verify reject every one.
func TestVerifyCatchesPipelineBugs(t *testing.T) {
	m := Generate(Spec{Kind: RandomizedClifford, Qubits: 5, Layers: 4, Seed: 1})
	topo := topology.Grid(3, 4)
	rep := transpileMirror(t, m, topo, transpile.MIRAGE)

	// Sanity: the untampered output passes.
	if _, err := Verify(rep.Routed, rep.FinalLayout, m.Expected, 1e-9); err != nil {
		t.Fatalf("untampered output rejected: %v", err)
	}

	// Bug 1: a 2Q op silently dropped (mis-scheduled gate).
	dropped := circuit.New(rep.Routed.Name, rep.Routed.NumQubits)
	droppedOne := false
	for _, op := range rep.Routed.Ops {
		if !droppedOne && op.Is2Q() && !op.RouterSwap {
			droppedOne = true
			continue
		}
		dropped.Append(op)
	}
	if !droppedOne {
		t.Fatal("routed circuit had no droppable 2Q op")
	}
	if _, err := Verify(dropped, rep.FinalLayout, m.Expected, 1e-9); err == nil {
		t.Error("dropped-op circuit passed verification")
	}

	// Bug 2: a stray X on a wire the circuit uses (wire corruption).
	stray := rep.Routed.Copy()
	stray.Add(gates.X(), stray.Ops[0].Qubits[0])
	if _, err := Verify(stray, rep.FinalLayout, m.Expected, 1e-9); err == nil {
		t.Error("stray-X circuit passed verification")
	}

	// Bug 3: final layout bookkeeping off by one SWAP (the classic
	// mirror-substitution bug: gate replaced but layout not updated).
	// Exchanging the homes of two logical qubits only moves the
	// expected row when their bits differ, so pick such a pair — the
	// generator's mixed-bitstring seeds guarantee one exists.
	q0, q1 := -1, -1
	for a := 0; a < len(m.Expected) && q0 < 0; a++ {
		for b := a + 1; b < len(m.Expected); b++ {
			if m.Expected[a] != m.Expected[b] {
				q0, q1 = a, b
				break
			}
		}
	}
	if q0 < 0 {
		t.Fatalf("seed produced uniform bitstring %v; pick one with mixed bits", m.Expected)
	}
	wrong := rep.FinalLayout.Copy()
	wrong.SwapPhysical(wrong.Phys(q0), wrong.Phys(q1))
	if _, err := Verify(rep.Routed, wrong, m.Expected, 1e-9); err == nil {
		t.Error("corrupted final layout passed verification")
	}
}

// TestVerifyWrongBitstringRejected: demanding the wrong outcome must
// fail — i.e. the check is sensitive to the expected bits, not just
// "some basis state survives".
func TestVerifyWrongBitstringRejected(t *testing.T) {
	m := Generate(Spec{Kind: RandomizedClifford, Qubits: 5, Layers: 4, Seed: 1})
	topo := topology.Grid(3, 4)
	rep := transpileMirror(t, m, topo, transpile.SABRE)
	wrong := append([]int(nil), m.Expected...)
	wrong[0] = 1 - wrong[0]
	if _, err := Verify(rep.Routed, rep.FinalLayout, wrong, 1e-9); err == nil {
		t.Fatal("wrong expected bitstring passed verification")
	}
}

// TestVerifyTooWide: a routed circuit touching more wires than the
// dense-unitary limit must return ErrTooWide (the advisory-skip
// signal), not a false verdict.
func TestVerifyTooWide(t *testing.T) {
	n := circuit.MaxUnitaryQubits + 2
	c := circuit.New("wide", n)
	for q := 0; q+1 < n; q++ {
		c.Add(gates.CX(), q, q+1)
	}
	layout := topology.TrivialLayout(2, n)
	_, err := Verify(c, layout, []int{0, 0}, 1e-9)
	if !errors.Is(err, ErrTooWide) {
		t.Fatalf("err = %v, want ErrTooWide", err)
	}
}

// TestVerifyCompaction: verification must succeed on a device far
// wider than the unitary limit as long as the routed circuit only
// touches a small neighbourhood.
func TestVerifyCompaction(t *testing.T) {
	m := Generate(Spec{Kind: QuantumVolume, Qubits: 4, Layers: 3, Seed: 7})
	big := topology.Grid(6, 6) // 36 physical qubits, >> MaxUnitaryQubits
	rep := transpileMirror(t, m, big, transpile.MIRAGE)
	fid, err := Verify(rep.Routed, rep.FinalLayout, m.Expected, 1e-9)
	if err != nil {
		if errors.Is(err, ErrTooWide) {
			t.Skipf("routing wandered over >%d wires for this seed: %v", circuit.MaxUnitaryQubits, err)
		}
		t.Fatal(err)
	}
	if math.Abs(1-fid) > 1e-9 {
		t.Fatalf("survival fidelity %.12f on wide device", fid)
	}
}
