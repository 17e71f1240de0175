package main

import (
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/circuit"
	"repro/internal/gates"
	"repro/internal/mirrorbench"
	"repro/internal/sabre"
	"repro/internal/topology"
	"repro/internal/transpile"
)

// routedMirror transpiles a small quantum-volume mirror circuit with
// MIRAGE-Depth onto a 3x4 grid and returns the report and the
// circuit's expected survival bitstring.
func routedMirror(t *testing.T) (*transpile.Report, []int) {
	t.Helper()
	gen := mirrorbench.Generate(mirrorbench.Spec{Kind: mirrorbench.QuantumVolume, Qubits: 4, Layers: 3, Seed: 7})
	rep, err := transpile.Transpile(gen.Circuit, topology.Grid(3, 4), transpile.Options{
		Router: transpile.MIRAGE, DepthSelection: true, SkipTrivialLayout: true, Parallelism: 1,
		Layout: sabre.LayoutOptions{LayoutTrials: 2, RoutingTrials: 2, FwdBwdPasses: 1, Seed: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	return rep, gen.Expected
}

// rowJSON is row's JSON form, as benchsuite writes it.
func rowJSON(t *testing.T, row bench.RoutingRow) string {
	t.Helper()
	b, err := json.Marshal(row)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func TestVerifyMirrorRowPasses(t *testing.T) {
	rep, expected := routedMirror(t)
	row := bench.NewRoutingRow(0, "mirror", rep)
	fid, err := verifyMirrorRow(&row, rep, expected)
	if err != nil {
		t.Fatal(err)
	}
	if row.MirrorVerified == nil || !*row.MirrorVerified {
		t.Fatalf("verdict %v, want true", row.MirrorVerified)
	}
	if row.SurvivalFidelity == nil || *row.SurvivalFidelity != fid || 1-fid > mirrorTol {
		t.Fatalf("recorded fidelity %v, returned %v; want the returned one, within %g of 1", row.SurvivalFidelity, fid, mirrorTol)
	}
	if js := rowJSON(t, row); !strings.Contains(js, `"mirror_verified":true`) {
		t.Fatalf("row JSON %s lacks a passing verdict", js)
	}
}

// TestVerifyMirrorRowDroppedOpFails: the routed circuit without its
// first op no longer maps |0...0> to the expected bitstring.
func TestVerifyMirrorRowDroppedOpFails(t *testing.T) {
	rep, expected := routedMirror(t)
	broken := *rep
	broken.Routed = rep.Routed.Copy()
	broken.Routed.Ops = broken.Routed.Ops[1:]
	row := bench.NewRoutingRow(0, "mirror", &broken)
	fid, err := verifyMirrorRow(&row, &broken, expected)
	if err == nil || errors.Is(err, mirrorbench.ErrTooWide) {
		t.Fatalf("err = %v, want a survival violation", err)
	}
	if row.MirrorVerified == nil || *row.MirrorVerified {
		t.Fatalf("verdict %v, want false", row.MirrorVerified)
	}
	if row.SurvivalFidelity == nil || *row.SurvivalFidelity != fid || 1-fid <= mirrorTol {
		t.Fatalf("recorded fidelity %v, returned %v; want the returned one, short of 1", row.SurvivalFidelity, fid)
	}
	if js := rowJSON(t, row); !strings.Contains(js, `"mirror_verified":false`) || !strings.Contains(js, `"survival_fidelity"`) {
		t.Fatalf("row JSON %s lacks the failing verdict or its fidelity", js)
	}
}

// TestVerifyMirrorRowTooWideLeavesNoVerdict: a routed circuit on more
// wires than the dense-unitary check holds is not checked at all.
func TestVerifyMirrorRowTooWideLeavesNoVerdict(t *testing.T) {
	n := circuit.MaxUnitaryQubits + 1
	c := circuit.New("wide", n)
	for q := 0; q+1 < n; q++ {
		c.Add(gates.CX(), q, q+1)
	}
	rep := &transpile.Report{Routed: c, FinalLayout: topology.TrivialLayout(n, n)}
	var row bench.RoutingRow
	if _, err := verifyMirrorRow(&row, rep, make([]int, n)); !errors.Is(err, mirrorbench.ErrTooWide) {
		t.Fatalf("err = %v, want ErrTooWide", err)
	}
	if row.MirrorVerified != nil || row.SurvivalFidelity != nil {
		t.Fatalf("verdict %v, fidelity %v; want neither", row.MirrorVerified, row.SurvivalFidelity)
	}
	if js := rowJSON(t, row); strings.Contains(js, "mirror_verified") || strings.Contains(js, "survival_fidelity") {
		t.Fatalf("row JSON %s carries verification fields", js)
	}
}
