package circuit

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"slices"
	"strings"
	"testing"

	"repro/internal/gates"
)

// TestWriteQASMReadsBackOrFails writes every gate the repository
// builds, one per circuit, and parses the text back: a gate under a
// name ParseQASM reads must come back as the same unitary on the same
// wires, and any other must be rejected with an error, never read as
// a different gate. The table covers every exported constructor of
// package gates (checked against its source), the 3Q gates, the ops of
// a consolidated circuit (blocks and their 1Q products) and a mirror
// gate as the router names it.
func TestWriteQASMReadsBackOrFails(t *testing.T) {
	cx := gates.CX()
	type entry struct {
		ctor  string // the constructor the gate comes from
		gate  gates.Gate
		reads bool // ParseQASM reads its name back
	}
	table := []entry{
		{"I", gates.I(), true}, {"X", gates.X(), true}, {"Y", gates.Y(), true},
		{"Z", gates.Z(), true}, {"H", gates.H(), true}, {"S", gates.S(), true},
		{"Sdg", gates.Sdg(), true}, {"T", gates.T(), true}, {"Tdg", gates.Tdg(), true},
		{"SX", gates.SX(), true}, {"RX", gates.RX(0.3), true}, {"RY", gates.RY(-1.2), true},
		{"RZ", gates.RZ(2.5), true}, {"P", gates.P(0.7), true},
		{"U3", gates.U3(0.4, -0.9, 1.3), true}, {"CX", cx, true}, {"CZ", gates.CZ(), true},
		{"SWAP", gates.SWAP(), true}, {"ISwap", gates.ISwap(), true},
		{"ISwapPow", gates.ISwapPow(0.3), false}, {"SqrtISwap", gates.SqrtISwap(), true},
		{"SqrtISwapN", gates.SqrtISwapN(3), false}, {"CPhase", gates.CPhase(1.1), true},
		{"CRY", gates.CRY(0.8), false}, {"CRZ", gates.CRZ(-0.6), true},
		{"RXX", gates.RXX(0.9), true}, {"RZZ", gates.RZZ(1.7), true},
		{"PSwap", gates.PSwap(0.5), false}, {"CNS", gates.CNS(), false},
		{"Canonical", gates.Canonical(0.3, 0.2, 0.1), false},
		{"NewCustom", gates.NewCustom("su4", 2, gates.CNS().Matrix()), false},
		// A decoded wire copy of a gate keeps its name and parameters.
		{"NewCustomWithParams", gates.NewCustomWithParams("rz", 1, []float64{0.5}, gates.RZ(0.5).Matrix()), true},
		{"Toffoli", Toffoli(), true}, {"Fredkin", Fredkin(), true},
		{"mirror", gates.NewCustom(cx.Name+"'", 2, gates.SWAP().Matrix().Mul(cx.Matrix())), false},
	}
	// A consolidated circuit holds blocks and the products of 1Q runs
	// no block absorbs (here on wire 2), both custom gates without
	// parameters.
	src := New("consolidate", 3)
	src.Add(gates.H(), 0)
	src.Add(cx, 0, 1)
	src.Add(gates.RZ(0.4), 1)
	src.Add(gates.CZ(), 1, 0)
	src.Add(gates.RY(0.2), 2)
	src.Add(gates.T(), 2)
	var names []string
	for _, op := range ConsolidateBlocks(src).Ops {
		table = append(table, entry{"ConsolidateBlocks", op.Gate, false})
		names = append(names, op.Gate.Name)
	}
	slices.Sort(names)
	if got := strings.Join(names, ","); got != "block,u" {
		t.Fatalf("consolidated ops %s, want a block and a 1Q product", got)
	}

	covered := map[string]bool{}
	for _, e := range table {
		covered[e.ctor] = true
		// Put the gate on reversed wires of a wider circuit, so a read
		// that swapped its operands would show.
		k := e.gate.Qubits
		c := New(e.ctor, 3)
		c.Append(Op{Gate: e.gate, Qubits: []int{2, 0, 1}[:k]})
		text := WriteQASM(c)
		back, err := ParseQASM(text)
		switch {
		case err != nil && e.reads:
			t.Errorf("%s (%s): %v", e.ctor, e.gate.Name, err)
		case err != nil:
		case !e.reads:
			t.Errorf("%s (%s) is read back; its name should be rejected", e.ctor, e.gate.Name)
		default:
			want, werr := c.Unitary()
			got, gerr := back.Unitary()
			if werr != nil || gerr != nil || len(back.Ops) != 1 || !got.EqualApprox(want, 1e-12) {
				t.Errorf("%s (%s) reads back as another circuit:\n%s", e.ctor, e.gate.Name, text)
			}
		}
	}
	for _, name := range gateConstructors(t) {
		if !covered[name] {
			t.Errorf("gates.%s is not in the table", name)
		}
	}
}

// gateConstructors lists the exported functions of package gates that
// return a gates.Gate, read from its source.
func gateConstructors(t *testing.T) []string {
	t.Helper()
	pkgs, err := parser.ParseDir(token.NewFileSet(), "../gates", func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				fn, ok := d.(*ast.FuncDecl)
				if !ok || fn.Recv != nil || !fn.Name.IsExported() || fn.Type.Results == nil || len(fn.Type.Results.List) != 1 {
					continue
				}
				if id, ok := fn.Type.Results.List[0].Type.(*ast.Ident); ok && id.Name == "Gate" {
					names = append(names, fn.Name.Name)
				}
			}
		}
	}
	if len(names) == 0 {
		t.Fatal("found no gate constructors in package gates")
	}
	return names
}
