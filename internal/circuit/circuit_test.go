package circuit

import (
	"math"
	"testing"

	"repro/internal/gates"
	"repro/internal/linalg"
	"repro/internal/weyl"
)

func bell() *Circuit {
	c := New("bell", 2)
	c.Add(gates.H(), 0)
	c.Add(gates.CX(), 0, 1)
	return c
}

func TestAppendValidation(t *testing.T) {
	c := New("t", 2)
	for _, fn := range []func(){
		func() { c.Add(gates.CX(), 0, 5) },       // out of range
		func() { c.Add(gates.CX(), 1, 1) },       // duplicate qubit
		func() { c.Add(gates.H(), 0, 1) },        // arity mismatch
		func() { c.Append(Op{Gate: gates.H()}) }, // no qubits
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic for invalid op")
				}
			}()
			fn()
		}()
	}
}

func TestDepthUnitWeight(t *testing.T) {
	c := New("d", 4)
	c.Add(gates.CX(), 0, 1)
	c.Add(gates.CX(), 2, 3) // parallel with the first
	c.Add(gates.CX(), 1, 2) // depends on both
	if d := c.Depth(UnitWeight2Q); d != 2 {
		t.Fatalf("depth = %g, want 2", d)
	}
	c.Add(gates.H(), 0) // free
	if d := c.Depth(UnitWeight2Q); d != 2 {
		t.Fatalf("depth with 1Q = %g, want 2", d)
	}
}

func TestDepthWeighted(t *testing.T) {
	c := New("w", 2)
	c.Add(gates.SWAP(), 0, 1)
	c.Add(gates.CX(), 0, 1)
	w := func(op Op) float64 {
		if op.Gate.Name == "swap" {
			return 1.5
		}
		return 1.0
	}
	if d := c.Depth(w); math.Abs(d-2.5) > 1e-12 {
		t.Fatalf("weighted depth = %g, want 2.5", d)
	}
}

func TestCounters(t *testing.T) {
	c := New("cnt", 3)
	c.Add(gates.H(), 0)
	c.Add(gates.CX(), 0, 1)
	c.Append(Op{Gate: gates.SWAP(), Qubits: []int{1, 2}, RouterSwap: true})
	c.Append(Op{Gate: gates.CNS(), Qubits: []int{0, 1}, Mirrored: true})
	if c.CountGates() != 4 || c.Count2Q() != 3 || c.CountRouterSwaps() != 1 || c.CountMirrored() != 1 {
		t.Fatalf("counters wrong: gates=%d 2q=%d swaps=%d mirrored=%d",
			c.CountGates(), c.Count2Q(), c.CountRouterSwaps(), c.CountMirrored())
	}
}

func TestUnitaryBell(t *testing.T) {
	u, err := bell().Unitary()
	if err != nil {
		t.Fatal(err)
	}
	// Column 0 must be the Bell state (|00> + |11>)/sqrt2.
	s := 1 / math.Sqrt2
	want := []complex128{complex(s, 0), 0, 0, complex(s, 0)}
	for i, w := range want {
		if d := u.At(i, 0) - w; real(d)*real(d)+imag(d)*imag(d) > 1e-18 {
			t.Fatalf("Bell column 0 entry %d = %v, want %v", i, u.At(i, 0), w)
		}
	}
}

func TestUnitaryQubitOrderConvention(t *testing.T) {
	// CX(0,1) on 2 qubits must equal the gate matrix itself.
	c := New("cx", 2)
	c.Add(gates.CX(), 0, 1)
	u, _ := c.Unitary()
	if !u.EqualApprox(gates.CX().Matrix(), 1e-12) {
		t.Fatal("embedding does not respect q0-is-MSB convention")
	}
	// CX(1,0): control on q1.
	c2 := New("cx10", 2)
	c2.Add(gates.CX(), 1, 0)
	u2, _ := c2.Unitary()
	sw := gates.SWAP().Matrix()
	want := sw.Mul(gates.CX().Matrix()).Mul(sw)
	if !u2.EqualApprox(want, 1e-12) {
		t.Fatal("reversed 2Q embedding wrong")
	}
}

func TestUnitaryOnThreeQubits(t *testing.T) {
	// CX on (0,2) with a spectator in the middle.
	c := New("spectator", 3)
	c.Add(gates.X(), 0)
	c.Add(gates.CX(), 0, 2)
	u, _ := c.Unitary()
	// |000> -> X on q0 -> |100> -> CX(0,2) -> |101>.
	in := 0
	want := 0b101
	if v := u.At(want, in); real(v) < 0.99 {
		t.Fatalf("|000> mapped with amplitude %v at %03b", v, want)
	}
}

func TestPermutationMatrix(t *testing.T) {
	// perm swaps qubits 0 and 1 of 2: acts like SWAP.
	p := PermutationMatrix([]int{1, 0})
	if !p.EqualApprox(gates.SWAP().Matrix(), 1e-12) {
		t.Fatal("PermutationMatrix([1,0]) != SWAP")
	}
	id := PermutationMatrix([]int{0, 1, 2})
	if !id.EqualApprox(linalg.Identity(8), 1e-12) {
		t.Fatal("identity permutation wrong")
	}
}

func TestDAGStructure(t *testing.T) {
	c := New("dag", 3)
	c.Add(gates.CX(), 0, 1) // op0
	c.Add(gates.CX(), 1, 2) // op1 depends on op0
	c.Add(gates.H(), 0)     // op2 depends on op0
	c.Add(gates.CX(), 0, 2) // op3 depends on op1, op2
	d := BuildDAG(c)
	front := d.FrontLayer()
	if len(front) != 1 || front[0] != 0 {
		t.Fatalf("front layer = %v, want [0]", front)
	}
	if len(d.Preds[3]) != 2 {
		t.Fatalf("op3 preds = %v, want two", d.Preds[3])
	}
}

func TestTraversal(t *testing.T) {
	c := New("trav", 3)
	c.Add(gates.CX(), 0, 1)
	c.Add(gates.CX(), 1, 2)
	c.Add(gates.CX(), 0, 1)
	d := BuildDAG(c)
	tr := d.NewTraversal()
	if len(tr.Ready) != 1 || tr.Ready[0] != 0 {
		t.Fatalf("initial ready = %v", tr.Ready)
	}
	tr.Execute(0)
	// op1 (cx 1,2) becomes ready; op2 (cx 0,1) still waits on op1 via
	// the shared qubit 1.
	if len(tr.Ready) != 1 || tr.Ready[0] != 1 {
		t.Fatalf("after op0, ready = %v, want [1]", tr.Ready)
	}
	tr.Execute(1)
	tr.Execute(2)
	if !tr.Done() {
		t.Fatal("traversal not done after executing all ops")
	}
}

func TestTraversalDescendants(t *testing.T) {
	c := New("desc", 2)
	for i := 0; i < 6; i++ {
		c.Add(gates.CX(), 0, 1)
	}
	d := BuildDAG(c)
	tr := d.NewTraversal()
	desc := tr.Descendants(3)
	if len(desc) != 3 {
		t.Fatalf("descendants = %v, want 3 entries", desc)
	}
	if desc[0] != 1 || desc[1] != 2 || desc[2] != 3 {
		t.Fatalf("descendants = %v, want [1 2 3]", desc)
	}
}

func TestReversedPreservesOpsBackwards(t *testing.T) {
	c := bell()
	r := c.Reversed()
	if r.Ops[0].Gate.Name != "cx" || r.Ops[1].Gate.Name != "h" {
		t.Fatal("Reversed did not reverse op order")
	}
	if c.Ops[0].Gate.Name != "h" {
		t.Fatal("Reversed mutated the original")
	}
}

func TestConsolidatePreservesUnitary(t *testing.T) {
	c := New("cons", 3)
	c.Add(gates.H(), 0)
	c.Add(gates.CX(), 0, 1)
	c.Add(gates.T(), 1)
	c.Add(gates.CX(), 0, 1)
	c.Add(gates.RZ(0.3), 0)
	c.Add(gates.CX(), 1, 2)
	c.Add(gates.H(), 2)
	cc := ConsolidateBlocks(c)
	ok, err := EquivalentUpToPhase(c, cc, 1e-8)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("consolidation changed the circuit unitary")
	}
	// The first three 2Q-touching gates form one block.
	if cc.Count2Q() != 2 {
		t.Fatalf("consolidated 2Q count = %d, want 2 blocks", cc.Count2Q())
	}
}

func TestConsolidateAnnotatesCoordinates(t *testing.T) {
	c := New("coords", 2)
	c.Add(gates.CX(), 0, 1)
	cc := ConsolidateBlocks(c)
	if len(cc.Ops) != 1 || cc.Ops[0].Coord == nil {
		t.Fatal("block coordinate not annotated")
	}
	if !cc.Ops[0].Coord.ApproxEqual(weyl.CNOTCoord, 1e-7) {
		t.Fatalf("block coordinate %v, want CNOT", *cc.Ops[0].Coord)
	}
	// CX.CX = identity block.
	c2 := New("coords2", 2)
	c2.Add(gates.CX(), 0, 1)
	c2.Add(gates.CX(), 0, 1)
	cc2 := ConsolidateBlocks(c2)
	if !cc2.Ops[0].Coord.ApproxEqual(weyl.IdentityCoord, 1e-7) {
		t.Fatalf("CX.CX coordinate %v, want identity", *cc2.Ops[0].Coord)
	}
}

func TestConsolidateExteriorOneQubitCaching(t *testing.T) {
	// Two blocks that differ only in exterior 1Q gates share an
	// interior, so the second must hit the coordinate cache.
	ResetCoordinateCache()
	c := New("cache", 2)
	c.Add(gates.RZ(0.1), 0)
	c.Add(gates.CX(), 0, 1)
	ConsolidateBlocks(c)
	c2 := New("cache2", 2)
	c2.Add(gates.RZ(0.9), 0) // different exterior
	c2.Add(gates.CX(), 0, 1)
	ConsolidateBlocks(c2)
	hits, misses := CoordinateCacheStats()
	if hits < 1 {
		t.Fatalf("exterior-1Q cache trick ineffective: hits=%d misses=%d", hits, misses)
	}
}

func TestUnrollToffoliMatchesMatrix(t *testing.T) {
	c := New("ccx", 3)
	c.Add(Toffoli(), 0, 1, 2)
	u := UnrollTo2Q(c)
	for _, op := range u.Ops {
		if len(op.Qubits) > 2 {
			t.Fatal("unroll left a 3Q gate")
		}
	}
	if len(u.Ops) != toffoliOps || cap(u.Ops) != toffoliOps {
		t.Fatalf("unrolled into %d ops with capacity %d, want %d of each", len(u.Ops), cap(u.Ops), toffoliOps)
	}
	ok, err := EquivalentUpToPhase(c, u, 1e-8)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("Toffoli unroll is not unitarily equivalent")
	}
}

func TestUnrollFredkinMatchesMatrix(t *testing.T) {
	c := New("cswap", 3)
	c.Add(Fredkin(), 0, 1, 2)
	u := UnrollTo2Q(c)
	if len(u.Ops) != fredkinOps || cap(u.Ops) != fredkinOps {
		t.Fatalf("unrolled into %d ops with capacity %d, want %d of each", len(u.Ops), cap(u.Ops), fredkinOps)
	}
	ok, err := EquivalentUpToPhase(c, u, 1e-8)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("Fredkin unroll is not unitarily equivalent")
	}
}

func TestRemoveIdentities(t *testing.T) {
	c := New("ids", 2)
	c.Add(gates.I(), 0)
	c.Add(gates.RZ(0), 1)
	c.Add(gates.H(), 0)
	c.Add(gates.RZ(0.5), 1)
	out, _ := Clean(c)
	if out.CountGates() != 2 {
		t.Fatalf("Clean left %d gates, want 2", out.CountGates())
	}
}

func TestElideSwaps(t *testing.T) {
	c := New("sw", 3)
	c.Add(gates.H(), 0)
	c.Add(gates.SWAP(), 0, 1)
	c.Add(gates.CX(), 1, 2) // acts on the state originally on wire 0
	elided, pi := Clean(c)
	if elided.CountGates() != 2 {
		t.Fatalf("elided circuit has %d gates, want 2", elided.CountGates())
	}
	// Unitary check: U(c) = Perm(inv(pi)) . U(elided).
	uc, _ := c.Unitary()
	ue, _ := elided.Unitary()
	perm := PermutationMatrix(InversePermutation(pi))
	if !perm.Mul(ue).EqualApprox(uc, 1e-9) {
		t.Fatal("Clean permutation contract violated")
	}
}

func TestQASMRoundTrip(t *testing.T) {
	c := New("rt", 3)
	c.Add(gates.H(), 0)
	c.Add(gates.RZ(0.375), 1)
	c.Add(gates.CX(), 0, 1)
	c.Add(gates.CPhase(math.Pi/4), 1, 2)
	c.Add(gates.SWAP(), 0, 2)
	qasm := WriteQASM(c)
	parsed, err := ParseQASM(qasm)
	if err != nil {
		t.Fatalf("round trip parse failed: %v\n%s", err, qasm)
	}
	ok, err := EquivalentUpToPhase(c, parsed, 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("QASM round trip changed the unitary")
	}
}

func TestParseQASMExpressions(t *testing.T) {
	src := `
OPENQASM 2.0;
include "qelib1.inc";
qreg q[2];
creg c[2];
rz(pi/2) q[0];
rx(-pi/4) q[1];
cp(2*pi/8) q[0],q[1];
u2(0, pi) q[0];
measure q[0] -> c[0];
`
	c, err := ParseQASM(src)
	if err != nil {
		t.Fatal(err)
	}
	if c.NumQubits != 2 || c.CountGates() != 4 {
		t.Fatalf("parsed %d qubits, %d gates", c.NumQubits, c.CountGates())
	}
	if math.Abs(c.Ops[0].Gate.Params[0]-math.Pi/2) > 1e-12 {
		t.Fatalf("rz param = %g, want pi/2", c.Ops[0].Gate.Params[0])
	}
	if math.Abs(c.Ops[1].Gate.Params[0]+math.Pi/4) > 1e-12 {
		t.Fatalf("rx param = %g, want -pi/4", c.Ops[1].Gate.Params[0])
	}
}

func TestParseQASMErrors(t *testing.T) {
	for _, src := range []string{
		"",
		"qreg q[2]; bogus q[0];",
		"h q[0];",
		"qreg q[2]; h r[0];",
	} {
		if _, err := ParseQASM(src); err == nil {
			t.Errorf("expected parse error for %q", src)
		}
	}
}

func TestParseQASMToffoli(t *testing.T) {
	src := "qreg q[3]; ccx q[0],q[1],q[2];"
	c, err := ParseQASM(src)
	if err != nil {
		t.Fatal(err)
	}
	u := UnrollTo2Q(c)
	if u.Count2Q() != 6 {
		t.Fatalf("unrolled Toffoli has %d 2Q gates, want 6", u.Count2Q())
	}
}

func TestInteractionPairs(t *testing.T) {
	c := New("ip", 3)
	c.Add(gates.CX(), 0, 1)
	c.Add(gates.CX(), 1, 0)
	c.Add(gates.CX(), 1, 2)
	pairs := c.InteractionPairs()
	if pairs[[2]int{0, 1}] != 2 || pairs[[2]int{1, 2}] != 1 {
		t.Fatalf("interaction pairs = %v", pairs)
	}
}

// UnitWeight2Q counts every 2Q op as 1 and 1Q ops as 0.
func UnitWeight2Q(op Op) float64 {
	if op.Is2Q() {
		return 1
	}
	return 0
}

// EquivalentUpToPhase reports whether two circuits implement the same
// unitary up to global phase.
func EquivalentUpToPhase(a, b *Circuit, tol float64) (bool, error) {
	ua, err := a.Unitary()
	if err != nil {
		return false, err
	}
	ub, err := b.Unitary()
	if err != nil {
		return false, err
	}
	return ua.EqualUpToGlobalPhase(ub, tol), nil
}
