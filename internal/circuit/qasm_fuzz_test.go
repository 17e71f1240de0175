package circuit

import (
	"math"
	"testing"
)

// ParseQASM reads untrusted files, so it is fuzzed: any input is
// either rejected with an error or yields a circuit whose op list
// survives a write and reparse unchanged. The seed corpus under
// testdata/fuzz holds a suite circuit (qft_n5), a truncated copy and
// a copy with an out-of-range qubit.
func FuzzParseQASM(f *testing.F) {
	f.Fuzz(func(t *testing.T, src string) {
		c, err := ParseQASM(src)
		if err != nil {
			return
		}
		again, err := ParseQASM(WriteQASM(c))
		if err != nil {
			t.Fatalf("accepted circuit does not reparse: %v", err)
		}
		if again.NumQubits != c.NumQubits || len(again.Ops) != len(c.Ops) {
			t.Fatalf("reparse has %d qubits and %d ops, want %d and %d",
				again.NumQubits, len(again.Ops), c.NumQubits, len(c.Ops))
		}
		for i, op := range c.Ops {
			if !sameParsedOp(op, again.Ops[i]) {
				t.Fatalf("op %d reparses as %v on %v, want %v on %v",
					i, again.Ops[i].Gate, again.Ops[i].Qubits, op.Gate, op.Qubits)
			}
		}
	})
}

// sameParsedOp compares what the QASM text carries: gate name,
// parameters (NaN equal to NaN) and operands.
func sameParsedOp(a, b Op) bool {
	if a.Gate.Name != b.Gate.Name || len(a.Gate.Params) != len(b.Gate.Params) || len(a.Qubits) != len(b.Qubits) {
		return false
	}
	for i, p := range a.Gate.Params {
		q := b.Gate.Params[i]
		if p != q && !(math.IsNaN(p) && math.IsNaN(q)) {
			return false
		}
	}
	for i, q := range a.Qubits {
		if b.Qubits[i] != q {
			return false
		}
	}
	return true
}
