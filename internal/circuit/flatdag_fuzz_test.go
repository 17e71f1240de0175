package circuit

import (
	"encoding/binary"
	"math"
	"testing"

	"repro/internal/gates"
)

// qftN5 is the 5-qubit QFT of the benchmark suite (qft_n5): every
// controlled phase unrolled into two CX and three phases.
func qftN5() *Circuit {
	c := New("qft_n5", 5)
	for i := 0; i < 5; i++ {
		c.Add(gates.H(), i)
		for j := i + 1; j < 5; j++ {
			theta := math.Pi / math.Pow(2, float64(j-i))
			c.Add(gates.P(theta/2), j)
			c.Add(gates.CX(), j, i)
			c.Add(gates.P(-theta/2), i)
			c.Add(gates.CX(), j, i)
			c.Add(gates.P(theta/2), i)
		}
	}
	return c
}

// int32s decodes little-endian int32 values, ignoring a ragged tail.
func int32s(b []byte) []int32 {
	out := make([]int32, len(b)/4)
	for i := range out {
		out[i] = int32(binary.LittleEndian.Uint32(b[4*i:]))
	}
	return out
}

// FlatDAGFromParts rebuilds the DAG a distributed worker receives in
// its job spec, so it is fuzzed: for qft_n5, any CSR arrays (each
// argument little-endian int32s) are either rejected with an error or
// yield a DAG whose FlatTraversal executes every op exactly once. The
// seed corpus under testdata/fuzz holds the valid arrays, a copy with
// truncated successors and a copy with a backward (cyclic) edge.
func FuzzFlatDAGFromParts(f *testing.F) {
	c := qftN5()
	f.Fuzz(func(t *testing.T, predOff, preds, succOff, succs []byte) {
		d, err := FlatDAGFromParts(c, int32s(predOff), int32s(preds), int32s(succOff), int32s(succs))
		if err != nil {
			return
		}
		tr := d.NewFlatTraversal()
		executed := make([]bool, len(c.Ops))
		// Each step executes one op, so a sound DAG is done in len(Ops)
		// steps; an empty ready set before that is a hang.
		for step := 0; step < len(c.Ops) && !tr.Done(); step++ {
			i := tr.ReadyFirst()
			if i < 0 {
				t.Fatalf("no ready op after %d of %d executions", step, len(c.Ops))
			}
			if executed[i] {
				t.Fatalf("op %d executed twice", i)
			}
			executed[i] = true
			tr.Execute(int(i))
		}
		for i, ok := range executed {
			if !ok {
				t.Fatalf("op %d never executed", i)
			}
		}
		if !tr.Done() {
			t.Fatalf("traversal not done after executing every op")
		}
	})
}
