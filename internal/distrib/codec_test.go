package distrib

import (
	"testing"

	"repro/internal/circuit"
	"repro/internal/gates"
	"repro/internal/sabre"
	"repro/internal/topology"
)

// TestDecodersRejectMalformedWorkerBytes: the bytes that cross the
// wire reach decoders that recover no panic: a row's layout reaches
// the coordinator's pumper goroutine and journal replay, and a spec's
// circuits reach the worker's job preparation. Each malformed circuit
// and layout must be an error. A row's layout is the final layout of
// its refinement and the initial layout of its trials, so the initial
// and final cases both check the row layout decoder.
func TestDecodersRejectMalformedWorkerBytes(t *testing.T) {
	const numLogical = 4
	c := circuit.New("cx", 2)
	c.Add(gates.CX(), 0, 1)
	cx := circuitToWire(c).Ops[0]
	circuits := []struct {
		name   string
		mutate func(w *wireCircuit)
	}{
		{"negative gate width", func(w *wireCircuit) {
			op := cx
			op.GateQubits = -1
			w.Ops = []wireOp{op}
		}},
		{"32-qubit gate with no matrix", func(w *wireCircuit) {
			op := cx
			op.GateQubits, op.Mat = 32, nil
			w.Ops = []wireOp{op}
		}},
		{"64-qubit gate with no matrix", func(w *wireCircuit) {
			op := cx
			op.GateQubits, op.Mat = 64, nil
			w.Ops = []wireOp{op}
		}},
	}
	if _, err := circuitFromWire(circuitToWire(c)); err != nil {
		t.Fatalf("valid circuit rejected: %v", err)
	}
	for _, tc := range circuits {
		t.Run(tc.name, func(t *testing.T) {
			w := circuitToWire(c)
			tc.mutate(&w)
			if _, err := circuitFromWire(w); err == nil {
				t.Fatal("malformed circuit decoded")
			}
		})
	}

	pc, err := sabre.PrepareCircuit(e2eCircuit("codec", numLogical, 8, 5), topology.Grid(2, 3))
	if err != nil {
		t.Fatal(err)
	}
	layouts := []struct {
		name string
		l2p  []int
	}{
		{"initial layout off the device", []int{0, 99, 1, 2}},
		{"final layout off the device", []int{0, 1, 2, -1}},
		{"initial layout too short", []int{0, 99}},
		{"final layout too long", []int{0, 1, 2, 3, 4}},
		{"final layout doubles a qubit", []int{0, 1, 1, 2}},
	}
	if _, err := rowLayoutFromWire(layoutBlob(t, []int{5, 0, 3, 1}), 0, pc); err != nil {
		t.Fatalf("valid layout rejected: %v", err)
	}
	for _, tc := range layouts {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := rowLayoutFromWire(layoutBlob(t, tc.l2p), 0, pc); err == nil {
				t.Fatal("malformed layout decoded")
			}
		})
	}
}

// layoutBlob is l2p as the first trial of a row ships it.
func layoutBlob(t *testing.T, l2p []int) []byte {
	t.Helper()
	b, err := encodeSpec(l2p)
	if err != nil {
		t.Fatal(err)
	}
	return b
}
