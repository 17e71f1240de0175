package distrib

import (
	"net"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/circuit"
	"repro/internal/dispatch"
	"repro/internal/gates"
	"repro/internal/sabre"
	"repro/internal/topology"
	"repro/internal/transpile"
)

// validWireReport is the wire form of a real batch report: a random
// 4-qubit circuit transpiled onto a 2x3 grid.
func validWireReport(t testing.TB) wireReport {
	rep, err := transpile.Transpile(e2eCircuit("codec", 4, 8, 5), topology.Grid(2, 3), transpile.Options{})
	if err != nil {
		t.Fatal(err)
	}
	raw, err := reportToWire(rep)
	if err != nil {
		t.Fatal(err)
	}
	var w wireReport
	if err := decodeSpec(raw, &w); err != nil {
		t.Fatal(err)
	}
	return w
}

// TestDecodersRejectMalformedWorkerBytes: a worker's result blob and a
// journal's banked items reach the coordinator's report decoder
// through the pumper goroutine and journal replay, neither of which
// recovers a panic. Each malformed report must be an error.
func TestDecodersRejectMalformedWorkerBytes(t *testing.T) {
	const numLogical, numPhysical = 4, 6
	c := circuit.New("cx", 2)
	c.Add(gates.CX(), 0, 1)
	cx := circuitToWire(c).Ops[0]
	cases := []struct {
		name   string
		mutate func(w *wireReport)
	}{
		{"negative gate width", func(w *wireReport) {
			op := cx
			op.GateQubits = -1
			w.Routed.Ops = []wireOp{op}
		}},
		{"32-qubit gate with no matrix", func(w *wireReport) {
			op := cx
			op.GateQubits, op.Mat = 32, nil
			w.Routed.Ops = []wireOp{op}
		}},
		{"64-qubit gate with no matrix", func(w *wireReport) {
			op := cx
			op.GateQubits, op.Mat = 64, nil
			w.Reconsolidated.Ops = []wireOp{op}
		}},
		{"initial layout off the device", func(w *wireReport) { w.InitialLayout = []int{0, 99, 1, 2} }},
		{"final layout off the device", func(w *wireReport) { w.FinalLayout = []int{0, 1, 2, -1} }},
		{"initial layout too short", func(w *wireReport) { w.InitialLayout = []int{0, 99} }},
		{"final layout too long", func(w *wireReport) { w.FinalLayout = []int{0, 1, 2, 3, 4} }},
		{"final layout doubles a qubit", func(w *wireReport) { w.FinalLayout = []int{0, 1, 1, 2} }},
	}
	w := validWireReport(t)
	raw, err := encodeSpec(&w)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reportFromWire(raw, numLogical, numPhysical); err != nil {
		t.Fatalf("valid report rejected: %v", err)
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := validWireReport(t)
			tc.mutate(&w)
			raw, err := encodeSpec(&w)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := reportFromWire(raw, numLogical, numPhysical); err == nil {
				t.Fatal("malformed report decoded")
			}
		})
	}
}

// corruptBatchJob is a batch job whose worker rewrites the items it
// sends.
type corruptBatchJob struct {
	*batchJob
	corrupt func(it dispatch.WireItem) dispatch.WireItem
}

func (j corruptBatchJob) Run(i int) dispatch.WireItem { return j.corrupt(j.batchJob.Run(i)) }

// TestTranspileBatchRejectsMalformedReports drives worker bytes through
// the coordinator's pumper: a report whose layout leaves the device
// fails the batch with an error, and an item indexed outside the batch
// is discarded and its circuit re-leased.
func TestTranspileBatchRejectsMalformedReports(t *testing.T) {
	topo := topology.Grid(2, 3)
	circuits := []*circuit.Circuit{e2eCircuit("a", 4, 8, 1), e2eCircuit("b", 5, 8, 2)}
	opts := transpile.Options{Layout: sabre.LayoutOptions{LayoutTrials: 2, RoutingTrials: 2, FwdBwdPasses: 1}}
	want, err := transpile.TranspileBatch(circuits, topo, opts)
	if err != nil {
		t.Fatal(err)
	}
	run := func(corrupt func(it dispatch.WireItem) dispatch.WireItem) ([]*transpile.Report, error) {
		handlers := map[string]dispatch.Handler{KindBatch: func(raw, warm []byte) (dispatch.JobRunner, error) {
			r, err := batchHandler(raw, warm)
			if err != nil {
				return nil, err
			}
			return corruptBatchJob{batchJob: r.(*batchJob), corrupt: corrupt}, nil
		}}
		h := dispatch.NewHub()
		defer h.Close()
		server, client := net.Pipe()
		h.AddConn(server)
		go dispatch.ServeConn(client, handlers, nil)
		return NewCluster(h).TranspileBatch(circuits, topo, opts)
	}

	_, err = run(func(it dispatch.WireItem) dispatch.WireItem {
		if it.Index == 1 {
			var w wireReport
			if err := decodeSpec(it.Blob, &w); err != nil {
				t.Error(err)
			}
			w.FinalLayout[0] = 99
			it.Blob, _ = encodeSpec(&w)
		}
		return it
	})
	if err == nil || !strings.Contains(err.Error(), "physical qubit 99") {
		t.Fatalf("off-device layout: err = %v, want the layout named", err)
	}

	var once atomic.Bool
	got, err := run(func(it dispatch.WireItem) dispatch.WireItem {
		if it.Index == 0 && once.CompareAndSwap(false, true) {
			it.Index = len(circuits) + 7
		}
		return it
	})
	if err != nil {
		t.Fatalf("misindexed item: %v", err)
	}
	for i := range want {
		if got[i].DepthPulses != want[i].DepthPulses || got[i].SwapsInserted != want[i].SwapsInserted {
			t.Fatalf("circuit %d: report differs from the local batch", i)
		}
	}
}

// FuzzReportFromWire: any result blob a worker sends for a 4-qubit
// circuit on a 6-qubit device is either rejected or decoded into a
// report whose layouts place the circuit's qubits one to one.
func FuzzReportFromWire(f *testing.F) {
	const numLogical, numPhysical = 4, 6
	w := validWireReport(f)
	raw, err := encodeSpec(&w)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(raw)
	f.Add(raw[:len(raw)/2])
	w.InitialLayout = []int{0, 99, 1, 2}
	if raw, err = encodeSpec(&w); err != nil {
		f.Fatal(err)
	}
	f.Add(raw)
	f.Fuzz(func(t *testing.T, raw []byte) {
		rep, err := reportFromWire(raw, numLogical, numPhysical)
		if err != nil {
			return
		}
		for _, l := range []*topology.Layout{rep.InitialLayout, rep.FinalLayout} {
			if l == nil {
				continue
			}
			if len(l.L2P) != numLogical || len(l.P2L) != numPhysical {
				t.Fatalf("layout sized %d/%d, want %d/%d", len(l.L2P), len(l.P2L), numLogical, numPhysical)
			}
			for q, p := range l.L2P {
				if l.P2L[p] != q {
					t.Fatalf("layout is not a bijection: %v", l.L2P)
				}
			}
		}
	})
}
