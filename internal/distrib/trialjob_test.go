package distrib

import (
	"fmt"
	"net"
	"strings"
	"testing"

	"repro/internal/circuit"
	"repro/internal/dispatch"
	"repro/internal/sabre"
	"repro/internal/topology"
)

// badRowJob is a KindTrials worker whose first trial of row bad ships
// a corrupted layout blob; every other item is honest.
type badRowJob struct {
	*trialJob
	bad     int
	corrupt func(l2p []int) []byte
}

func (j badRowJob) Run(t int) dispatch.WireItem {
	it := j.trialJob.Run(t)
	if t == j.bad*j.opts.RoutingTrials && it.Err == "" {
		it.Blob = j.corrupt(append([]int(nil), j.layout.L2P...))
	}
	return it
}

// TestCoordinatorRejectsBadRows: the coordinator checks the layout of
// every row a worker refined before the grid uses it. Each corruption
// fails the call with an error naming the row, and none panics.
func TestCoordinatorRejectsBadRows(t *testing.T) {
	topo := topology.Grid(3, 3)
	blocks := circuit.ConsolidateBlocks(circuit.UnrollTo2Q(e2eCircuit("rows", 6, 14, 5)))
	pc, err := sabre.PrepareCircuit(blocks, topo)
	if err != nil {
		t.Fatal(err)
	}
	spec, metric, factory := testPolicy(t, mirageDepth, blocks)
	opts := sabre.LayoutOptions{LayoutTrials: 3, RoutingTrials: 2, FwdBwdPasses: 1, Seed: 3}
	const bad = 1
	wire := func(l2p []int) []byte {
		b, err := encodeSpec(l2p)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	cases := []struct {
		name    string
		corrupt func(l2p []int) []byte
		want    string
	}{
		{"missing layout", func([]int) []byte { return nil }, "ships no layout"},
		{"short layout", func(l2p []int) []byte { return wire(l2p[:len(l2p)-1]) }, "layout places 5 qubits"},
		{"duplicate qubit", func(l2p []int) []byte {
			l2p[1] = l2p[0]
			return wire(l2p)
		}, "two qubits onto physical qubit"},
		{"out-of-range qubit", func(l2p []int) []byte {
			l2p[2] = topo.NumQubits
			return wire(l2p)
		}, fmt.Sprintf("physical qubit %d of %d", topo.NumQubits, topo.NumQubits)},
		{"undecodable blob", func([]int) []byte { return []byte{0xff} }, "undecodable"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			handlers := map[string]dispatch.Handler{KindTrials: func(raw, warm []byte) (dispatch.JobRunner, error) {
				r, err := trialHandler(raw, warm)
				if err != nil {
					return nil, err
				}
				return badRowJob{trialJob: r.(*trialJob), bad: bad, corrupt: tc.corrupt}, nil
			}}
			h := dispatch.NewHub()
			defer h.Close()
			server, client := net.Pipe()
			h.AddConn(server)
			go dispatch.ServeConn(client, handlers, nil)
			_, err := NewCluster(h).FindBestRouting(pc, opts, spec, metric, factory)
			if err == nil {
				t.Fatal("a corrupt row was accepted")
			}
			if row := fmt.Sprintf("row %d", bad); !strings.Contains(err.Error(), row) || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not name %s and %q", err, row, tc.want)
			}
		})
	}
}

// TestTrialJobShipsRowLayouts: a worker answers a trial outside the
// 2x2 grid with an item error, and ships a row's layout with the row's
// first trial only.
func TestTrialJobShipsRowLayouts(t *testing.T) {
	spec, err := SpecFromOptions(mirageDepth)
	if err != nil {
		t.Fatal(err)
	}
	job, err := trialHandler(trialSpecFor(t, spec), nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range []int{-1, 4, 100} {
		if it := job.Run(tr); it.Err == "" || it.Blob != nil || it.Index != tr {
			t.Fatalf("trial %d: item %+v, want an item error", tr, it)
		}
	}
	for _, tr := range []int{3, 2, 1, 0} {
		it := job.Run(tr)
		if it.Err != "" {
			t.Fatalf("trial %d: %s", tr, it.Err)
		}
		if first := tr%2 == 0; (it.Blob != nil) != first {
			t.Fatalf("trial %d: layout blob %v, want one only on a row's first trial", tr, it.Blob)
		}
	}
}
