package distrib

import (
	"errors"
	"fmt"
	"net"
	"strings"
	"testing"

	"repro/internal/circuit"
	"repro/internal/dispatch"
	"repro/internal/sabre"
	"repro/internal/topology"
	"repro/internal/transpile"
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
			_, err := NewCluster(h).findBestRouting(pc, opts, spec, metric, factory)
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
	spec, err := optionsToWire(mirageDepth)
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

// FuzzTrialHandler: any spec bytes a worker receives either fail to
// prepare or give a runner whose Run answers every index — inside a
// grid, at a circuit boundary or outside the job — with an item for
// that index, never a panic. The seeds are a valid two-circuit spec,
// its truncation and a spec without a coverage set.
func FuzzTrialHandler(f *testing.F) {
	w, err := optionsToWire(mirageDepth)
	if err != nil {
		f.Fatal(err)
	}
	raw := trialSpecOf(f, w, e2eCircuit("fuzz-a", 4, 6, 1), e2eCircuit("fuzz-b", 3, 4, 2))
	f.Add(raw)
	f.Add(raw[:len(raw)/2])
	w.Coverage = nil
	f.Add(trialSpecOf(f, w, e2eCircuit("fuzz-c", 3, 4, 3)))
	f.Fuzz(func(t *testing.T, raw []byte) {
		r, err := trialHandler(raw, nil)
		if err != nil {
			return
		}
		j := r.(*trialJob)
		n := j.opts.RoutingTrials
		per := j.opts.LayoutTrials * n
		// Bound the routing a decoded spec may ask of one input.
		if per > 16 || j.opts.FwdBwdPasses > 2 || len(j.grids) > 4 {
			return
		}
		end := len(j.grids) * per
		indices := []int{-1, end, end + 1<<20}
		for k := 0; k < len(j.grids); k++ {
			indices = append(indices, k*per, k*per+per-1, k*per+n)
		}
		for _, i := range indices {
			it := j.Run(i)
			if it.Index != i {
				t.Fatalf("Run(%d) answered for index %d", i, it.Index)
			}
			if (i < 0 || i >= end) && it.Err == "" {
				t.Fatalf("Run(%d) outside the job's %d items succeeded", i, end)
			}
		}
	})
}

// failJob is a KindTrials worker whose items at the keys of fail come
// back as failed trials with the given message.
type failJob struct {
	*trialJob
	fail map[int]string
}

func (j failJob) Run(i int) dispatch.WireItem {
	if msg, ok := j.fail[i]; ok {
		return failed(i, errors.New(msg))
	}
	return j.trialJob.Run(i)
}

// TestDistributedBatchErrorOrder: as in a local batch, the first
// failure in input order wins, whichever step it fails in. A failed
// trial ends its own grid, not the job, so the rows' interleaving does
// not decide: circuit 1's first row fails before circuit 0's second in
// queue order, and circuit 3 is too large to prepare.
func TestDistributedBatchErrorOrder(t *testing.T) {
	topo := topology.Grid(3, 3)
	circuits := []*circuit.Circuit{
		e2eCircuit("a", 6, 14, 1), e2eCircuit("b", 5, 12, 2), e2eCircuit("c", 6, 10, 3), e2eCircuit("oversized", 10, 8, 4),
	}
	opts := transpile.Options{SkipTrivialLayout: true,
		Layout: sabre.LayoutOptions{LayoutTrials: 2, RoutingTrials: 2, FwdBwdPasses: 1, Seed: 4}}
	// Three grids of 2x2 trials: item (lt*3 + k)*2 + rt.
	fail := map[int]string{(1*3+0)*2 + 1: "circuit 0 failed", (0*3 + 1) * 2: "circuit 1 failed"}
	handlers := map[string]dispatch.Handler{KindTrials: func(raw, warm []byte) (dispatch.JobRunner, error) {
		r, err := trialHandler(raw, warm)
		if err != nil {
			return nil, err
		}
		return failJob{trialJob: r.(*trialJob), fail: fail}, nil
	}}
	h := dispatch.NewHub()
	defer h.Close()
	for w := 0; w < 2; w++ {
		server, client := net.Pipe()
		h.AddConn(server)
		go dispatch.ServeConn(client, handlers, nil)
	}
	_, err := NewCluster(h).TranspileBatch(circuits, topo, opts)
	if err == nil || !strings.Contains(err.Error(), "circuit 0 failed") {
		t.Fatalf("err = %v, want circuit 0's failure", err)
	}
}
