package circuit

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/gates"
)

// randomDAGCircuit builds a circuit with a mix of 1Q and 2Q gates
// (including ops whose two qubits share the same predecessor, the
// duplicate-edge case the DAG semantics must preserve).
func randomDAGCircuit(name string, qubits, ops int, rng *rand.Rand) *Circuit {
	c := New(name, qubits)
	for i := 0; i < ops; i++ {
		a := rng.Intn(qubits)
		if rng.Intn(3) == 0 {
			c.Add(gates.H(), a)
			continue
		}
		b := rng.Intn(qubits)
		if b == a {
			b = (a + 1) % qubits
		}
		c.Add(gates.CX(), a, b)
		if rng.Intn(4) == 0 {
			// Immediately repeat the pair: the second op shares both
			// qubits with the first, producing a duplicate edge.
			c.Add(gates.CPhase(0.3), a, b)
		}
	}
	return c
}

// TestFlatDAGMatchesDAG pins the CSR form to the pointer-based
// reference: identical successor lists (order and multiplicity),
// in-degrees, roots and qubit caches.
func TestFlatDAGMatchesDAG(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		c := randomDAGCircuit(fmt.Sprintf("flat-%d", trial), 2+rng.Intn(8), 1+rng.Intn(60), rng)
		ref := BuildDAG(c)
		fd := BuildFlatDAG(c)
		if fd.NumOps != len(c.Ops) {
			t.Fatalf("trial %d: NumOps = %d, want %d", trial, fd.NumOps, len(c.Ops))
		}
		for i := range c.Ops {
			if got, want := fd.SuccsOf(i), ref.Succs[i]; !sameEdges(got, want) {
				t.Fatalf("trial %d op %d: succs %v, want %v", trial, i, got, want)
			}
			if int(fd.InDeg[i]) != len(ref.Preds[i]) {
				t.Fatalf("trial %d op %d: indeg %d, want %d", trial, i, fd.InDeg[i], len(ref.Preds[i]))
			}
			if int(fd.Q0[i]) != c.Ops[i].Qubits[0] {
				t.Fatalf("trial %d op %d: Q0 mismatch", trial, i)
			}
			want1 := -1
			if len(c.Ops[i].Qubits) > 1 {
				want1 = c.Ops[i].Qubits[1]
			}
			if int(fd.Q1[i]) != want1 {
				t.Fatalf("trial %d op %d: Q1 = %d, want %d", trial, i, fd.Q1[i], want1)
			}
		}
		front := ref.FrontLayer()
		if len(front) != len(fd.Roots) {
			t.Fatalf("trial %d: roots %v, want %v", trial, fd.Roots, front)
		}
		for i, r := range fd.Roots {
			if int(r) != front[i] {
				t.Fatalf("trial %d: roots %v, want %v", trial, fd.Roots, front)
			}
		}
	}
}

func sameEdges(got []int32, want []int) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if int(got[i]) != want[i] {
			return false
		}
	}
	return true
}

// TestFlatTraversalMatchesTraversal drives both traversals with the
// same randomized execution schedule and checks the ready sets and
// descendant (lookahead) sets agree element for element at every step
// — the ordering contract the routing engine's bit-identity rests on.
func TestFlatTraversalMatchesTraversal(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 20; trial++ {
		c := randomDAGCircuit(fmt.Sprintf("trav-%d", trial), 2+rng.Intn(8), 1+rng.Intn(60), rng)
		ref := BuildDAG(c).NewTraversal()
		fd := BuildFlatDAG(c)
		ft := fd.NewFlatTraversal()
		step := 0
		for !ref.Done() {
			if ft.Done() {
				t.Fatalf("trial %d step %d: flat finished early", trial, step)
			}
			checkReadyEqual(t, trial, step, ref, ft)
			limit := 1 + rng.Intn(12)
			refDesc := ref.Descendants(limit)
			flatDesc := ft.Descendants(limit)
			if !sameEdges(flatDesc, refDesc) {
				t.Fatalf("trial %d step %d: descendants(%d) = %v, want %v",
					trial, step, limit, flatDesc, refDesc)
			}
			// Execute a randomly chosen ready op — the same in both.
			pick := ref.Ready[rng.Intn(len(ref.Ready))]
			ref.Execute(pick)
			ft.Execute(pick)
			step++
		}
		if !ft.Done() {
			t.Fatalf("trial %d: flat traversal not done after %d steps", trial, step)
		}
	}
}

func checkReadyEqual(t *testing.T, trial, step int, ref *Traversal, ft *FlatTraversal) {
	t.Helper()
	got := ft.AppendReady(nil)
	if !sameEdges(got, ref.Ready) {
		t.Fatalf("trial %d step %d: ready %v, want %v", trial, step, got, ref.Ready)
	}
	if ft.ReadyLen() != len(ref.Ready) {
		t.Fatalf("trial %d step %d: ReadyLen %d, want %d", trial, step, ft.ReadyLen(), len(ref.Ready))
	}
	// The cursor iteration and the snapshot must agree, and insertion
	// ordinals must be strictly increasing along the list.
	k := 0
	lastSeq := int32(-1)
	for i := ft.ReadyFirst(); i >= 0; i = ft.ReadyNext(i) {
		if got[k] != i {
			t.Fatalf("trial %d step %d: cursor[%d] = %d, snapshot %d", trial, step, k, i, got[k])
		}
		if s := ft.ReadySeq(i); s <= lastSeq {
			t.Fatalf("trial %d step %d: seq not increasing at op %d (%d <= %d)", trial, step, i, s, lastSeq)
		} else {
			lastSeq = s
		}
		k++
	}
}

// TestFlatTraversalResetReuse replays one traversal buffer across
// differently sized DAGs and checks each replay matches a fresh
// traversal — the arena reuse contract.
func TestFlatTraversalResetReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	var reused FlatTraversal
	for trial := 0; trial < 12; trial++ {
		c := randomDAGCircuit(fmt.Sprintf("reset-%d", trial), 2+rng.Intn(6), 1+rng.Intn(50), rng)
		fd := BuildFlatDAG(c)
		reused.Reset(fd)
		fresh := fd.NewFlatTraversal()
		for !fresh.Done() {
			ru, fr := reused.AppendReady(nil), fresh.AppendReady(nil)
			if !sameEdges(ru, ids(fr)) {
				t.Fatalf("trial %d: reused ready %v, fresh %v", trial, ru, fr)
			}
			d1, d2 := reused.Descendants(8), fresh.Descendants(8)
			if !sameEdges(d1, ids(d2)) {
				t.Fatalf("trial %d: reused descendants %v, fresh %v", trial, d1, d2)
			}
			pick := int(fr[rng.Intn(len(fr))])
			fresh.Execute(pick)
			reused.Execute(pick)
		}
		if !reused.Done() {
			t.Fatalf("trial %d: reused traversal not done", trial)
		}
	}
}

func ids(v []int32) []int {
	out := make([]int, len(v))
	for i, x := range v {
		out[i] = int(x)
	}
	return out
}

// TestFlatDAGSharedReaders hammers one FlatDAG from many goroutines,
// each running its own traversal to completion repeatedly. Run under
// -race (the CI race lane does) this proves the immutability contract:
// all traversal mutation lives in FlatTraversal, none in the shared
// DAG.
func TestFlatDAGSharedReaders(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	c := randomDAGCircuit("shared", 8, 120, rng)
	fd := BuildFlatDAG(c)
	ref := traversalChecksum(fd.NewFlatTraversal())
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			tr := &FlatTraversal{}
			for rep := 0; rep < 20; rep++ {
				tr.Reset(fd)
				if got := traversalChecksum(tr); got != ref {
					errs <- fmt.Sprintf("worker %d rep %d: checksum %d, want %d", w, rep, got, ref)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// traversalChecksum runs a traversal to completion (always executing
// the first ready op, so every run takes the same path), accumulating
// a checksum over the ready and descendant sets.
func traversalChecksum(tr *FlatTraversal) int64 {
	var sum int64
	for !tr.Done() {
		for r := tr.ReadyFirst(); r >= 0; r = tr.ReadyNext(r) {
			sum = sum*31 + int64(r)
		}
		for _, d := range tr.Descendants(10) {
			sum = sum*37 + int64(d)
		}
		tr.Execute(int(tr.ReadyFirst()))
	}
	return sum
}

// ReadyLen returns the current size of the ready set, counted along
// the ready list.
func (t *FlatTraversal) ReadyLen() int {
	n := 0
	for i := t.ReadyFirst(); i >= 0; i = t.ReadyNext(i) {
		n++
	}
	return n
}
