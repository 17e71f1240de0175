package dispatch

import (
	"fmt"
	"sync"
)

// localExec is the coordinator's own executor for a job: the same
// Handler table the workers run, prepared lazily on first use (most
// jobs never need it) and serialised by a mutex because JobRunner.Run
// is a single-goroutine contract (runners reuse mutable arenas). It
// backs poison-item quarantine and degraded-mode fallback; both
// produce results identical to a worker's, because items are
// deterministic functions of their index.
type localExec struct {
	handler Handler
	kind    string
	spec    []byte

	mu       sync.Mutex
	prepared bool
	runner   JobRunner
	prepErr  error
}

// localExecFor builds the local executor seam for one job; available()
// is false when the hub has no LocalHandlers entry for the kind.
func (h *Hub) localExecFor(kind string, spec []byte) *localExec {
	lex := &localExec{kind: kind, spec: spec}
	if h.LocalHandlers != nil {
		lex.handler = h.LocalHandlers[kind]
	}
	return lex
}

func (lex *localExec) available() bool {
	return lex.handler != nil
}

// runItem executes one work index locally, preparing the runner on
// first call. Preparation or panic failures are reported as the item's
// error, exactly as a worker would report them.
func (lex *localExec) runItem(i int) WireItem {
	lex.mu.Lock()
	defer lex.mu.Unlock()
	if !lex.prepared {
		lex.prepared = true
		lex.runner, lex.prepErr = prepare(map[string]Handler{lex.kind: lex.handler}, wireJob{Kind: lex.kind, Spec: lex.spec})
	}
	if lex.prepErr != nil {
		return WireItem{Index: i, Err: fmt.Sprintf("local execution on the coordinator failed to prepare: %v", lex.prepErr)}
	}
	return runSafe(lex.runner, i)
}

// poisonThreshold resolves the hub's quarantine threshold.
func (h *Hub) poisonThreshold() int {
	if h.PoisonThreshold == 0 {
		return DefaultPoisonThreshold
	}
	if h.PoisonThreshold < 0 {
		return 0
	}
	return h.PoisonThreshold
}

// runQuarantined executes poison items on the coordinator and delivers
// their results out-of-band. A local failure does not silently vanish:
// the item's error — consumed at its index position like any other —
// carries the quarantine history.
func (jr *jobRun[T]) runQuarantined(idxs []int) {
	wires := make([]WireItem, 0, len(idxs))
	items := make([]Completed[T], 0, len(idxs))
	for _, i := range idxs {
		wi := jr.lex.runItem(i)
		jr.h.stats.localItems.Add(1)
		if wi.Err != "" {
			wi.Err = fmt.Sprintf("item %d was quarantined after its lease crashed %d workers, and local execution also failed: %s", i, jr.h.poisonThreshold(), wi.Err)
		}
		wires = append(wires, wi)
		items = append(items, completedFromWire(wi, jr.fromWire))
	}
	if err := jr.bank(wires); err != nil {
		return
	}
	jr.q.Deliver(items)
}

// runLocalRemainder is degraded mode's work loop: the coordinator
// leases from its own queue and executes until no work is grantable.
// Results are banked and delivered through the same journal/queue path
// a worker's results take, so a rejoining worker can interleave and
// the output stays bit-identical.
func (jr *jobRun[T]) runLocalRemainder() {
	for {
		l, ok := jr.q.Lease()
		if !ok {
			return
		}
		wires := make([]WireItem, 0, l.Hi-l.Lo)
		items := make([]Completed[T], 0, l.Hi-l.Lo)
		for i := l.Lo; i < l.Hi; i++ {
			wi := jr.lex.runItem(i)
			jr.h.stats.localItems.Add(1)
			wires = append(wires, wi)
			items = append(items, completedFromWire(wi, jr.fromWire))
		}
		if err := jr.bank(wires); err != nil {
			return
		}
		jr.q.Complete(l.ID, items)
		jr.q.Fail(l.ID)
	}
}
