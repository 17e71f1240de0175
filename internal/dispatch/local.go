package dispatch

import (
	"fmt"
	"runtime"
	"sync"
)

// Size normalises a parallelism knob: values <= 0 mean "one worker per
// available CPU" (GOMAXPROCS), anything else is taken literally.
func Size(parallelism int) int {
	if parallelism <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return parallelism
}

// RunLocal drives q with in-process workers: the transport that
// schedules the layout rows of sabre.RunGrids. Semantics:
//
//   - scratch(w) runs once inside worker goroutine w and its value is
//     handed to every run call that worker executes (the trial-arena
//     reuse seam); scratch values never cross goroutines.
//   - with parallelism <= 1 the loop degenerates to the serial path:
//     run(0), consume(0), run(1), consume(1), ... (still through the
//     queue, so there is exactly one scheduler code path).
//   - the queue consumes results serially in index order; run errors
//     stop it at the lowest consumed failing index.
//   - RunLocal returns only after every started run call finished;
//     in-flight results past an early stop are discarded by the queue.
//   - a panic inside run stops the queue and is re-raised on the
//     caller's goroutine once all workers have parked, so a crashing
//     trial fails the call instead of killing the process from a
//     worker goroutine.
//
// Unlike the TCP transport there is no lease failure here: a local
// worker either completes its lease or the whole call unwinds.
func RunLocal[S, T any](q *Queue[T], parallelism int, scratch func(w int) S, run func(i int, s S) (T, error)) error {
	workers := Size(parallelism)
	if workers > q.Max() {
		workers = q.Max()
	}
	if workers < 1 {
		workers = 1
	}

	runSafe := func(i int, s S) (item Completed[T], pan any) {
		defer func() {
			if r := recover(); r != nil {
				pan = r
			}
		}()
		v, err := run(i, s)
		return Completed[T]{Index: i, Value: v, Err: err}, nil
	}

	var (
		panMu    sync.Mutex
		panicked any
	)
	worker := func(w int) {
		s := scratch(w)
		// One reusable result buffer per worker: Complete copies what it
		// keeps, so the buffer never escapes and steady-state leases add
		// no allocations to the trial hot path.
		buf := make([]Completed[T], 0, q.leaseSize)
		for {
			l, ok := q.Lease()
			if !ok {
				return
			}
			items := buf[:0]
			for i := l.Lo; i < l.Hi; i++ {
				it, pan := runSafe(i, s)
				if pan != nil {
					panMu.Lock()
					if panicked == nil {
						panicked = pan
					}
					panMu.Unlock()
					// Report the panic as an error too, so a queue
					// consumer stops deterministically even though the
					// panic value is what ultimately propagates.
					it = Completed[T]{Index: i, Err: fmt.Errorf("dispatch: worker panic: %v", pan)}
					items = append(items, it)
					q.Complete(l.ID, items)
					return
				}
				items = append(items, it)
			}
			q.Complete(l.ID, items)
		}
	}

	if workers == 1 {
		worker(0)
	} else {
		var wg sync.WaitGroup
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func(w int) {
				defer wg.Done()
				worker(w)
			}(w)
		}
		wg.Wait()
	}
	if panicked != nil {
		panic(panicked)
	}
	// Workers exiting early (a lease held by a panicking worker was
	// abandoned) cannot leave the queue unfinished: the panic path
	// completes its lease with an error. Wait is therefore immediate.
	return q.Wait()
}
