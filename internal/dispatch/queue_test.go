package dispatch

import (
	"errors"
	"fmt"
	"strings"
	"testing"
)

// drainAll leases everything and completes it, simulating one worker.
func drainAll(q *Queue[int], value func(i int) int) {
	for {
		l, ok := q.Lease()
		if !ok {
			return
		}
		var items []Completed[int]
		for i := l.Lo; i < l.Hi; i++ {
			items = append(items, Completed[int]{Index: i, Value: value(i)})
		}
		q.Complete(l.ID, items)
	}
}

func TestQueueConsumesInIndexOrder(t *testing.T) {
	for _, lease := range []int{1, 3, 7, 100} {
		var seen []int
		q := NewQueue(10, lease, func(i, v int) bool {
			if v != i*i {
				t.Fatalf("lease=%d: consume(%d) got %d, want %d", lease, i, v, i*i)
			}
			seen = append(seen, i)
			return false
		})
		// Complete leases in reverse grant order: consumption must still
		// be 0..9.
		var leases []Lease
		for {
			l, ok := q.Lease()
			if !ok {
				break
			}
			leases = append(leases, l)
		}
		for k := len(leases) - 1; k >= 0; k-- {
			l := leases[k]
			var items []Completed[int]
			for i := l.Lo; i < l.Hi; i++ {
				items = append(items, Completed[int]{Index: i, Value: i * i})
			}
			q.Complete(l.ID, items)
		}
		if err := q.Wait(); err != nil {
			t.Fatal(err)
		}
		for i, v := range seen {
			if v != i {
				t.Fatalf("lease=%d: consume order %v", lease, seen)
			}
		}
		if len(seen) != 10 || q.Consumed() != 10 {
			t.Fatalf("lease=%d: consumed %d/%v", lease, q.Consumed(), seen)
		}
	}
}

func TestQueueEarlyStopDiscardsTail(t *testing.T) {
	var seen []int
	q := NewQueue(100, 1, func(i, v int) bool { return i == 4 })
	drainAll(q, func(i int) int { seen = append(seen, i); return i })
	if err := q.Wait(); err != nil {
		t.Fatal(err)
	}
	if q.Consumed() != 5 {
		t.Fatalf("consumed %d, want 5 (prefix [0,5))", q.Consumed())
	}
	if !q.Finished() {
		t.Fatal("queue not finished after stop")
	}
	// After the stop, Lease must grant nothing.
	if _, ok := q.Lease(); ok {
		t.Fatal("lease granted after stop")
	}
}

func TestQueueErrorAtLowestConsumedIndex(t *testing.T) {
	q := NewQueue(20, 1, func(i, v int) bool { return false })
	var leases []Lease
	for {
		l, ok := q.Lease()
		if !ok {
			break
		}
		leases = append(leases, l)
	}
	// Errors at 7 and 3 complete out of order (7 first): the queue must
	// stop with the error at 3 — the lowest consumed failing index —
	// and never consume past it.
	fail := func(i int) Completed[int] {
		return Completed[int]{Index: i, Err: fmt.Errorf("boom %d", i)}
	}
	okItem := func(i int) Completed[int] { return Completed[int]{Index: i, Value: i} }
	for _, l := range leases {
		switch l.Lo {
		case 7:
			q.Complete(l.ID, []Completed[int]{fail(7)})
		}
	}
	for _, l := range leases {
		switch l.Lo {
		case 3:
			q.Complete(l.ID, []Completed[int]{fail(3)})
		default:
			q.Complete(l.ID, []Completed[int]{okItem(l.Lo)})
		}
	}
	err := q.Wait()
	if err == nil || err.Error() != "boom 3" {
		t.Fatalf("err = %v, want boom 3", err)
	}
	if q.Consumed() != 4 {
		t.Fatalf("consumed %d, want 4 (indices 0..3)", q.Consumed())
	}
}

func TestQueueFailReleasesUnfinishedIndices(t *testing.T) {
	q := NewQueue(10, 4, func(i, v int) bool { return false })
	l1, ok := q.Lease() // [0,4)
	if !ok || l1.Lo != 0 || l1.Hi != 4 {
		t.Fatalf("lease 1 = %+v", l1)
	}
	// Report only index 1, then lose the worker.
	q.Complete(l1.ID, []Completed[int]{{Index: 1, Value: 1}})
	q.Fail(l1.ID)

	// Re-grant must come lowest-first and skip the completed index:
	// spans [0,1) and [2,4) before fresh [4,8).
	l2, _ := q.Lease()
	if l2.Lo != 0 || l2.Hi != 1 {
		t.Fatalf("re-lease = [%d,%d), want [0,1)", l2.Lo, l2.Hi)
	}
	l3, _ := q.Lease()
	if l3.Lo != 2 || l3.Hi != 4 {
		t.Fatalf("re-lease = [%d,%d), want [2,4)", l3.Lo, l3.Hi)
	}
	l4, _ := q.Lease()
	if l4.Lo != 4 {
		t.Fatalf("fresh lease starts at %d, want 4", l4.Lo)
	}

	// Late results from the failed lease are ignored (revoked ID).
	q.Complete(l1.ID, []Completed[int]{{Index: 0, Value: 999}})
	q.Complete(l2.ID, []Completed[int]{{Index: 0, Value: 0}})
	q.Complete(l3.ID, []Completed[int]{{Index: 2, Value: 2}, {Index: 3, Value: 3}})
	q.Complete(l4.ID, []Completed[int]{{Index: 4, Value: 4}, {Index: 5, Value: 5}, {Index: 6, Value: 6}, {Index: 7, Value: 7}})
	drainAll(q, func(i int) int { return i })
	if err := q.Wait(); err != nil {
		t.Fatal(err)
	}
	if q.Consumed() != 10 {
		t.Fatalf("consumed %d, want 10", q.Consumed())
	}
}

func TestQueueDuplicateCompletionsIgnored(t *testing.T) {
	calls := 0
	q := NewQueue(3, 3, func(i, v int) bool { calls++; return false })
	l, _ := q.Lease()
	items := []Completed[int]{{Index: 0}, {Index: 1}, {Index: 2}}
	q.Complete(l.ID, items)
	q.Complete(l.ID, items) // duplicate: lease already retired
	if err := q.Wait(); err != nil {
		t.Fatal(err)
	}
	if calls != 3 {
		t.Fatalf("consume called %d times, want 3", calls)
	}
}

func TestQueueOutOfRangeItemsIgnored(t *testing.T) {
	q := NewQueue[int](4, 2, nil)
	l, _ := q.Lease()                                        // [0,2)
	q.Complete(l.ID, []Completed[int]{{Index: 3, Value: 3}}) // outside the lease
	if q.Consumed() != 0 {
		t.Fatal("out-of-lease item was accepted")
	}
	q.Complete(l.ID, []Completed[int]{{Index: 0}, {Index: 1}})
	drainAll(q, func(i int) int { return i })
	if err := q.Wait(); err != nil {
		t.Fatal(err)
	}
}

func TestQueueLeaseWaitWakesOnFail(t *testing.T) {
	q := NewQueue[int](2, 2, nil)
	l, _ := q.Lease() // everything outstanding
	got := make(chan Lease, 1)
	go func() {
		l2, ok := q.LeaseWait()
		if !ok {
			t.Error("LeaseWait returned !ok with work re-leasable")
		}
		got <- l2
	}()
	q.Fail(l.ID)
	l2 := <-got
	if l2.Lo != 0 || l2.Hi != 2 {
		t.Fatalf("re-lease = [%d,%d), want [0,2)", l2.Lo, l2.Hi)
	}
	q.Complete(l2.ID, []Completed[int]{{Index: 0}, {Index: 1}})
	if err := q.Wait(); err != nil {
		t.Fatal(err)
	}
}

func TestQueueZeroWork(t *testing.T) {
	q := NewQueue[int](0, 1, nil)
	if !q.Finished() {
		t.Fatal("empty queue not finished")
	}
	if _, ok := q.Lease(); ok {
		t.Fatal("empty queue granted a lease")
	}
	if err := q.Wait(); err != nil {
		t.Fatal(err)
	}
}

func TestQueueWaitReturnsConsumedError(t *testing.T) {
	want := errors.New("nope")
	q := NewQueue[int](1, 1, nil)
	l, _ := q.Lease()
	q.Complete(l.ID, []Completed[int]{{Index: 0, Err: want}})
	if err := q.Wait(); !errors.Is(err, want) {
		t.Fatalf("err = %v", err)
	}
}

func TestQueueAbortStopsWithError(t *testing.T) {
	q := NewQueue[int](10, 2, nil)
	l, _ := q.Lease()
	bang := errors.New("deadline")
	q.Abort(bang)
	if !q.Finished() {
		t.Fatal("aborted queue not finished")
	}
	if err := q.Wait(); !errors.Is(err, bang) {
		t.Fatalf("Wait() = %v, want the abort error", err)
	}
	if _, ok := q.Lease(); ok {
		t.Fatal("aborted queue granted a lease")
	}
	// Late results for a pre-abort lease are ignored, not consumed.
	q.Complete(l.ID, []Completed[int]{{Index: 0, Value: 0}})
	if q.Consumed() != 0 {
		t.Fatalf("Consumed() = %d after abort, want 0", q.Consumed())
	}
	// Abort after finishing is a no-op and must not clobber the error.
	q.Abort(errors.New("second"))
	if err := q.Err(); !errors.Is(err, bang) {
		t.Fatalf("Err() = %v after double abort, want the first error", err)
	}
}

// TestQueueUnfinishedSummary: the summary a deadline error carries
// names the consumed count, each outstanding lease span, the
// never-granted tail and, once a lease fails, its span awaiting
// re-lease.
func TestQueueUnfinishedSummary(t *testing.T) {
	q := NewQueue[int](20, 4, nil)
	l1, _ := q.Lease() // [0,4)
	l2, _ := q.Lease() // [4,8)
	q.Complete(l1.ID, []Completed[int]{{Index: 0}, {Index: 1}, {Index: 2}, {Index: 3}})
	sum := q.UnfinishedSummary()
	for _, want := range []string{"4/20 consumed", "[4,8)", "never leased: [8,20)"} {
		if !strings.Contains(sum, want) {
			t.Fatalf("summary %q missing %q", sum, want)
		}
	}
	q.Fail(l2.ID)
	if !strings.Contains(q.UnfinishedSummary(), "awaiting re-lease: [4,8)") {
		t.Fatalf("summary %q missing the failed span", q.UnfinishedSummary())
	}
}

// TestQueueSkipPassesOverUnneededIndices: once consuming index 1 tells
// the consumer it no longer needs [2, 6), no grant starts at or runs
// into a skipped index, consumption passes over the skipped indices
// without their results, and a result or error that arrives for one
// anyway — here from a lease granted before the rule fired — is
// dropped.
func TestQueueSkipPassesOverUnneededIndices(t *testing.T) {
	var seen []int
	unneeded := false
	q := NewQueue(8, 2, func(i, v int) bool {
		seen = append(seen, i)
		unneeded = unneeded || i == 1
		return false
	})
	q.SetSkip(func(i int) bool { return unneeded && i >= 2 && i < 6 })
	early, _ := q.Lease() // [0, 2)
	late, _ := q.Lease()  // [2, 4), granted before the rule fires
	q.Complete(early.ID, []Completed[int]{{Index: 0}, {Index: 1}})
	l, ok := q.Lease()
	if !ok || l.Lo != 6 || l.Hi != 8 {
		t.Fatalf("lease after the rule fired = %+v (ok %v), want [6, 8)", l, ok)
	}
	q.Complete(late.ID, []Completed[int]{{Index: 2, Err: errors.New("unneeded")}, {Index: 3}})
	q.Complete(l.ID, []Completed[int]{{Index: 6}, {Index: 7}})
	if err := q.Wait(); err != nil {
		t.Fatalf("a skipped index's error was consumed: %v", err)
	}
	if fmt.Sprint(seen) != "[0 1 6 7]" {
		t.Fatalf("consumed %v, want [0 1 6 7]", seen)
	}
}

// Consumed returns how many indices the consumer has seen — the
// deterministic executed-work count (layout rows for a trial grid,
// whose TrialsExecuted its selector counts).
func (q *Queue[T]) Consumed() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.consumed
}
