package dispatch

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Queue is the coordinator-side state machine of the work-queue
// subsystem: it grants leases over the index range [0, max), accepts
// completed results from any transport, and feeds them to a single
// consume callback serially and in strict index order, stopping the
// moment consume returns true or an error is consumed.
//
// Determinism: consume(i, v) is called with i strictly increasing from
// 0 with no gaps but the indices a skip rule passes over (SetSkip),
// under the queue's lock, so the consumer needs no
// synchronisation of its own and observes exactly the sequence a
// serial loop over deterministic work items would produce. The prefix
// of consumed indices — and therefore the stop decision, the winner of
// an argmin, an executed-trial count — is independent of worker count,
// lease size, and completion order. Results arriving for indices past
// the stop point are discarded.
//
// Failure: an error reported for index i is consumed at position i
// like any result; the queue then stops with that error. When several
// indices error, the one at the lowest consumed index wins — the same
// error a serial loop would have returned. The consume callback must
// not call back into the queue (it runs under the lock).
type Queue[T any] struct {
	mu   sync.Mutex
	cond *sync.Cond

	max       int
	leaseSize int
	next      int // lowest never-granted index

	nextID  uint64
	leases  map[uint64]leaseSpan
	release []leaseSpan // failed spans awaiting re-grant, lowest first

	done     []bool // per-index: result received (consumed or pending)
	pending  map[int]Completed[T]
	consumed int
	stopped  bool
	firstErr error
	consume  func(i int, v T) bool
	skip     func(i int) bool // see SetSkip; nil skips nothing

	// Poison-item quarantine (see SetPoisonThreshold): suspicion counts
	// how many distinct worker crashes each index's lease has been
	// implicated in; an index reaching the threshold is quarantined —
	// withheld from re-granting and left for the hub's local executor.
	poisonK     int
	suspicion   []int
	quarantined map[int]bool
}

type leaseSpan struct{ lo, hi int }

// NewQueue builds a queue over max work indices. leaseSize bounds how
// many indices one Lease call grants (<= 0 means 1); larger leases
// amortise transport round-trips at the cost of more discarded work
// when the consumer stops early — they never change what is consumed.
// consume may be nil when the caller only needs completion tracking.
func NewQueue[T any](max, leaseSize int, consume func(i int, v T) bool) *Queue[T] {
	if max < 0 {
		max = 0
	}
	if leaseSize <= 0 {
		leaseSize = 1
	}
	if consume == nil {
		consume = func(int, T) bool { return false }
	}
	q := &Queue[T]{
		max:       max,
		leaseSize: leaseSize,
		leases:    make(map[uint64]leaseSpan),
		done:      make([]bool, max),
		pending:   make(map[int]Completed[T]),
		consume:   consume,
	}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// Max returns the total number of work indices.
func (q *Queue[T]) Max() int { return q.max }

// finishedLocked reports completion under the lock.
func (q *Queue[T]) finishedLocked() bool {
	return q.stopped || q.consumed == q.max
}

// Lease grants the next range of work: re-leased spans first (lowest
// index first — the consumer is blocked on them), then fresh indices.
func (q *Queue[T]) Lease() (Lease, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.leaseLocked()
}

func (q *Queue[T]) leaseLocked() (Lease, bool) {
	if q.finishedLocked() {
		return Lease{}, false
	}
	var span leaseSpan
	switch {
	case len(q.release) > 0:
		span = q.release[0]
		if span.hi-span.lo > q.leaseSize {
			q.release[0].lo = span.lo + q.leaseSize
			span.hi = span.lo + q.leaseSize
		} else {
			q.release = q.release[1:]
		}
	case q.next < q.max:
		// Skip indices already done — a queue reconstructed from a
		// journal replay has an arbitrary done-set below max, and only
		// the unfinished remainder may be granted — or no longer needed.
		for q.next < q.max && (q.done[q.next] || q.skipped(q.next)) {
			q.next++
		}
		if q.next >= q.max {
			return Lease{}, false
		}
		hi := q.next + q.leaseSize
		if hi > q.max {
			hi = q.max
		}
		for j := q.next + 1; j < hi; j++ {
			if q.done[j] || q.skipped(j) {
				hi = j
				break
			}
		}
		span = leaseSpan{q.next, hi}
		q.next = hi
	default:
		return Lease{}, false
	}
	q.nextID++
	q.leases[q.nextID] = span
	return Lease{ID: q.nextID, Lo: span.lo, Hi: span.hi}, true
}

// LeaseWait blocks until work is grantable or the queue is finished.
// Unlike Lease, it keeps a transport goroutine parked across the
// window where all remaining work is held by other workers — if one of
// them fails, the re-leased span wakes a waiter.
func (q *Queue[T]) LeaseWait() (Lease, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for {
		if l, ok := q.leaseLocked(); ok {
			return l, true
		}
		if q.finishedLocked() {
			return Lease{}, false
		}
		q.cond.Wait()
	}
}

// Abort stops the queue with err (kept only if no error was consumed
// first), discards buffered results, and wakes every waiter. Used for
// job-level deadlines where no further results can be useful. Aborting
// an already-finished queue is a no-op.
func (q *Queue[T]) Abort(err error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.finishedLocked() {
		return
	}
	q.stopped = true
	if q.firstErr == nil {
		q.firstErr = err
	}
	for k := range q.pending {
		delete(q.pending, k)
	}
	q.cond.Broadcast()
}

// OutstandingLeases snapshots the leases currently granted and not yet
// fully reported, sorted by Lo: the spans the fleet still owes, which
// UnfinishedSummary also renders for deadline errors.
func (q *Queue[T]) OutstandingLeases() []Lease {
	q.mu.Lock()
	defer q.mu.Unlock()
	out := make([]Lease, 0, len(q.leases))
	for id, span := range q.leases {
		out = append(out, Lease{ID: id, Lo: span.lo, Hi: span.hi})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Lo < out[j].Lo })
	return out
}

// UnfinishedSummary renders the queue's remaining work as a short
// human-readable string: consumed count, outstanding lease spans,
// failed spans awaiting re-grant, and the never-granted tail.
func (q *Queue[T]) UnfinishedSummary() string {
	q.mu.Lock()
	defer q.mu.Unlock()
	var b strings.Builder
	fmt.Fprintf(&b, "%d/%d consumed", q.consumed, q.max)
	if len(q.leases) > 0 {
		spans := make([]leaseSpan, 0, len(q.leases))
		for _, s := range q.leases {
			spans = append(spans, s)
		}
		sort.Slice(spans, func(i, j int) bool { return spans[i].lo < spans[j].lo })
		b.WriteString("; outstanding leases:")
		for _, s := range spans {
			fmt.Fprintf(&b, " [%d,%d)", s.lo, s.hi)
		}
	}
	if len(q.release) > 0 {
		b.WriteString("; awaiting re-lease:")
		for _, s := range q.release {
			fmt.Fprintf(&b, " [%d,%d)", s.lo, s.hi)
		}
	}
	if q.next < q.max {
		fmt.Fprintf(&b, "; never leased: [%d,%d)", q.next, q.max)
	}
	if len(q.quarantined) > 0 {
		idxs := make([]int, 0, len(q.quarantined))
		for i := range q.quarantined {
			if !q.done[i] {
				idxs = append(idxs, i)
			}
		}
		if len(idxs) > 0 {
			sort.Ints(idxs)
			fmt.Fprintf(&b, "; quarantined awaiting local execution: %v", idxs)
		}
	}
	return b.String()
}

// Complete reports finished work items, any subset of a lease's
// indices, from any goroutine. Items from unknown (failed or
// already-completed) leases and items for indices already reported are
// ignored, which is what makes worker recovery idempotent. Results are
// buffered and drained to the consumer in index order; once the
// consumer stops (or an error is consumed) the queue is finished and
// all waiters wake.
func (q *Queue[T]) Complete(id uint64, items []Completed[T]) {
	q.mu.Lock()
	defer q.mu.Unlock()
	span, ok := q.leases[id]
	if !ok {
		return
	}
	for _, it := range items {
		if it.Index < span.lo || it.Index >= span.hi || q.done[it.Index] {
			continue
		}
		q.done[it.Index] = true
		if !q.stopped && it.Index >= q.consumed {
			q.pending[it.Index] = it
		}
	}
	if q.leaseDoneLocked(span) {
		delete(q.leases, id)
	}
	q.drainLocked()
}

func (q *Queue[T]) leaseDoneLocked(span leaseSpan) bool {
	for i := span.lo; i < span.hi; i++ {
		if !q.done[i] {
			return false
		}
	}
	return true
}

// SetSkip arms a skip rule: skip(i) reports that the consumer no longer
// needs index i, because consuming it would change nothing, and once
// it does it must keep doing so. A skipped index is not granted afresh
// (a grant stops short of one), and consumption passes over it without
// waiting for, or consuming, its result. So a skip rule changes which
// work runs, never what is consumed. skip runs under the queue's lock,
// like consume, so it may read what consume writes. Must be set before
// leasing starts.
func (q *Queue[T]) SetSkip(skip func(i int) bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.skip = skip
}

func (q *Queue[T]) skipped(i int) bool {
	return q.skip != nil && q.skip(i)
}

// drainLocked feeds buffered results to the consumer in index order
// and broadcasts when the queue's state could unblock a waiter.
func (q *Queue[T]) drainLocked() {
	for !q.stopped {
		if q.consumed < q.max && q.skipped(q.consumed) {
			delete(q.pending, q.consumed)
			q.consumed++
			continue
		}
		it, ok := q.pending[q.consumed]
		if !ok {
			break
		}
		delete(q.pending, q.consumed)
		q.consumed++
		if it.Err != nil {
			q.firstErr = it.Err
			q.stopped = true
		} else if q.consume(it.Index, it.Value) {
			q.stopped = true
		}
	}
	if q.stopped {
		// Nothing pending will ever be consumed.
		for k := range q.pending {
			delete(q.pending, k)
		}
	}
	if q.finishedLocked() {
		q.cond.Broadcast()
	}
}

// Fail returns a lease's unfinished indices to the queue. Indices the
// lease already reported stay reported. Unknown lease IDs are ignored,
// so transports may Fail unconditionally on any worker error.
func (q *Queue[T]) Fail(id uint64) {
	q.failImpl(id, false)
}

// SetPoisonThreshold arms poison-item quarantine: an index whose lease
// is implicated in k distinct worker crashes (k calls to FailSuspect)
// is quarantined instead of re-leased forever — withheld from
// re-granting and reported back so the transport can execute it
// out-of-band (the hub runs it locally) and Deliver the result.
// k <= 0 (the default) disables quarantine and makes FailSuspect
// behave exactly like Fail. Must be set before leasing starts.
func (q *Queue[T]) SetPoisonThreshold(k int) {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.poisonK = k
	if k > 0 && q.suspicion == nil {
		q.suspicion = make([]int, q.max)
		q.quarantined = make(map[int]bool)
	}
}

// FailSuspect is Fail for a lease lost to a worker crash: every
// unfinished index of the lease accrues one count of suspicion, and
// indices crossing the poison threshold are quarantined rather than
// re-granted. It returns the newly quarantined indices (ascending);
// the caller owns completing them via Deliver.
func (q *Queue[T]) FailSuspect(id uint64) []int {
	return q.failImpl(id, true)
}

func (q *Queue[T]) failImpl(id uint64, suspect bool) []int {
	q.mu.Lock()
	defer q.mu.Unlock()
	span, ok := q.leases[id]
	if !ok {
		return nil
	}
	delete(q.leases, id)
	if q.finishedLocked() {
		return nil
	}
	var poisoned []int
	// Collect the maximal unfinished sub-spans, keeping release sorted
	// by lo so re-grants happen lowest-first. Under suspicion, indices
	// crossing the poison threshold are carved out of the re-released
	// spans and returned for out-of-band execution.
	for i := span.lo; i < span.hi; {
		if q.done[i] {
			i++
			continue
		}
		j := i
		for j < span.hi && !q.done[j] {
			j++
		}
		if suspect && q.poisonK > 0 {
			lo := i
			for k := i; k < j; k++ {
				q.suspicion[k]++
				if q.suspicion[k] >= q.poisonK && !q.quarantined[k] {
					q.quarantined[k] = true
					poisoned = append(poisoned, k)
					if lo < k {
						q.insertReleaseLocked(leaseSpan{lo, k})
					}
					lo = k + 1
				}
			}
			if lo < j {
				q.insertReleaseLocked(leaseSpan{lo, j})
			}
		} else {
			q.insertReleaseLocked(leaseSpan{i, j})
		}
		i = j
	}
	q.cond.Broadcast()
	return poisoned
}

// Deliver reports results produced outside any lease: a journal replay
// reconstructing a previous run's banked batches, a quarantined item
// executed locally on the hub, or a degraded-mode local sweep. Items
// for indices already reported (or out of range) are ignored, exactly
// like duplicate lease completions.
func (q *Queue[T]) Deliver(items []Completed[T]) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for _, it := range items {
		if it.Index < 0 || it.Index >= q.max || q.done[it.Index] {
			continue
		}
		q.done[it.Index] = true
		if !q.stopped && it.Index >= q.consumed {
			q.pending[it.Index] = it
		}
	}
	q.drainLocked()
}

func (q *Queue[T]) insertReleaseLocked(s leaseSpan) {
	at := len(q.release)
	for k, r := range q.release {
		if s.lo < r.lo {
			at = k
			break
		}
	}
	q.release = append(q.release, leaseSpan{})
	copy(q.release[at+1:], q.release[at:])
	q.release[at] = s
}

// Finished reports whether no further results are needed: every index
// was consumed, the consumer stopped early, or an error was consumed.
func (q *Queue[T]) Finished() bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.finishedLocked()
}

// Consumed returns how many indices the consumer has seen — the
// deterministic executed-work count (layout rows for a trial grid,
// whose TrialsExecuted its selector counts).
func (q *Queue[T]) Consumed() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.consumed
}

// Err returns the consumed error that stopped the queue, if any.
func (q *Queue[T]) Err() error {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.firstErr
}

// Wait blocks until the queue is finished and returns Err. It does not
// wait for transports to retire in-flight work; transports own that
// (RunLocal and Hub.RunJob only return once their workers have).
func (q *Queue[T]) Wait() error {
	q.mu.Lock()
	defer q.mu.Unlock()
	for !q.finishedLocked() {
		q.cond.Wait()
	}
	return q.firstErr
}
