// Package dispatch is the transport-agnostic trial-dispatch subsystem:
// a deterministic work queue over integer-indexed, independently
// executable work items (the layout rows or the trials of a
// routing-trial grid, batch circuits) plus the two transports that
// drive it — an in-process adapter that schedules the layout rows of
// sabre.FindBestRouting and the circuits of transpile.TranspileBatch,
// and a gob-over-TCP coordinator/worker protocol for fanning the
// trials and circuits out across machines. It is the only scheduler: Size normalises every
// parallelism knob of the pipeline.
//
// The design centre is the determinism contract the single-process
// scheduler already guarantees: results are consumed serially in
// strict work-index order, an early-stop rule (adaptive patience, an
// error) therefore sees exactly the sequence a serial loop would, and
// the set of consumed indices is a prefix [0, T) that depends only on
// the per-index results — never on worker count, lease size, network
// timing, or which worker ran which index. Work items must be
// deterministic functions of their index; that is what makes leases
// idempotent: when a worker is lost mid-lease, its unfinished indices
// are simply re-leased to another worker, which reproduces the exact
// results the lost worker would have returned.
//
// # Contract
//
// TrialSource hands out leases (half-open index ranges) and takes
// failed leases back; TrialSink accepts completed results. Queue
// implements both and adds the index-ordered consume loop; transports
// only ever talk to the two interfaces, so the in-process adapter and
// the TCP coordinator are interchangeable over any Queue.
//
// # Transports
//
//   - RunLocal drives a Queue with per-worker goroutines and reusable
//     scratch state (the trial-arena seam): serial fast path at
//     parallelism 1, worker panics propagated to the caller, every
//     started run finished before return.
//   - Hub + ServeConn implement the distributed transport: workers dial
//     the coordinator once and then serve any number of sequential
//     jobs, each job being a kind tag plus an opaque gob-encoded spec
//     that carries everything a worker needs to prepare it (see
//     internal/distrib for the MIRAGE job kinds), so no worker state
//     carries over between jobs. A single goroutine per worker pumps
//     the exchange — job, ready, then lease/results pairs with
//     heartbeats interleaved, then an optional epilogue blob
//     (per-worker summary state; the MIRAGE job kinds ship none).
//
// # Fault tolerance
//
// Recovery never changes results; it only changes who computes them.
// The hub detects worker loss three ways — a broken connection, a
// heartbeat deadline (silent worker), and a lease progress deadline
// (live but stuck worker) — and in every case fails the lease back to
// the queue, which re-grants it lowest-index-first. Corrupt or
// truncated frames quarantine just the offending worker, with the peer
// address and lease span in the error. Workers reconnect with capped
// exponential backoff + jitter (ServeLoop) and are admitted into the
// running job; RejoinGrace keeps a job alive across an empty-fleet
// window. Hub.Drain stops lease issue and waits (bounded) for
// in-flight results; a worker's Drain channel hands its current lease
// back mid-flight. Every recovery event is counted in Hub.Stats so
// callers and CI can assert recovery actually happened, and ChaosConfig
// injects each fault deterministically from a seed.
package dispatch

// Lease is a half-open range [Lo, Hi) of work indices granted to one
// worker. IDs are unique within a Queue; a lease either completes
// (every index reported) or is failed and its unfinished indices are
// granted again under a new ID.
type Lease struct {
	ID     uint64
	Lo, Hi int
}

// Len returns the number of indices in the lease.
func (l Lease) Len() int { return l.Hi - l.Lo }

// Completed is one finished work item: the result value of Run(Index),
// or the error it returned. Errors participate in the deterministic
// consume order — the error at the lowest consumed index is the one
// the queue reports, exactly as a serial loop would fail.
type Completed[T any] struct {
	Index int
	Value T
	Err   error
}

// TrialSource is the worker-facing half of the queue contract: lease
// work, and hand a lease back when its worker is lost. Implementations
// must grant re-leased indices before fresh ones (lowest index first)
// so that consumption — which is strictly index-ordered — is starved
// as briefly as possible.
type TrialSource interface {
	// Lease returns the next range of work, or ok=false when no work
	// is currently grantable (drained, stopped, or everything
	// outstanding is held by other workers).
	Lease() (Lease, bool)
	// LeaseWait is Lease, but blocks while work could still appear
	// (an outstanding lease failing and being re-granted); it returns
	// ok=false only once the queue is finished.
	LeaseWait() (Lease, bool)
	// Fail returns a lease's unfinished indices to the queue for
	// re-granting. Failing an unknown or completed lease is a no-op.
	Fail(id uint64)
	// Finished reports whether the queue needs no further results:
	// every index was consumed, the consumer stopped early, or an
	// error was consumed.
	Finished() bool
}

// TrialSink is the result-facing half of the contract. Complete may be
// called any number of times per lease, with any subset of its
// indices, from any goroutine; results for indices that were already
// reported (a lease wrongly presumed lost) and results from revoked
// leases are ignored, which is what makes worker recovery idempotent.
type TrialSink[T any] interface {
	Complete(id uint64, items []Completed[T])
}
