// Package dispatch is the transport-agnostic trial-dispatch subsystem:
// a deterministic work queue over integer-indexed, independently
// executable work items (the layout rows or the trials of one or more
// routing-trial grids) plus the two transports that drive it — an
// in-process adapter that schedules the layout rows of
// sabre.RunGrids, and a gob-over-TCP coordinator/worker protocol for
// fanning the trials out across machines.
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
// A Queue hands out leases (half-open index ranges), takes failed
// leases back for re-granting lowest index first, accepts completed
// results from any goroutine, drops those outside their lease, and
// consumes the rest in index order. Both transports drive a *Queue
// directly. RunLocal drives a Queue of any result type. Hub.RunJob
// drives a Queue[WireItem]: the hub moves wire items without reading
// their payload, and the job's consume callback decodes each one.
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
// window. A worker's Drain channel hands its current lease back
// mid-flight; a coordinator is stopped by killing it, and with a
// journal it resumes where it stopped. Every recovery event is counted
// in Hub.Stats so callers and CI can assert recovery actually
// happened, and ChaosConfig injects each fault deterministically from
// a seed.
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
