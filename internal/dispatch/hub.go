package dispatch

import (
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// DefaultHeartbeatTimeout is how long the hub waits for any message
// (results or heartbeat) from a worker holding a lease before revoking
// it, when Hub.HeartbeatTimeout is zero.
const DefaultHeartbeatTimeout = 30 * time.Second

// ErrDraining rejects work submitted to a hub that has begun a
// graceful drain.
var ErrDraining = errors.New("dispatch: hub is draining")

// ErrBusy rejects work when Hub.MaxQueuedJobs jobs are already waiting
// their turn — loud backpressure instead of silent unbounded queueing.
var ErrBusy = errors.New("dispatch: hub job queue is full")

// errWorkerLeft marks a pumper whose worker drained gracefully; the
// conn is dropped but the event is not a job failure.
var errWorkerLeft = errors.New("dispatch: worker drained and left the fleet")

// ErrSimulatedCrash is the sentinel of the hub-side chaos injection
// (ChaosConfig.CrashOnResultBatch): the job aborts with it at the
// moment a real coordinator would have been killed mid-journal-write.
var ErrSimulatedCrash = errors.New("dispatch: simulated coordinator crash")

// DefaultPoisonThreshold is how many distinct worker crashes implicate
// an item before it is quarantined and executed locally, when
// Hub.PoisonThreshold is zero.
const DefaultPoisonThreshold = 3

// Hub is the coordinator side of the TCP transport: a persistent pool
// of worker connections that serves jobs sequentially. Workers dial in
// once (ServeAddr / ServeLoop / miraged worker) and stay connected
// across jobs; a worker lost mid-job has its leases failed back to the
// queue and is dropped from the pool, and the job completes on the
// survivors with bit-identical results — work items are deterministic
// in their index, so a re-leased range reproduces exactly what the
// lost worker would have returned.
//
// Fault tolerance beyond clean disconnects: workers heartbeat while
// executing leases, and the hub enforces HeartbeatTimeout (silent
// worker) and LeaseTimeout (live but not progressing) per lease —
// breaching either revokes the lease, fails it back for lowest-index-
// first re-grant, and quarantines the connection. A worker that
// reconnects mid-job (ServeLoop) is admitted into the running job and
// picks up new leases. Every recovery event increments a FleetStats
// counter so callers (and CI) can assert recovery actually happened.
//
// The tuning fields must be set before the first RunJob and not
// mutated afterwards.
type Hub struct {
	mu    sync.Mutex
	cond  *sync.Cond
	conns map[*hubConn]bool
	ln    net.Listener
	jobMu sync.Mutex // serialises RunJob calls

	// HeartbeatTimeout bounds the silence the hub tolerates from a
	// worker holding a lease: if neither results nor a heartbeat
	// arrive in time, the lease is revoked and re-granted elsewhere.
	// 0 means DefaultHeartbeatTimeout; negative disables the check.
	// It applies only while a lease is outstanding — job preparation
	// and epilogue phases are bounded by JobDeadline instead.
	HeartbeatTimeout time.Duration

	// LeaseTimeout, when positive, bounds how long a lease may go
	// without completing a further item (heartbeats carry progress
	// counts): a worker that pings but never advances is revoked just
	// like a silent one. It must exceed the slowest single item.
	// 0 disables.
	LeaseTimeout time.Duration

	// JobDeadline, when positive, bounds one RunJob call end to end.
	// On expiry the job fails with an error listing the outstanding
	// lease spans, and the connections holding them are closed.
	JobDeadline time.Duration

	// RejoinGrace, when positive, keeps a job alive for that long
	// after the last pumping worker is lost, giving reconnecting
	// workers (ServeLoop backoff) a window to rejoin and resume it.
	// 0 fails the job as soon as the fleet empties.
	RejoinGrace time.Duration

	// MaxQueuedJobs, when positive, bounds how many RunJob calls may
	// wait behind the active one; beyond that RunJob fails fast with
	// ErrBusy. 0 means unbounded.
	MaxQueuedJobs int

	// LocalHandlers, when non-nil, lets the coordinator execute work
	// items itself using the same Handler table the workers run. It
	// enables poison-item quarantine (a repeatedly worker-crashing item
	// is completed locally instead of failing the job) and
	// degraded-mode fallback (a job whose fleet is empty past
	// RejoinGrace finishes locally instead of failing). Both paths are
	// deterministic: items are pure functions of their index, so who
	// executes them cannot change the output. Nil keeps the PR 8
	// behaviour — a fleetless job is a loud failure.
	LocalHandlers map[string]Handler

	// PoisonThreshold is how many distinct worker crashes may implicate
	// an item's lease before the item is quarantined and executed
	// locally. 0 means DefaultPoisonThreshold; negative disables
	// quarantine. Only effective when LocalHandlers covers the job
	// kind.
	PoisonThreshold int

	// Journal, when non-nil, makes every job crash-safe: the spec is
	// persisted before launch and every banked result batch is fsync'd
	// to the journal before it is consumed, so a coordinator restarted
	// with the same journal directory replays finished work and
	// re-grants only the remainder. See OpenJournalDir.
	Journal *JournalDir

	// Chaos, when non-nil, enables the hub-side fault injection points
	// (CrashOnResultBatch); worker-side chaos lives in ServeOptions.
	Chaos *ChaosConfig

	// Logf receives the hub's loud operational events (degraded-mode
	// entry, poison quarantines, journal replays). Nil means the
	// standard library logger.
	Logf func(format string, args ...any)

	draining    bool
	pendingJobs int   // RunJob calls admitted but not yet active
	startedJobs int64 // jobs that began pumping (reconnect detection)

	activeJob    *jobState
	activeLaunch func(*hubConn)
	activeFreeze func()

	stats fleetCounters
}

// fleetCounters are the hub's failure-event counters, updated with
// atomics so pumpers never contend.
type fleetCounters struct {
	releases     atomic.Int64
	revocations  atomic.Int64
	disconnects  atomic.Int64
	reconnects   atomic.Int64
	decodeFaults atomic.Int64
	rejected     atomic.Int64
	poisoned     atomic.Int64
	localItems   atomic.Int64
	degraded     atomic.Int64
	recovered    atomic.Int64
}

// FleetStats is a snapshot of the hub's failure-event counters.
// Releases counts leases failed back to the queue for re-granting (any
// cause); Revocations counts deadline-triggered revocations (silent or
// stalled workers, and job-deadline closures); Disconnects counts
// connections lost mid-job; Reconnects counts workers that joined the
// pool after the first job started; DecodeFaults counts corrupt or
// truncated frames that got a worker quarantined; Rejected counts jobs
// refused with ErrBusy by MaxQueuedJobs admission control; Poisoned
// counts items quarantined after crossing the poison threshold;
// LocalItems counts items the coordinator executed itself (quarantine
// or degraded mode); Degraded counts times a job fell back to local
// execution for its remainder; Recovered counts jobs replayed or
// resumed from the write-ahead journal after a coordinator restart.
type FleetStats struct {
	Releases     int64
	Revocations  int64
	Disconnects  int64
	Reconnects   int64
	DecodeFaults int64
	Rejected     int64
	Poisoned     int64
	LocalItems   int64
	Degraded     int64
	Recovered    int64
}

// Stats snapshots the failure-event counters.
func (h *Hub) Stats() FleetStats {
	return FleetStats{
		Releases:     h.stats.releases.Load(),
		Revocations:  h.stats.revocations.Load(),
		Disconnects:  h.stats.disconnects.Load(),
		Reconnects:   h.stats.reconnects.Load(),
		DecodeFaults: h.stats.decodeFaults.Load(),
		Rejected:     h.stats.rejected.Load(),
		Poisoned:     h.stats.poisoned.Load(),
		LocalItems:   h.stats.localItems.Load(),
		Degraded:     h.stats.degraded.Load(),
		Recovered:    h.stats.recovered.Load(),
	}
}

// logf routes a loud operational event to Logf or the standard logger.
func (h *Hub) logf(format string, args ...any) {
	if h.Logf != nil {
		h.Logf(format, args...)
		return
	}
	log.Printf(format, args...)
}

type hubConn struct {
	c   net.Conn
	enc *gob.Encoder
	dec *gob.Decoder
}

// decodeMsg decodes one worker message, bounding the read by deadline
// (zero means no deadline). After a deadline fires the gob stream may
// be mid-frame, so the caller must treat the connection as dead.
func (hc *hubConn) decodeMsg(deadline time.Time) (wireMsg, error) {
	// SetReadDeadline errors (no deadline support) leave the read
	// unbounded, which is the pre-heartbeat behaviour; ignore them.
	hc.c.SetReadDeadline(deadline)
	var m wireMsg
	err := hc.dec.Decode(&m)
	return m, err
}

func (hc *hubConn) peer() string {
	if a := hc.c.RemoteAddr(); a != nil {
		return a.String()
	}
	return "unknown"
}

// jobState is the bookkeeping for one active RunJob: how many pumpers
// are live, which connections are awaiting lease results (so deadline
// and drain timers can sever exactly those), and whether the job has
// been frozen by a drain.
type jobState struct {
	mu         sync.Mutex
	cond       *sync.Cond
	active     int
	frozen     bool
	graceTimer *time.Timer
	graceUp    bool
	inFlight   map[*hubConn]bool
}

func newJobState() *jobState {
	j := &jobState{inFlight: make(map[*hubConn]bool)}
	j.cond = sync.NewCond(&j.mu)
	return j
}

// enter registers an active executor (a pumper or a local quarantine
// run) with the job; any pending rejoin-grace countdown is cancelled,
// because the job is no longer idle.
func (j *jobState) enter() {
	j.mu.Lock()
	j.active++
	if j.graceTimer != nil {
		j.graceTimer.Stop()
		j.graceTimer = nil
	}
	j.graceUp = false
	j.mu.Unlock()
}

// exit retires an active executor and wakes the job waiter.
func (j *jobState) exit() {
	j.mu.Lock()
	j.active--
	j.cond.Broadcast()
	j.mu.Unlock()
}

func (j *jobState) setInFlight(hc *hubConn, v bool) {
	j.mu.Lock()
	if v {
		j.inFlight[hc] = true
	} else {
		delete(j.inFlight, hc)
	}
	j.mu.Unlock()
}

// closeInFlight severs every connection currently awaiting lease
// results, returning how many it closed. The pumpers' decode errors
// fail the leases back to the queue.
func (j *jobState) closeInFlight() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	n := 0
	for hc := range j.inFlight {
		hc.c.Close()
		n++
	}
	return n
}

func (j *jobState) isFrozen() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.frozen
}

// NewHub returns an empty worker pool.
func NewHub() *Hub {
	h := &Hub{conns: make(map[*hubConn]bool)}
	h.cond = sync.NewCond(&h.mu)
	return h
}

// Listen starts accepting worker connections on addr (e.g.
// "127.0.0.1:0"); the returned address carries the bound port. Accepted
// connections join the pool immediately; if a job is running they are
// admitted into it, otherwise they idle until the next RunJob call.
func (h *Hub) Listen(addr string) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	h.mu.Lock()
	h.ln = ln
	h.mu.Unlock()
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			h.AddConn(c)
		}
	}()
	return ln.Addr(), nil
}

// AddConn adds an established worker connection to the pool (the seam
// tests use to wire in-process workers over loopback or pipes). A
// connection arriving while a job is running joins that job
// immediately — this is how a crashed worker's reconnect resumes work
// mid-job.
func (h *Hub) AddConn(c net.Conn) {
	hc := &hubConn{c: c, enc: gob.NewEncoder(c), dec: gob.NewDecoder(c)}
	h.mu.Lock()
	h.conns[hc] = true
	if h.startedJobs > 0 {
		h.stats.reconnects.Add(1)
	}
	if launch := h.activeLaunch; launch != nil {
		launch(hc)
	}
	h.cond.Broadcast()
	h.mu.Unlock()
}

// Workers returns the number of pooled connections.
func (h *Hub) Workers() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.conns)
}

// WaitWorkers blocks until at least n workers are pooled or the
// timeout elapses (timeout <= 0 waits forever).
func (h *Hub) WaitWorkers(n int, timeout time.Duration) error {
	var deadline time.Time
	if timeout > 0 {
		deadline = time.Now().Add(timeout)
		time.AfterFunc(timeout, func() {
			h.mu.Lock()
			h.cond.Broadcast()
			h.mu.Unlock()
		})
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	for len(h.conns) < n {
		if !deadline.IsZero() && !time.Now().Before(deadline) {
			return fmt.Errorf("dispatch: %d of %d workers connected after %s", len(h.conns), n, timeout)
		}
		h.cond.Wait()
	}
	return nil
}

// Close stops accepting and closes every pooled connection (workers
// see EOF and exit their serve loop).
func (h *Hub) Close() {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.ln != nil {
		h.ln.Close()
		h.ln = nil
	}
	for hc := range h.conns {
		hc.c.Close()
		delete(h.conns, hc)
	}
}

// Drain gracefully quiesces the hub: new RunJob calls are rejected
// with ErrDraining, the active job stops issuing leases, and in-flight
// leases get up to wait (wait <= 0: unbounded) to deliver their
// results before their connections are severed and the remainder is
// failed back to the queue. Drain returns once the active job (if any)
// has retired; the worker pool itself stays connected — call Close to
// tear it down.
func (h *Hub) Drain(wait time.Duration) {
	h.mu.Lock()
	h.draining = true
	freeze := h.activeFreeze
	job := h.activeJob
	h.mu.Unlock()
	if freeze != nil {
		freeze()
	}
	if job == nil {
		return
	}
	var t *time.Timer
	if wait > 0 {
		t = time.AfterFunc(wait, func() { job.closeInFlight() })
	}
	// Wait for every pumper of the active job to retire; queued RunJob
	// calls behind it fail fast with ErrDraining on their own.
	job.mu.Lock()
	for job.active > 0 {
		job.cond.Wait()
	}
	job.mu.Unlock()
	if t != nil {
		t.Stop()
	}
}

func (h *Hub) drop(hc *hubConn) {
	h.mu.Lock()
	if h.conns[hc] {
		delete(h.conns, hc)
		hc.c.Close()
	}
	h.mu.Unlock()
}

// RunJob runs one job over every currently pooled worker: each worker
// receives (kind, spec), prepares, and then pumps leases from q until
// the queue is finished. fromWire converts a wire item's payload into
// the queue's result type (a conversion failure is consumed as that
// item's error, deterministically). It returns the per-worker epilogue
// blobs of the workers that finished the job, and the queue's error —
// the same error a local run would have returned.
//
// Workers that decline the job (bad spec) sit the job out but stay
// pooled; workers whose connection fails, breaches a heartbeat or
// progress deadline, or sends a corrupt frame mid-job have their
// leases failed back for re-granting and are dropped. Workers that
// connect mid-job join it. If every worker is gone or declined before
// the queue finishes — and no replacement arrives within RejoinGrace —
// RunJob either finishes the remainder locally (LocalHandlers set:
// degraded mode, logged loudly and counted in FleetStats) or fails;
// without LocalHandlers there is deliberately no silent local
// fallback, so a misconfigured fleet is loud. With Hub.Journal set the
// job is crash-safe: its spec and every banked result batch are
// persisted before use, and a restarted coordinator replays them. Jobs
// are serialised: concurrent RunJob calls queue behind one another,
// bounded by MaxQueuedJobs.
func RunJob[T any](h *Hub, kind string, spec []byte, q *Queue[T], fromWire func(WireItem) (T, error)) ([][]byte, error) {
	// Admission control: fail fast while draining or over-queued,
	// before blocking on the job lock.
	h.mu.Lock()
	if h.draining {
		h.mu.Unlock()
		return nil, fmt.Errorf("dispatch: job %q rejected: %w", kind, ErrDraining)
	}
	if h.MaxQueuedJobs > 0 && h.pendingJobs >= h.MaxQueuedJobs {
		n := h.pendingJobs
		h.mu.Unlock()
		h.stats.rejected.Add(1)
		return nil, fmt.Errorf("dispatch: job %q rejected, %d of %d queued-job slots in use (MaxQueuedJobs): %w", kind, n, h.MaxQueuedJobs, ErrBusy)
	}
	h.pendingJobs++
	h.mu.Unlock()

	h.jobMu.Lock()
	defer h.jobMu.Unlock()

	h.mu.Lock()
	h.pendingJobs--
	draining := h.draining
	h.mu.Unlock()
	if draining {
		return nil, fmt.Errorf("dispatch: job %q rejected: %w", kind, ErrDraining)
	}

	jr := &jobRun[T]{
		h:        h,
		job:      newJobState(),
		kind:     kind,
		spec:     spec,
		q:        q,
		fromWire: fromWire,
		lex:      h.localExecFor(kind, spec),
	}

	// Journal the job (and replay a previous run's banked results)
	// before any lease can be granted: recovered indices are marked
	// done, so workers are granted only the unfinished remainder.
	if h.Journal != nil {
		jw, rec, err := h.Journal.begin(kind, spec, q.Max())
		if err != nil {
			return nil, err
		}
		if rec != nil {
			h.stats.recovered.Add(1)
			h.logf("dispatch: job %q: replaying %d journaled result item(s) from %s", kind, len(rec.Items), rec.Path)
			items := make([]Completed[T], 0, len(rec.Items))
			for _, wi := range rec.Items {
				items = append(items, completedFromWire(wi, fromWire))
			}
			q.Deliver(items)
		}
		if q.Finished() {
			// Pure replay: the journaled prefix already satisfies the
			// consumer. Epilogues are per-worker state and are nil here.
			if jw != nil {
				if q.Err() == nil {
					jw.finish()
				}
				jw.close()
			}
			return nil, q.Err()
		}
		if jw == nil {
			return nil, fmt.Errorf("dispatch: job %q: journal %s is marked complete but its replay left work unfinished (%s) — the consumer is not deterministic", kind, rec.Path, q.UnfinishedSummary())
		}
		jr.jw = jw
		defer jw.close()
	}

	if jr.lex.available() {
		if k := h.poisonThreshold(); k > 0 {
			q.SetPoisonThreshold(k)
		}
	}

	job := jr.job
	h.mu.Lock()
	conns := make([]*hubConn, 0, len(h.conns))
	for hc := range h.conns {
		conns = append(conns, hc)
	}
	if len(conns) == 0 && h.RejoinGrace <= 0 && !jr.lex.available() {
		h.mu.Unlock()
		return nil, errors.New("dispatch: no workers connected")
	}
	h.startedJobs++
	h.activeJob = job
	h.activeLaunch = jr.launch
	h.activeFreeze = func() {
		job.mu.Lock()
		job.frozen = true
		job.cond.Broadcast()
		job.mu.Unlock()
		q.Freeze()
	}
	h.mu.Unlock()

	defer func() {
		h.mu.Lock()
		h.activeJob = nil
		h.activeLaunch = nil
		h.activeFreeze = nil
		h.mu.Unlock()
	}()

	for _, hc := range conns {
		jr.launch(hc)
	}

	if h.JobDeadline > 0 {
		d := h.JobDeadline
		timer := time.AfterFunc(d, func() {
			q.Abort(fmt.Errorf("dispatch: job %q exceeded deadline %s (%s)", kind, d, q.UnfinishedSummary()))
			n := job.closeInFlight()
			h.stats.revocations.Add(int64(n))
		})
		defer timer.Stop()
	}

	// Wait for the fleet to retire the job. The queue finishing is not
	// enough — pumpers must finish their epilogue handshakes — and the
	// fleet emptying is not final while RejoinGrace is open. A job
	// stranded with work outstanding (fleet empty, grace exhausted)
	// degrades to local execution when LocalHandlers allow it.
	job.mu.Lock()
	for {
		if job.active > 0 {
			job.cond.Wait()
			continue
		}
		if q.Finished() || job.frozen {
			break
		}
		g := h.RejoinGrace
		if g <= 0 || job.graceUp {
			if jr.lex.available() {
				job.mu.Unlock()
				h.stats.degraded.Add(1)
				h.logf("dispatch: DEGRADED MODE: job %q has no live workers (rejoin grace %s exhausted); executing the remainder locally on the coordinator (%s)", kind, g, q.UnfinishedSummary())
				jr.runLocalRemainder()
				job.mu.Lock()
				continue
			}
			break
		}
		if job.graceTimer == nil {
			job.graceTimer = time.AfterFunc(g, func() {
				job.mu.Lock()
				job.graceUp = true
				job.cond.Broadcast()
				job.mu.Unlock()
			})
		}
		job.cond.Wait()
	}
	if job.graceTimer != nil {
		job.graceTimer.Stop()
	}
	frozen := job.frozen
	job.mu.Unlock()

	if !q.Finished() {
		if frozen {
			return nil, fmt.Errorf("dispatch: job %q drained with work outstanding (%s): %w", kind, q.UnfinishedSummary(), ErrDraining)
		}
		jr.epMu.Lock()
		lastErr := jr.lastErr
		jr.epMu.Unlock()
		if lastErr == nil {
			lastErr = errors.New("dispatch: all workers declined the job")
		}
		return nil, fmt.Errorf("dispatch: job %q unfinished: %w", kind, lastErr)
	}
	if jr.jw != nil && q.Err() == nil {
		// The queue is satisfied: mark the journal complete so a
		// restart replays instead of re-executing. Failed jobs skip the
		// marker — an abort (deadline, simulated crash) must stay
		// resumable, and a deterministic consumed error will reproduce
		// itself from the banked prefix anyway.
		if err := jr.jw.finish(); err != nil {
			h.logf("dispatch: job %q: writing journal completion marker: %v", kind, err)
		}
	}
	jr.epMu.Lock()
	epilogues := jr.epilogues
	jr.epMu.Unlock()
	return epilogues, q.Err()
}

// jobRun bundles the per-job context one RunJob call threads through
// its pumpers, the journal, and the local (quarantine/degraded)
// execution paths.
type jobRun[T any] struct {
	h        *Hub
	job      *jobState
	kind     string
	spec     []byte
	q        *Queue[T]
	fromWire func(WireItem) (T, error)
	jw       *jobJournal
	lex      *localExec

	epMu      sync.Mutex
	epilogues [][]byte
	lastErr   error
}

// launch admits a connection into the running job (the Hub calls it
// for mid-job joiners too).
func (jr *jobRun[T]) launch(hc *hubConn) {
	jr.job.enter()
	go jr.runConn(hc)
}

func (jr *jobRun[T]) runConn(hc *hubConn) {
	defer jr.job.exit()
	ep, err := jr.pump(hc)
	if err != nil {
		if !errors.Is(err, errWorkerLeft) {
			jr.epMu.Lock()
			jr.lastErr = err
			jr.epMu.Unlock()
		}
		jr.h.drop(hc)
	} else if ep != nil {
		jr.epMu.Lock()
		jr.epilogues = append(jr.epilogues, ep)
		jr.epMu.Unlock()
	}
}

// bank persists one result batch to the journal BEFORE it reaches the
// queue — the write-ahead ordering that makes recovery exact. A write
// failure (or the chaos-injected coordinator crash) aborts the job:
// results the journal cannot hold are results a restart would lose.
func (jr *jobRun[T]) bank(items []WireItem) error {
	n, crash := jr.h.Chaos.nextHubBatch()
	if crash {
		if jr.jw != nil {
			jr.jw.tear(items)
		}
		err := fmt.Errorf("dispatch: job %q: %w while journaling result batch %d", jr.kind, ErrSimulatedCrash, n)
		jr.q.Abort(err)
		return err
	}
	if jr.jw == nil {
		return nil
	}
	if err := jr.jw.appendBatch(items); err != nil {
		err = fmt.Errorf("dispatch: job %q: aborting, banked results are no longer crash-safe: %w", jr.kind, err)
		jr.q.Abort(err)
		return err
	}
	return nil
}

// failLease fails a lease lost to a worker crash back to the queue,
// with suspicion: items repeatedly implicated in crashes are
// quarantined and handed to the local executor instead of being
// re-leased forever.
func (jr *jobRun[T]) failLease(l Lease) {
	jr.h.stats.releases.Add(1)
	poisoned := jr.q.FailSuspect(l.ID)
	if len(poisoned) == 0 {
		return
	}
	jr.h.stats.poisoned.Add(int64(len(poisoned)))
	jr.h.logf("dispatch: job %q: quarantining poison item(s) %v — each implicated in %d worker crashes — for local execution on the coordinator", jr.kind, poisoned, jr.h.poisonThreshold())
	jr.job.enter()
	go func() {
		defer jr.job.exit()
		jr.runQuarantined(poisoned)
	}()
}

// pump drives one worker connection through one job. Returns the
// worker's epilogue blob (nil when it declined) or a transport error.
func (jr *jobRun[T]) pump(hc *hubConn) ([]byte, error) {
	h, q, job := jr.h, jr.q, jr.job
	if err := hc.enc.Encode(wireJob{Kind: jr.kind, Spec: jr.spec}); err != nil {
		h.stats.disconnects.Add(1)
		return nil, fmt.Errorf("dispatch: worker %s: sending job: %w", hc.peer(), err)
	}
	ready, err := hc.decodeMsg(time.Time{})
	if err != nil {
		h.stats.disconnects.Add(1)
		return nil, fmt.Errorf("dispatch: worker %s: awaiting ready: %w", hc.peer(), err)
	}
	if ready.Kind != msgReady {
		h.stats.decodeFaults.Add(1)
		return nil, fmt.Errorf("dispatch: worker %s: expected ready, got message kind %d", hc.peer(), ready.Kind)
	}
	if ready.Err != "" {
		// Declined: the worker is already waiting for the next job.
		return nil, nil
	}
	items := make([]Completed[T], 0, 16)
	for {
		l, ok := q.LeaseWait()
		if !ok {
			break
		}
		if err := hc.enc.Encode(wireLease{ID: l.ID, Lo: l.Lo, Hi: l.Hi}); err != nil {
			// The worker died before it could even start the lease: no
			// suspicion accrues — poison means "crashes whoever runs
			// it", and nobody ran it.
			q.Fail(l.ID)
			h.stats.releases.Add(1)
			h.stats.disconnects.Add(1)
			return nil, fmt.Errorf("dispatch: worker %s: sending lease %d [%d,%d): %w", hc.peer(), l.ID, l.Lo, l.Hi, err)
		}
		job.setInFlight(hc, true)
		res, err := h.awaitResults(hc, l.ID)
		job.setInFlight(hc, false)
		if err != nil {
			jr.failLease(l)
			return nil, h.classifyLeaseError(hc, l, err)
		}
		switch res.Kind {
		case msgReturned:
			// Graceful worker drain: bank the partial results, fail
			// the remainder back, and let the worker go without
			// marking the job errored (and without suspicion — a
			// drain is not a crash).
			if err := jr.bank(res.Items); err != nil {
				return nil, err
			}
			items = items[:0]
			for _, wi := range res.Items {
				items = append(items, completedFromWire(wi, jr.fromWire))
			}
			q.Complete(l.ID, items)
			q.Fail(l.ID)
			h.stats.releases.Add(1)
			return nil, errWorkerLeft
		case msgResults:
			if res.LeaseID != l.ID {
				jr.failLease(l)
				h.stats.decodeFaults.Add(1)
				return nil, fmt.Errorf("dispatch: worker %s answered lease %d with results for lease %d", hc.peer(), l.ID, res.LeaseID)
			}
			if err := jr.bank(res.Items); err != nil {
				return nil, err
			}
			items = items[:0]
			for _, wi := range res.Items {
				items = append(items, completedFromWire(wi, jr.fromWire))
			}
			q.Complete(l.ID, items)
			// A full lease is retired by Complete, making this a
			// no-op; a partial one (item-timeout on the worker) has
			// its unreported tail failed back for re-granting.
			q.Fail(l.ID)
		default:
			jr.failLease(l)
			h.stats.decodeFaults.Add(1)
			return nil, fmt.Errorf("dispatch: worker %s: unexpected message kind %d for lease %d", hc.peer(), res.Kind, l.ID)
		}
	}
	if err := hc.enc.Encode(wireLease{Done: true}); err != nil {
		h.stats.disconnects.Add(1)
		return nil, fmt.Errorf("dispatch: worker %s: sending done: %w", hc.peer(), err)
	}
	for {
		msg, err := hc.decodeMsg(time.Time{})
		if err != nil {
			h.stats.disconnects.Add(1)
			return nil, fmt.Errorf("dispatch: worker %s: awaiting epilogue: %w", hc.peer(), err)
		}
		switch msg.Kind {
		case msgHeartbeat:
			// A straggling ping from a lease that just completed.
			continue
		case msgEpilogue:
			if msg.Blob == nil {
				return []byte{}, nil
			}
			return msg.Blob, nil
		default:
			h.stats.decodeFaults.Add(1)
			return nil, fmt.Errorf("dispatch: worker %s: expected epilogue, got message kind %d", hc.peer(), msg.Kind)
		}
	}
}

// awaitResults reads worker messages for one outstanding lease until
// results (or a drain handback) arrive, consuming heartbeats and
// enforcing the hub's liveness and progress deadlines.
func (h *Hub) awaitResults(hc *hubConn, leaseID uint64) (wireMsg, error) {
	hbTimeout := h.HeartbeatTimeout
	if hbTimeout == 0 {
		hbTimeout = DefaultHeartbeatTimeout
	}
	progressAt := time.Now()
	lastDone := 0
	for {
		var deadline time.Time
		if hbTimeout > 0 {
			deadline = time.Now().Add(hbTimeout)
		}
		if h.LeaseTimeout > 0 {
			if pd := progressAt.Add(h.LeaseTimeout); deadline.IsZero() || pd.Before(deadline) {
				deadline = pd
			}
		}
		msg, err := hc.decodeMsg(deadline)
		if err != nil {
			return wireMsg{}, err
		}
		switch msg.Kind {
		case msgHeartbeat:
			if msg.LeaseID == leaseID && msg.Done > lastDone {
				lastDone = msg.Done
				progressAt = time.Now()
			}
		case msgResults, msgReturned:
			hc.c.SetReadDeadline(time.Time{})
			return msg, nil
		default:
			return wireMsg{}, fmt.Errorf("unexpected message kind %d while awaiting results", msg.Kind)
		}
	}
}

// classifyLeaseError wraps a lease-phase failure with the peer address
// and lease context (the quarantine diagnostic of satellite S2) and
// counts it: deadline breaches are revocations, closed connections are
// disconnects, anything else is a corrupt frame.
func (h *Hub) classifyLeaseError(hc *hubConn, l Lease, err error) error {
	var ne net.Error
	switch {
	case errors.As(err, &ne) && ne.Timeout():
		h.stats.revocations.Add(1)
		return fmt.Errorf("dispatch: revoking lease %d [%d,%d) from worker %s: no heartbeat or progress within deadline: %w", l.ID, l.Lo, l.Hi, hc.peer(), err)
	case errors.Is(err, io.EOF), errors.Is(err, io.ErrUnexpectedEOF), errors.Is(err, net.ErrClosed), errors.Is(err, io.ErrClosedPipe):
		h.stats.disconnects.Add(1)
		return fmt.Errorf("dispatch: worker %s disconnected holding lease %d [%d,%d): %w", hc.peer(), l.ID, l.Lo, l.Hi, err)
	default:
		h.stats.decodeFaults.Add(1)
		return fmt.Errorf("dispatch: quarantining worker %s: corrupt frame while decoding results for lease %d [%d,%d): %w", hc.peer(), l.ID, l.Lo, l.Hi, err)
	}
}

func completedFromWire[T any](wi WireItem, fromWire func(WireItem) (T, error)) Completed[T] {
	if wi.Err != "" {
		return Completed[T]{Index: wi.Index, Err: errors.New(wi.Err)}
	}
	v, err := fromWire(wi)
	if err != nil {
		return Completed[T]{Index: wi.Index, Err: fmt.Errorf("dispatch: decoding result %d: %w", wi.Index, err)}
	}
	return Completed[T]{Index: wi.Index, Value: v}
}
