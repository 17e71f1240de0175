package dispatch

import (
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"reflect"
	"strings"
	"sync"
	"time"
)

// DefaultHeartbeatTimeout is how long the hub waits for any message
// (results or heartbeat) from a worker holding a lease before revoking
// it, when Hub.HeartbeatTimeout is zero.
const DefaultHeartbeatTimeout = 30 * time.Second

// errWorkerLeft marks a pumper whose worker drained gracefully; the
// conn is dropped but the event is not a job failure.
var errWorkerLeft = errors.New("dispatch: worker drained and left the fleet")

// ErrSimulatedCrash is the sentinel of the hub-side chaos injection
// (ChaosConfig.CrashOnResultBatch): the job aborts with it at the
// moment a real coordinator would have been killed mid-journal-write.
var ErrSimulatedCrash = errors.New("dispatch: simulated coordinator crash")

// PoisonThreshold is how many distinct worker crashes implicate an
// item's lease before the item is quarantined and executed locally on
// the coordinator (only when Hub.LocalHandlers covers the job kind).
const PoisonThreshold = 3

// Hub is the coordinator side of the TCP transport: a persistent pool
// of worker connections that serves jobs sequentially. Workers dial in
// once (ServeLoop / miraged worker) and stay connected across jobs; a
// worker lost mid-job has its leases failed back to the queue and is
// dropped from the pool, and the job completes on the survivors with
// bit-identical results — work items are deterministic in their index,
// so a re-leased range reproduces exactly what the lost worker would
// have returned.
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

	// LocalHandlers, when non-nil, lets the coordinator execute work
	// items itself using the same Handler table the workers run. It
	// enables poison-item quarantine (a repeatedly worker-crashing item
	// is completed locally instead of failing the job) and
	// degraded-mode fallback (a job whose fleet is empty past
	// RejoinGrace finishes locally instead of failing). Both paths are
	// deterministic: items are pure functions of their index, so who
	// executes them cannot change the output. With LocalHandlers nil,
	// a fleetless job is a loud failure.
	LocalHandlers map[string]Handler

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

	startedJobs int64 // jobs that began pumping (reconnect detection)

	active *jobRun // the running job; nil between jobs

	statsMu sync.Mutex // a leaf lock: guards stats only
	stats   FleetStats
}

// FleetStats is a snapshot of the hub's failure-event counters, and
// the `fleet` object of BENCH_routing.json on coordinator runs.
// Releases counts leases failed back to the queue for re-granting (any
// cause); Revocations counts deadline-triggered revocations (silent or
// stalled workers, and job-deadline closures); Disconnects counts
// connections lost mid-job; Reconnects counts workers that joined the
// pool after the first job started; DecodeFaults counts corrupt or
// truncated frames that got a worker quarantined; Poisoned counts
// items quarantined after crossing the poison threshold; LocalItems
// counts items the coordinator executed itself (quarantine or degraded
// mode); Degraded counts times a job fell back to local execution for
// its remainder; Recovered counts jobs replayed or resumed from the
// write-ahead journal after a coordinator restart.
// Row quality never depends on these counts: they exist so a chaos or
// crash-recovery run can prove recovery happened.
type FleetStats struct {
	Releases     int64 `json:"releases"`
	Revocations  int64 `json:"revocations"`
	Disconnects  int64 `json:"disconnects"`
	Reconnects   int64 `json:"reconnects"`
	DecodeFaults int64 `json:"decode_faults"`
	Poisoned     int64 `json:"poisoned"`
	LocalItems   int64 `json:"local_items"`
	Degraded     int64 `json:"degraded"`
	Recovered    int64 `json:"recovered"`
}

// Add sums o into s field by field: the hub's counting rule.
func (s *FleetStats) Add(o FleetStats) {
	sv, ov := reflect.ValueOf(s).Elem(), reflect.ValueOf(o)
	for i := 0; i < sv.NumField(); i++ {
		sv.Field(i).SetInt(sv.Field(i).Int() + ov.Field(i).Int())
	}
}

// String renders the counters as key=value pairs under their JSON
// keys, in field order.
func (s FleetStats) String() string {
	v := reflect.ValueOf(s)
	pairs := make([]string, v.NumField())
	for i := range pairs {
		pairs[i] = fmt.Sprintf("%s=%d", v.Type().Field(i).Tag.Get("json"), v.Field(i).Int())
	}
	return strings.Join(pairs, " ")
}

// count adds d to the hub's counters. Counters move only on failure
// events, so one leaf mutex costs nothing on the result path.
func (h *Hub) count(d FleetStats) {
	h.statsMu.Lock()
	h.stats.Add(d)
	h.statsMu.Unlock()
}

// Stats snapshots the failure-event counters.
func (h *Hub) Stats() FleetStats {
	h.statsMu.Lock()
	defer h.statsMu.Unlock()
	return h.stats
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
		h.count(FleetStats{Reconnects: 1})
	}
	if h.active != nil {
		h.active.launch(hc)
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
// the queue is finished. The hub moves wire items and never reads
// their payload: q's consume callback receives each item in index
// order, after the queue dropped every item outside its lease, and
// decodes it there. An item's Err is consumed as that item's error,
// as a local run's would be. It returns the per-worker epilogue blobs
// of the workers that finished the job, and the queue's error — the
// same error a local run would have returned.
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
// are serialised: concurrent RunJob calls queue behind one another.
func (h *Hub) RunJob(kind string, spec []byte, q *Queue[WireItem]) ([][]byte, error) {
	h.jobMu.Lock()
	defer h.jobMu.Unlock()

	jr := &jobRun{h: h, kind: kind, spec: spec, q: q, lex: h.localExecFor(kind, spec),
		inFlight: make(map[*hubConn]bool)}
	jr.cond = sync.NewCond(&jr.mu)

	// Journal the job (and replay a previous run's banked results)
	// before any lease can be granted: recovered indices are marked
	// done, so workers are granted only the unfinished remainder.
	if h.Journal != nil {
		jw, rec, err := h.Journal.begin(kind, spec, q.Max())
		if err != nil {
			return nil, err
		}
		if rec != nil {
			h.count(FleetStats{Recovered: 1})
			h.logf("dispatch: job %q: replaying %d journaled result item(s) from %s", kind, len(rec.Items), rec.Path)
			q.Deliver(completed(rec.Items))
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
		q.SetPoisonThreshold(PoisonThreshold)
	}

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
	h.active = jr
	h.mu.Unlock()

	defer func() {
		h.mu.Lock()
		h.active = nil
		h.mu.Unlock()
	}()

	for _, hc := range conns {
		jr.launch(hc)
	}

	if h.JobDeadline > 0 {
		d := h.JobDeadline
		timer := time.AfterFunc(d, func() {
			q.Abort(fmt.Errorf("dispatch: job %q exceeded deadline %s (%s)", kind, d, q.UnfinishedSummary()))
			n := jr.closeInFlight()
			h.count(FleetStats{Revocations: int64(n)})
		})
		defer timer.Stop()
	}

	// Wait for the fleet to retire the job. The queue finishing is not
	// enough — pumpers must finish their epilogue handshakes — and the
	// fleet emptying is not final while RejoinGrace is open. A job
	// stranded with work outstanding (fleet empty, grace exhausted)
	// degrades to local execution when LocalHandlers allow it.
	jr.mu.Lock()
	for {
		if jr.executors > 0 {
			jr.cond.Wait()
			continue
		}
		if q.Finished() {
			break
		}
		g := h.RejoinGrace
		if g <= 0 || jr.graceUp {
			if jr.lex.available() {
				jr.mu.Unlock()
				h.count(FleetStats{Degraded: 1})
				h.logf("dispatch: DEGRADED MODE: job %q has no live workers (rejoin grace %s exhausted); executing the remainder locally on the coordinator (%s)", kind, g, q.UnfinishedSummary())
				jr.runLocalRemainder()
				jr.mu.Lock()
				continue
			}
			break
		}
		if jr.graceTimer == nil {
			jr.graceTimer = time.AfterFunc(g, func() {
				jr.mu.Lock()
				jr.graceUp = true
				jr.cond.Broadcast()
				jr.mu.Unlock()
			})
		}
		jr.cond.Wait()
	}
	if jr.graceTimer != nil {
		jr.graceTimer.Stop()
	}
	lastErr, epilogues := jr.lastErr, jr.epilogues
	jr.mu.Unlock()

	if !q.Finished() {
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
	return epilogues, q.Err()
}

// jobRun is one RunJob call: the context it threads through its
// pumpers, the journal and the local (quarantine/degraded) execution
// paths, and the bookkeeping of who still executes it — how many
// executors are live and which connections await lease results (so
// the deadline timer can sever exactly those).
type jobRun struct {
	h    *Hub
	kind string
	spec []byte
	q    *Queue[WireItem]
	jw   *jobJournal
	lex  *localExec

	mu         sync.Mutex
	cond       *sync.Cond
	executors  int
	graceTimer *time.Timer
	graceUp    bool
	inFlight   map[*hubConn]bool
	epilogues  [][]byte
	lastErr    error
}

// enter registers an executor (a pumper or a local quarantine run)
// with the job; any pending rejoin-grace countdown is cancelled,
// because the job is no longer idle.
func (jr *jobRun) enter() {
	jr.mu.Lock()
	jr.executors++
	if jr.graceTimer != nil {
		jr.graceTimer.Stop()
		jr.graceTimer = nil
	}
	jr.graceUp = false
	jr.mu.Unlock()
}

// exit retires an executor and wakes the job waiter.
func (jr *jobRun) exit() {
	jr.mu.Lock()
	jr.executors--
	jr.cond.Broadcast()
	jr.mu.Unlock()
}

func (jr *jobRun) setInFlight(hc *hubConn, v bool) {
	jr.mu.Lock()
	if v {
		jr.inFlight[hc] = true
	} else {
		delete(jr.inFlight, hc)
	}
	jr.mu.Unlock()
}

// closeInFlight severs every connection currently awaiting lease
// results, returning how many it closed. The pumpers' decode errors
// fail the leases back to the queue.
func (jr *jobRun) closeInFlight() int {
	jr.mu.Lock()
	defer jr.mu.Unlock()
	for hc := range jr.inFlight {
		hc.c.Close()
	}
	return len(jr.inFlight)
}

// launch admits a connection into the running job (the Hub calls it
// for mid-job joiners too).
func (jr *jobRun) launch(hc *hubConn) {
	jr.enter()
	go jr.runConn(hc)
}

func (jr *jobRun) runConn(hc *hubConn) {
	defer jr.exit()
	ep, err := jr.pump(hc)
	jr.mu.Lock()
	switch {
	case err != nil && !errors.Is(err, errWorkerLeft):
		jr.lastErr = err
	case err == nil && ep != nil:
		jr.epilogues = append(jr.epilogues, ep)
	}
	jr.mu.Unlock()
	if err != nil {
		jr.h.drop(hc)
	}
}

// bank persists one result batch to the journal BEFORE it reaches the
// queue — the write-ahead ordering that makes recovery exact. A write
// failure (or the chaos-injected coordinator crash) aborts the job:
// results the journal cannot hold are results a restart would lose.
func (jr *jobRun) bank(items []WireItem) error {
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

// land banks one result batch and hands it to the queue: as the
// results of lease l, whose unreported tail (a worker item timeout or
// drain) fails back for re-granting — a no-op once Complete retired a
// full lease — or, with l nil, delivered outside any lease. Items a
// worker numbered outside its lease are dropped before they are
// banked, so neither the live run nor a journal replay consumes them.
func (jr *jobRun) land(l *Lease, wires []WireItem) error {
	if l != nil {
		kept := wires[:0]
		for _, wi := range wires {
			if wi.Index >= l.Lo && wi.Index < l.Hi {
				kept = append(kept, wi)
			}
		}
		wires = kept
	}
	if err := jr.bank(wires); err != nil {
		return err
	}
	if l == nil {
		jr.q.Deliver(completed(wires))
		return nil
	}
	jr.q.Complete(l.ID, completed(wires))
	jr.q.Fail(l.ID)
	return nil
}

// failLease fails a lease lost to a worker crash back to the queue,
// with suspicion: items repeatedly implicated in crashes are
// quarantined and handed to the local executor instead of being
// re-leased forever.
func (jr *jobRun) failLease(l Lease) {
	jr.h.count(FleetStats{Releases: 1})
	poisoned := jr.q.FailSuspect(l.ID)
	if len(poisoned) == 0 {
		return
	}
	jr.h.count(FleetStats{Poisoned: int64(len(poisoned))})
	jr.h.logf("dispatch: job %q: quarantining poison item(s) %v — each implicated in %d worker crashes — for local execution on the coordinator", jr.kind, poisoned, PoisonThreshold)
	jr.enter()
	go func() {
		defer jr.exit()
		jr.runQuarantined(poisoned)
	}()
}

// pump drives one worker connection through one job. Returns the
// worker's epilogue blob (nil when it declined) or a transport error.
func (jr *jobRun) pump(hc *hubConn) ([]byte, error) {
	h, q := jr.h, jr.q
	if err := hc.enc.Encode(wireJob{Kind: jr.kind, Spec: jr.spec}); err != nil {
		h.count(FleetStats{Disconnects: 1})
		return nil, fmt.Errorf("dispatch: worker %s: sending job: %w", hc.peer(), err)
	}
	ready, err := hc.decodeMsg(time.Time{})
	if err != nil {
		h.count(FleetStats{Disconnects: 1})
		return nil, fmt.Errorf("dispatch: worker %s: awaiting ready: %w", hc.peer(), err)
	}
	if ready.Kind != msgReady {
		h.count(FleetStats{DecodeFaults: 1})
		return nil, fmt.Errorf("dispatch: worker %s: expected ready, got message kind %d", hc.peer(), ready.Kind)
	}
	if ready.Err != "" {
		// Declined: the worker is already waiting for the next job.
		return nil, nil
	}
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
			h.count(FleetStats{Releases: 1, Disconnects: 1})
			return nil, fmt.Errorf("dispatch: worker %s: sending lease %d [%d,%d): %w", hc.peer(), l.ID, l.Lo, l.Hi, err)
		}
		jr.setInFlight(hc, true)
		res, err := h.awaitResults(hc, l.ID)
		jr.setInFlight(hc, false)
		if err != nil {
			jr.failLease(l)
			return nil, h.classifyLeaseError(hc, l, err)
		}
		switch res.Kind {
		case msgReturned:
			// Graceful worker drain: land the partial results, whose
			// remainder fails back, and let the worker go without
			// marking the job errored (and without suspicion — a drain
			// is not a crash).
			if err := jr.land(&l, res.Items); err != nil {
				return nil, err
			}
			h.count(FleetStats{Releases: 1})
			return nil, errWorkerLeft
		case msgResults:
			if res.LeaseID != l.ID {
				jr.failLease(l)
				h.count(FleetStats{DecodeFaults: 1})
				return nil, fmt.Errorf("dispatch: worker %s answered lease %d with results for lease %d", hc.peer(), l.ID, res.LeaseID)
			}
			if err := jr.land(&l, res.Items); err != nil {
				return nil, err
			}
		default:
			jr.failLease(l)
			h.count(FleetStats{DecodeFaults: 1})
			return nil, fmt.Errorf("dispatch: worker %s: unexpected message kind %d for lease %d", hc.peer(), res.Kind, l.ID)
		}
	}
	if err := hc.enc.Encode(wireLease{Done: true}); err != nil {
		h.count(FleetStats{Disconnects: 1})
		return nil, fmt.Errorf("dispatch: worker %s: sending done: %w", hc.peer(), err)
	}
	for {
		msg, err := hc.decodeMsg(time.Time{})
		if err != nil {
			h.count(FleetStats{Disconnects: 1})
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
			h.count(FleetStats{DecodeFaults: 1})
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
		h.count(FleetStats{Revocations: 1})
		return fmt.Errorf("dispatch: revoking lease %d [%d,%d) from worker %s: no heartbeat or progress within deadline: %w", l.ID, l.Lo, l.Hi, hc.peer(), err)
	case errors.Is(err, io.EOF), errors.Is(err, io.ErrUnexpectedEOF), errors.Is(err, net.ErrClosed), errors.Is(err, io.ErrClosedPipe):
		h.count(FleetStats{Disconnects: 1})
		return fmt.Errorf("dispatch: worker %s disconnected holding lease %d [%d,%d): %w", hc.peer(), l.ID, l.Lo, l.Hi, err)
	default:
		h.count(FleetStats{DecodeFaults: 1})
		return fmt.Errorf("dispatch: quarantining worker %s: corrupt frame while decoding results for lease %d [%d,%d): %w", hc.peer(), l.ID, l.Lo, l.Hi, err)
	}
}

// completed turns wire items into queue results; an item's Err
// becomes its error, consumed at its index like a local one.
func completed(wires []WireItem) []Completed[WireItem] {
	items := make([]Completed[WireItem], len(wires))
	for i, wi := range wires {
		items[i] = Completed[WireItem]{Index: wi.Index, Value: wi}
		if wi.Err != "" {
			items[i].Err = errors.New(wi.Err)
		}
	}
	return items
}
