package dispatch

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// Handler prepares one job kind on the worker: it decodes the opaque
// spec, builds whatever shared immutable state the job needs (a
// prepared TrialRunner DAG, a decoded circuit batch), and returns the
// runner that executes individual work indices. warm is always nil:
// everything a job needs travels in its spec. Returning an error
// declines the job; the worker stays connected for the next one.
type Handler func(spec, warm []byte) (JobRunner, error)

// JobRunner executes the work indices of one prepared job. Run is
// called from a single goroutine in ascending index order within each
// lease, so it may reuse mutable state (the trial arena) across calls;
// it must be deterministic in i — that is what makes re-leasing after
// a worker loss idempotent. Epilogue is called once, after the
// coordinator has declared the job done, and may ship summary state
// home (nil when there is none).
type JobRunner interface {
	Run(i int) WireItem
	Epilogue() []byte
}

// DefaultHeartbeatInterval is how often an executing worker pings the
// coordinator when ServeOptions.HeartbeatInterval is zero.
const DefaultHeartbeatInterval = time.Second

// ServeOptions tunes a worker serve loop.
type ServeOptions struct {
	// HeartbeatInterval is how often the worker sends a liveness ping
	// while executing a lease (heartbeats carry the count of items
	// finished so far, so the coordinator can distinguish slow from
	// stuck). 0 means DefaultHeartbeatInterval; negative disables
	// heartbeats entirely.
	HeartbeatInterval time.Duration

	// ItemTimeout, when positive, bounds a single work item. On
	// timeout the worker reports the item as errored, ships the
	// lease's partial results, and severs the connection — the
	// abandoned item goroutine may still hold the runner's arena, so
	// the connection's runner can never be trusted again. 0 disables.
	ItemTimeout time.Duration

	// Drain, when non-nil, requests graceful shutdown when closed: a
	// worker mid-lease ships the items it has finished and hands the
	// rest of the lease back (msgReturned); an idle worker just
	// disconnects. ServeConn then returns nil.
	Drain <-chan struct{}

	// Chaos enables deterministic fault injection; see ChaosConfig.
	Chaos *ChaosConfig
}

// errFaultInjected reports a deliberate chaos crash.
var errFaultInjected = errors.New("dispatch: worker died by fault injection")

// errWorkerDrained marks a serve loop that exited because its Drain
// channel closed; ServeConn converts it to a clean nil return.
var errWorkerDrained = errors.New("dispatch: worker drained")

// serveState is the per-connection worker state: the shared encoder is
// mutex-guarded because the heartbeat goroutine and the serve loop
// both write to it.
type serveState struct {
	conn  net.Conn
	enc   *gob.Encoder
	encMu sync.Mutex
	dec   *gob.Decoder
	opts  *ServeOptions

	progress atomic.Int64 // items finished in the current lease

	mu        sync.Mutex
	busy      bool // executing a lease (drain must not close the conn)
	wantDrain bool
}

func (w *serveState) send(m wireMsg) error {
	w.encMu.Lock()
	defer w.encMu.Unlock()
	return w.enc.Encode(m)
}

func (w *serveState) drainRequested() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.wantDrain
}

func (w *serveState) setBusy(b bool) {
	w.mu.Lock()
	w.busy = b
	w.mu.Unlock()
}

// ServeConn runs the worker side of the wire protocol on an
// established connection until the coordinator closes it (clean EOF
// returns nil). handlers maps job kinds to their preparation
// functions; an unknown kind declines the job. A panic inside
// JobRunner.Run is reported as that item's error rather than killing
// the worker process. While executing a lease the worker heartbeats
// (see ServeOptions.HeartbeatInterval) so a deadline-enforcing
// coordinator can tell slow from dead.
func ServeConn(conn net.Conn, handlers map[string]Handler, opts *ServeOptions) error {
	if opts == nil {
		opts = &ServeOptions{}
	}
	w := &serveState{
		conn: conn,
		enc:  gob.NewEncoder(conn),
		dec:  gob.NewDecoder(conn),
		opts: opts,
	}
	if opts.Drain != nil {
		watcherDone := make(chan struct{})
		defer close(watcherDone)
		go func() {
			select {
			case <-watcherDone:
				return
			case <-opts.Drain:
			}
			w.mu.Lock()
			w.wantDrain = true
			if !w.busy {
				// Idle (blocked decoding the next job or lease):
				// closing the conn is the only way to interrupt.
				conn.Close()
			}
			w.mu.Unlock()
		}()
	}
	err := w.serve(handlers)
	if err != nil && (errors.Is(err, errWorkerDrained) || w.drainRequested()) {
		return nil
	}
	return err
}

func (w *serveState) serve(handlers map[string]Handler) error {
	for {
		var job wireJob
		if err := w.dec.Decode(&job); err != nil {
			if errors.Is(err, io.EOF) || errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		runner, prepErr := prepare(handlers, job)
		if prepErr != nil {
			if err := w.send(wireMsg{Kind: msgReady, Err: prepErr.Error()}); err != nil {
				return err
			}
			continue
		}
		if err := w.send(wireMsg{Kind: msgReady}); err != nil {
			return err
		}
		for {
			var l wireLease
			if err := w.dec.Decode(&l); err != nil {
				return err
			}
			if l.Done {
				if err := w.send(wireMsg{Kind: msgEpilogue, Blob: runner.Epilogue()}); err != nil {
					return err
				}
				break
			}
			if l.Lo < 0 || l.Hi < l.Lo {
				return fmt.Errorf("dispatch: malformed lease %d [%d,%d)", l.ID, l.Lo, l.Hi)
			}
			w.setBusy(true)
			err := w.runLease(runner, l)
			w.setBusy(false)
			if err != nil {
				return err
			}
			if w.drainRequested() {
				w.conn.Close()
				return errWorkerDrained
			}
		}
	}
}

// runLease executes one lease: chaos faults first, then the items with
// heartbeats flowing, honouring drain requests between items.
func (w *serveState) runLease(runner JobRunner, l wireLease) error {
	n, act := w.opts.Chaos.nextLease()
	switch act {
	case chaosCrash:
		w.conn.Close()
		return errFaultInjected
	case chaosStall:
		var hb *heartbeater
		if w.opts.Chaos.StallHeartbeats {
			w.progress.Store(0)
			hb = w.startHeartbeats(l.ID)
		}
		time.Sleep(w.opts.Chaos.stallFor())
		hb.halt()
		w.conn.Close()
		return fmt.Errorf("dispatch: worker stalled by fault injection on lease %d: %w", n, errFaultInjected)
	case chaosCorrupt:
		w.encMu.Lock()
		w.conn.Write(w.opts.Chaos.corruptFrame(n))
		w.encMu.Unlock()
		w.conn.Close()
		return fmt.Errorf("dispatch: worker corrupted lease %d frame by fault injection: %w", n, errFaultInjected)
	}

	w.progress.Store(0)
	hb := w.startHeartbeats(l.ID)
	var items []WireItem
	for i := l.Lo; i < l.Hi; i++ {
		if w.drainRequested() {
			hb.halt()
			w.send(wireMsg{Kind: msgReturned, LeaseID: l.ID, Items: items})
			w.conn.Close()
			return errWorkerDrained
		}
		if w.opts.Chaos != nil && w.opts.Chaos.SlowPerItem > 0 {
			time.Sleep(w.opts.Chaos.SlowPerItem)
		}
		item, timedOut := w.runItem(runner, i)
		items = append(items, item)
		if timedOut {
			hb.halt()
			w.send(wireMsg{Kind: msgResults, LeaseID: l.ID, Items: items})
			w.conn.Close()
			return fmt.Errorf("dispatch: item %d exceeded ItemTimeout %s; severing (runner state may be wedged)", i, w.opts.ItemTimeout)
		}
		w.progress.Store(int64(i - l.Lo + 1))
	}
	hb.halt()

	if act == chaosPartial {
		var buf bytes.Buffer
		// A fresh encoder so the buffer holds a complete, self-
		// contained message whose first half is convincingly real.
		gob.NewEncoder(&buf).Encode(wireMsg{Kind: msgResults, LeaseID: l.ID, Items: items})
		w.encMu.Lock()
		w.conn.Write(buf.Bytes()[:buf.Len()/2])
		w.encMu.Unlock()
		w.conn.Close()
		return fmt.Errorf("dispatch: worker truncated lease %d results by fault injection: %w", n, errFaultInjected)
	}
	return w.send(wireMsg{Kind: msgResults, LeaseID: l.ID, Items: items})
}

// runItem executes one work item, optionally bounded by ItemTimeout.
// The timed path runs the item in a goroutine; on timeout that
// goroutine is abandoned (it may be wedged inside user code), so the
// caller must sever the connection afterwards.
func (w *serveState) runItem(runner JobRunner, i int) (WireItem, bool) {
	if w.opts.ItemTimeout <= 0 {
		return runSafe(runner, i), false
	}
	ch := make(chan WireItem, 1)
	go func() { ch <- runSafe(runner, i) }()
	t := time.NewTimer(w.opts.ItemTimeout)
	defer t.Stop()
	select {
	case item := <-ch:
		return item, false
	case <-t.C:
		return WireItem{Index: i, Err: fmt.Sprintf("dispatch: item %d timed out after %s on worker", i, w.opts.ItemTimeout)}, true
	}
}

// heartbeater is the per-lease liveness ticker. halt stops the ticker
// and waits for any in-flight send, so the serve loop can safely write
// the results frame afterwards.
type heartbeater struct {
	stop chan struct{}
	done chan struct{}
}

func (w *serveState) startHeartbeats(leaseID uint64) *heartbeater {
	iv := w.opts.HeartbeatInterval
	if iv == 0 {
		iv = DefaultHeartbeatInterval
	}
	if iv < 0 {
		return nil
	}
	h := &heartbeater{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		t := time.NewTicker(iv)
		defer t.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-t.C:
				// Send errors are ignored: the serve loop will hit
				// the same broken conn and report it properly.
				w.send(wireMsg{Kind: msgHeartbeat, LeaseID: leaseID, Done: int(w.progress.Load())})
			}
		}
	}()
	return h
}

func (h *heartbeater) halt() {
	if h == nil {
		return
	}
	close(h.stop)
	<-h.done
}

func prepare(handlers map[string]Handler, job wireJob) (runner JobRunner, err error) {
	h, ok := handlers[job.Kind]
	if !ok {
		return nil, fmt.Errorf("dispatch: unknown job kind %q", job.Kind)
	}
	defer func() {
		if r := recover(); r != nil {
			runner, err = nil, fmt.Errorf("dispatch: preparing job %q: panic: %v", job.Kind, r)
		}
	}()
	return h(job.Spec, nil)
}

func runSafe(r JobRunner, i int) (item WireItem) {
	defer func() {
		if p := recover(); p != nil {
			item = WireItem{Index: i, Err: fmt.Sprintf("worker panic: %v", p)}
		}
	}()
	item = r.Run(i)
	item.Index = i
	return item
}

// ReconnectOptions tunes ServeLoop's redial behaviour.
type ReconnectOptions struct {
	// Attempts is how many reconnect attempts are made after the
	// initial connection ends (or fails): each failed dial and each
	// ended serve session consumes one. 0 means serve a single
	// connection (or return its dial error) and exit, with no backoff
	// sleep.
	Attempts int

	// InitialBackoff is the delay before the first reconnect attempt;
	// consecutive failed dials double it up to MaxBackoff, and every
	// delay is jittered to half-to-full of its nominal value so a
	// restarted fleet doesn't reconnect in lockstep. Defaults:
	// 1s initial, 30s cap.
	InitialBackoff time.Duration
	MaxBackoff     time.Duration

	// Seed makes the jitter sequence reproducible; 0 derives it from
	// the address so distinct workers still spread out.
	Seed int64
}

// reconnectDelay computes the capped-exponential jittered backoff for
// the given consecutive-failure streak. Pure so tests can pin it.
func reconnectDelay(rc ReconnectOptions, streak int, rnd uint64) time.Duration {
	base := rc.InitialBackoff
	if base <= 0 {
		base = time.Second
	}
	ceil := rc.MaxBackoff
	if ceil <= 0 {
		ceil = 30 * time.Second
	}
	d := base
	for i := 0; i < streak && d < ceil; i++ {
		d *= 2
	}
	if d > ceil {
		d = ceil
	}
	// Jitter into [d/2, d): late enough to back off, spread enough
	// that a rebooted fleet doesn't thundering-herd the coordinator.
	half := uint64(d / 2)
	if half == 0 {
		return d
	}
	return time.Duration(half + rnd%half)
}

// ServeLoop dials the coordinator and serves jobs, redialling with
// capped exponential backoff + jitter when the connection ends — a
// worker that crashes mid-job (or loses the network) rejoins the fleet
// and picks up leases of the still-running job. The consecutive-
// failure streak resets on every successful dial, so a live
// coordinator is rejoined after roughly InitialBackoff. Returns nil
// after a graceful drain (opts.Drain closed); otherwise returns the
// last serve or dial error once rc.Attempts reconnects are exhausted.
func ServeLoop(addr string, handlers map[string]Handler, opts *ServeOptions, rc ReconnectOptions) error {
	seed := uint64(rc.Seed)
	if seed == 0 {
		for _, b := range []byte(addr) {
			seed = seed*131 + uint64(b)
		}
	}
	rnd := splitmix64(seed)
	var lastErr error
	streak := 0
	for attempt := 0; ; attempt++ {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			lastErr = err
			streak++
		} else {
			streak = 0
			lastErr = ServeConn(conn, handlers, opts)
			conn.Close()
		}
		if opts != nil && opts.Drain != nil {
			select {
			case <-opts.Drain:
				return nil
			default:
			}
		}
		if attempt >= rc.Attempts {
			return lastErr
		}
		rnd = splitmix64(rnd)
		time.Sleep(reconnectDelay(rc, streak, rnd))
	}
}
