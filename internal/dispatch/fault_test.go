package dispatch

import (
	"net"
	"strings"
	"sync"
	"testing"
	"time"
)

// serialBest runs the scoreJob argmin serially — the oracle every
// fault-recovery path must reproduce bit-identically.
func serialBest(max, patience int) (bestAt, executed int) {
	consume, best, exec := argminConsume(patience)
	f := func(i int) float64 { return float64((i*31 + 7) % 23) }
	for i := 0; i < max; i++ {
		if consume(i, WireItem{Score: f(i)}) {
			break
		}
	}
	bestAt, _ = best()
	return bestAt, exec()
}

// TestHeartbeatKeepsSlowWorkerAlive: a worker whose items take far
// longer than the hub's heartbeat timeout must survive as long as its
// pings flow — and must be revoked when they don't.
func TestHeartbeatKeepsSlowWorkerAlive(t *testing.T) {
	wantAt, wantExec := serialBest(3, 0)

	// Pinging: the job completes with zero revocations.
	h := NewHub()
	h.HeartbeatTimeout = 100 * time.Millisecond
	startWorkers(t, h, 1, slowHandlers(-1, 250*time.Millisecond), &ServeOptions{HeartbeatInterval: 20 * time.Millisecond})
	at, exec, _ := runScoreJob(t, h, 3, 1, 0)
	if at != wantAt || exec != wantExec {
		t.Fatalf("slow pinging worker: (best=%d exec=%d), want (%d %d)", at, exec, wantAt, wantExec)
	}
	if s := h.Stats(); s.Revocations != 0 {
		t.Fatalf("revocations = %d for a live, pinging worker", s.Revocations)
	}
	h.Close()

	// Silent: same worker with heartbeats disabled is revoked, and
	// with no survivors the job fails loudly.
	h = NewHub()
	h.HeartbeatTimeout = 100 * time.Millisecond
	startWorkers(t, h, 1, slowHandlers(-1, 250*time.Millisecond), &ServeOptions{HeartbeatInterval: -1})
	q := NewQueue(3, 1, func(int, WireItem) bool { return false })
	_, err := h.RunJob("score", nil, q)
	if err == nil {
		t.Fatal("silent slow worker completed a job inside the heartbeat deadline")
	}
	if s := h.Stats(); s.Revocations == 0 {
		t.Fatal("no revocation recorded for a silent worker")
	}
	h.Close()
}

// TestSilentWorkerRevokedAndReleased: a worker that goes completely
// silent mid-lease is revoked on the heartbeat deadline and its span
// re-leased to a survivor; results stay bit-identical to serial.
func TestSilentWorkerRevokedAndReleased(t *testing.T) {
	const max = 40
	wantAt, wantExec := serialBest(max, 0)
	h := NewHub()
	h.HeartbeatTimeout = 80 * time.Millisecond
	startWorkers(t, h, 1, slowHandlers(-1, time.Millisecond), nil)
	startWorkers(t, h, 1, testHandlers(-1), &ServeOptions{
		Chaos: &ChaosConfig{StallOnLease: 1, StallFor: 400 * time.Millisecond},
	})
	at, exec, _ := runScoreJob(t, h, max, 4, 0)
	if at != wantAt || exec != wantExec {
		t.Fatalf("after silent stall: (best=%d exec=%d), want (%d %d)", at, exec, wantAt, wantExec)
	}
	s := h.Stats()
	if s.Revocations == 0 || s.Releases == 0 {
		t.Fatalf("stats = %+v, want revocations and releases recorded", s)
	}
	if h.Workers() != 1 {
		t.Fatalf("%d workers pooled after revocation, want 1", h.Workers())
	}
	h.Close()
}

// TestStalledProgressRevoked: a worker that keeps pinging but never
// finishes an item trips the lease progress deadline instead.
func TestStalledProgressRevoked(t *testing.T) {
	const max = 40
	wantAt, wantExec := serialBest(max, 0)
	h := NewHub()
	h.HeartbeatTimeout = -1 // liveness alone would never fire
	h.LeaseTimeout = 100 * time.Millisecond
	startWorkers(t, h, 1, slowHandlers(-1, time.Millisecond), nil)
	startWorkers(t, h, 1, testHandlers(-1), &ServeOptions{
		HeartbeatInterval: 20 * time.Millisecond,
		Chaos:             &ChaosConfig{StallOnLease: 1, StallFor: 500 * time.Millisecond, StallHeartbeats: true},
	})
	at, exec, _ := runScoreJob(t, h, max, 4, 0)
	if at != wantAt || exec != wantExec {
		t.Fatalf("after progress stall: (best=%d exec=%d), want (%d %d)", at, exec, wantAt, wantExec)
	}
	if s := h.Stats(); s.Revocations == 0 {
		t.Fatalf("stats = %+v, want a progress revocation", s)
	}
	h.Close()
}

// TestJobDeadlineListsOutstandingLeases: a job whose only worker
// stalls on its lease fails on the hub's JobDeadline with an error
// that names the lease spans still outstanding.
func TestJobDeadlineListsOutstandingLeases(t *testing.T) {
	h := NewHub()
	h.HeartbeatTimeout = -1 // isolate the job-level deadline
	h.JobDeadline = 120 * time.Millisecond
	startWorkers(t, h, 1, testHandlers(-1), &ServeOptions{
		Chaos: &ChaosConfig{StallOnLease: 1, StallFor: 600 * time.Millisecond},
	})
	q := NewQueue(50, 4, func(int, WireItem) bool { return false })
	start := time.Now()
	_, err := h.RunJob("score", nil, q)
	if err == nil {
		t.Fatal("stalled job beat its deadline")
	}
	if elapsed := time.Since(start); elapsed > 500*time.Millisecond {
		t.Fatalf("deadline took %s to fire", elapsed)
	}
	msg := err.Error()
	if !strings.Contains(msg, "exceeded deadline") || !strings.Contains(msg, "outstanding leases") {
		t.Fatalf("deadline error %q does not describe the outstanding work", msg)
	}
	h.Close()
}

// TestCorruptFrameQuarantinesWorker: a corrupted gob frame gets that
// worker (and only that worker) disconnected with a peer+lease
// diagnostic, its lease re-granted, and the job completed by the
// survivors.
func TestCorruptFrameQuarantinesWorker(t *testing.T) {
	const max = 40
	wantAt, wantExec := serialBest(max, 0)
	h := NewHub()
	startWorkers(t, h, 1, slowHandlers(-1, time.Millisecond), nil)
	startWorkers(t, h, 1, testHandlers(-1), &ServeOptions{
		Chaos: &ChaosConfig{Seed: 7, CorruptOnLease: 1},
	})
	at, exec, _ := runScoreJob(t, h, max, 4, 0)
	if at != wantAt || exec != wantExec {
		t.Fatalf("after corrupt frame: (best=%d exec=%d), want (%d %d)", at, exec, wantAt, wantExec)
	}
	s := h.Stats()
	if s.DecodeFaults == 0 {
		t.Fatalf("stats = %+v, want a decode fault", s)
	}
	if h.Workers() != 1 {
		t.Fatalf("%d workers pooled after quarantine, want 1", h.Workers())
	}
	h.Close()

	// With no survivors the wrapped diagnostic surfaces: it must name
	// the lease span (the peer of a net.Pipe is just "pipe").
	h = NewHub()
	startWorkers(t, h, 1, testHandlers(-1), &ServeOptions{
		Chaos: &ChaosConfig{Seed: 7, CorruptOnLease: 1},
	})
	q := NewQueue(10, 4, func(int, WireItem) bool { return false })
	_, err := h.RunJob("score", nil, q)
	if err == nil {
		t.Fatal("corrupt-only fleet completed the job")
	}
	if msg := err.Error(); !strings.Contains(msg, "corrupt frame") || !strings.Contains(msg, "lease") || !strings.Contains(msg, "worker") {
		t.Fatalf("corrupt-frame error %q lacks peer/lease context", msg)
	}
	h.Close()
}

// TestPartialWriteRecovered: a worker that truncates its results frame
// mid-write is dropped and its lease reproduced by a survivor.
func TestPartialWriteRecovered(t *testing.T) {
	const max = 40
	wantAt, wantExec := serialBest(max, 0)
	h := NewHub()
	startWorkers(t, h, 1, slowHandlers(-1, time.Millisecond), nil)
	startWorkers(t, h, 1, testHandlers(-1), &ServeOptions{
		Chaos: &ChaosConfig{PartialOnLease: 1},
	})
	at, exec, _ := runScoreJob(t, h, max, 4, 0)
	if at != wantAt || exec != wantExec {
		t.Fatalf("after truncated write: (best=%d exec=%d), want (%d %d)", at, exec, wantAt, wantExec)
	}
	if s := h.Stats(); s.Releases == 0 {
		t.Fatalf("stats = %+v, want the truncated lease released", s)
	}
	h.Close()
}

// TestWorkerDrainReturnsLease: a worker whose Drain channel closes
// mid-lease ships the items it finished, hands the remainder back, and
// exits cleanly; the job completes on the survivor with
// serial-identical results.
func TestWorkerDrainReturnsLease(t *testing.T) {
	const max = 120
	wantAt, wantExec := serialBest(max, 0)
	h := NewHub()

	// The draining worker joins alone, so it holds the job's first
	// lease; the survivor joins once that lease is running. Otherwise
	// the fast survivor can finish the whole job before the drain, and
	// the drained worker leaves idle instead of mid-lease.
	started := make(chan struct{})
	var once sync.Once
	slow := map[string]Handler{"score": func(spec, warm []byte) (JobRunner, error) {
		return &scoreJob{f: func(i int) float64 {
			once.Do(func() { close(started) })
			return float64((i*31 + 7) % 23)
		}, fail: -1, delay: 3 * time.Millisecond}, nil
	}}
	drain := make(chan struct{})
	server, client := net.Pipe()
	h.AddConn(server)
	served := make(chan error, 1)
	go func() {
		served <- ServeConn(client, slow, &ServeOptions{Drain: drain})
	}()

	errc := make(chan error, 1)
	var at, exec int
	go func() {
		consume, best, executed := argminConsume(0)
		q := NewQueue(max, 10, consume)
		_, err := h.RunJob("score", nil, q)
		a, _ := best()
		at, exec = a, executed()
		errc <- err
	}()
	<-started
	startWorkers(t, h, 1, testHandlers(-1), nil)
	close(drain)
	if err := <-errc; err != nil {
		t.Fatalf("job failed after worker drain: %v", err)
	}
	if at != wantAt || exec != wantExec {
		t.Fatalf("after worker drain: (best=%d exec=%d), want (%d %d)", at, exec, wantAt, wantExec)
	}
	select {
	case err := <-served:
		if err != nil {
			t.Fatalf("drained worker returned %v, want nil", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("drained worker did not exit")
	}
	if h.Workers() != 1 {
		t.Fatalf("%d workers pooled, want 1 (drained worker left)", h.Workers())
	}
	h.Close()
}

// TestReconnectRejoinsMidJob: a ServeLoop worker that crashes mid-job
// redials with backoff and is admitted into the still-running job;
// results stay serial-identical and the reconnect is counted.
func TestReconnectRejoinsMidJob(t *testing.T) {
	const max = 80
	wantAt, wantExec := serialBest(max, 0)
	h := NewHub()
	addr, err := h.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	go ServeLoop(addr.String(), testHandlers(-1), &ServeOptions{
		Chaos: &ChaosConfig{CrashOnLease: 2},
	}, ReconnectOptions{Attempts: 20, InitialBackoff: 5 * time.Millisecond, MaxBackoff: 20 * time.Millisecond, Seed: 1})
	if err := h.WaitWorkers(1, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	startWorkers(t, h, 1, slowHandlers(-1, 2*time.Millisecond), nil)
	at, exec, _ := runScoreJob(t, h, max, 2, 0)
	if at != wantAt || exec != wantExec {
		t.Fatalf("after crash+reconnect: (best=%d exec=%d), want (%d %d)", at, exec, wantAt, wantExec)
	}
	s := h.Stats()
	if s.Reconnects == 0 {
		t.Fatalf("stats = %+v, want the redial counted as a reconnect", s)
	}
	if s.Disconnects == 0 && s.Releases == 0 {
		t.Fatalf("stats = %+v, want the crash recorded", s)
	}
}

// TestRejoinGraceOutlivesEmptyFleet: with RejoinGrace set, a job whose
// only worker dies survives the empty-fleet window until the worker's
// reconnect, instead of failing immediately.
func TestRejoinGraceOutlivesEmptyFleet(t *testing.T) {
	const max = 30
	wantAt, wantExec := serialBest(max, 0)
	h := NewHub()
	h.RejoinGrace = 2 * time.Second
	addr, err := h.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	go ServeLoop(addr.String(), testHandlers(-1), &ServeOptions{
		Chaos: &ChaosConfig{CrashOnLease: 2},
	}, ReconnectOptions{Attempts: 20, InitialBackoff: 10 * time.Millisecond, MaxBackoff: 40 * time.Millisecond, Seed: 2})
	if err := h.WaitWorkers(1, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	at, exec, _ := runScoreJob(t, h, max, 4, 0)
	if at != wantAt || exec != wantExec {
		t.Fatalf("after sole-worker crash+rejoin: (best=%d exec=%d), want (%d %d)", at, exec, wantAt, wantExec)
	}
	if s := h.Stats(); s.Reconnects == 0 {
		t.Fatalf("stats = %+v, want a reconnect", s)
	}
}

// TestReconnectDelayBackoff pins the backoff curve: capped exponential
// with jitter in [d/2, d).
func TestReconnectDelayBackoff(t *testing.T) {
	rc := ReconnectOptions{InitialBackoff: 100 * time.Millisecond, MaxBackoff: time.Second}
	for streak := 0; streak < 12; streak++ {
		nominal := 100 * time.Millisecond
		for i := 0; i < streak && nominal < time.Second; i++ {
			nominal *= 2
		}
		if nominal > time.Second {
			nominal = time.Second
		}
		for _, rnd := range []uint64{0, 12345, ^uint64(0)} {
			d := reconnectDelay(rc, streak, rnd)
			if d < nominal/2 || d >= nominal+1 {
				t.Fatalf("streak %d rnd %d: delay %s outside [%s, %s]", streak, rnd, d, nominal/2, nominal)
			}
		}
	}
	if d := reconnectDelay(rc, 100, 7); d >= time.Second+1 {
		t.Fatalf("huge streak delay %s exceeds the cap", d)
	}
}

// TestServeLoopZeroAttemptsServesOneConnection pins ServeLoop's
// single-connection form (zero ReconnectOptions, as `miraged worker`
// runs without -reconnect): a failed dial returns its error at once and
// a served connection ends the loop when the hub closes it, with no
// backoff sleep either way. The hour-long backoff makes any sleep
// time the test out.
func TestServeLoopZeroAttemptsServesOneConnection(t *testing.T) {
	rc := ReconnectOptions{InitialBackoff: time.Hour}
	serve := func(addr string) chan error {
		done := make(chan error, 1)
		go func() { done <- ServeLoop(addr, testHandlers(-1), nil, rc) }()
		return done
	}
	wait := func(what string, done chan error) error {
		select {
		case err := <-done:
			return err
		case <-time.After(5 * time.Second):
			t.Fatalf("ServeLoop did not return after %s", what)
			return nil
		}
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	closed := ln.Addr().String()
	ln.Close()
	if err := wait("a refused dial", serve(closed)); err == nil {
		t.Fatal("ServeLoop against a closed listener returned nil, want the dial error")
	}

	h := NewHub()
	addr, err := h.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := serve(addr.String())
	if err := h.WaitWorkers(1, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	wantAt, wantExec := serialBest(20, 0)
	if at, exec, _ := runScoreJob(t, h, 20, 3, 0); at != wantAt || exec != wantExec {
		t.Fatalf("(best=%d exec=%d), want (%d %d)", at, exec, wantAt, wantExec)
	}
	h.Close()
	if err := wait("the hub closed", done); err != nil {
		t.Fatalf("ServeLoop after the hub closed returned %v, want nil", err)
	}
}
