package dispatch

import (
	"encoding/binary"
	"errors"
	"net"
	"strings"
	"testing"
	"time"
)

// TestQueueDeliverAndDoneSkippingLeases: a queue reconstructed from a
// journal replay (arbitrary done-set) grants leases only over the
// unfinished remainder, clipped at done indices.
func TestQueueDeliverAndDoneSkippingLeases(t *testing.T) {
	exec := 0
	q := NewQueue(10, 4, func(i int, v float64) bool { exec++; return false })
	q.Deliver([]Completed[float64]{{Index: 0}, {Index: 1}, {Index: 2}, {Index: 3}, {Index: 6}})
	if exec != 4 {
		t.Fatalf("consumed %d after replay, want the dense prefix 0..3", exec)
	}
	l1, ok := q.Lease()
	if !ok || l1.Lo != 4 || l1.Hi != 6 {
		t.Fatalf("first lease = [%d,%d) ok=%v, want [4,6)", l1.Lo, l1.Hi, ok)
	}
	l2, ok := q.Lease()
	if !ok || l2.Lo != 7 || l2.Hi != 10 {
		t.Fatalf("second lease = [%d,%d) ok=%v, want [7,10)", l2.Lo, l2.Hi, ok)
	}
	if _, ok := q.Lease(); ok {
		t.Fatal("third lease granted beyond max")
	}
	q.Complete(l1.ID, []Completed[float64]{{Index: 4}, {Index: 5}})
	q.Complete(l2.ID, []Completed[float64]{{Index: 7}, {Index: 8}, {Index: 9}})
	if !q.Finished() || exec != 10 {
		t.Fatalf("finished=%v exec=%d, want the whole range consumed", q.Finished(), exec)
	}
}

// journaledScoreRun runs one score job against a hub configured with a
// journal at dir (and optional hub chaos), returning the argmin
// outcome and error.
func journaledScoreRun(t *testing.T, dir string, workers, max, lease, patience int, chaos *ChaosConfig) (at, exec int, eps [][]byte, stats FleetStats, err error) {
	t.Helper()
	jd, jerr := OpenJournalDir(dir)
	if jerr != nil {
		t.Fatal(jerr)
	}
	h := NewHub()
	h.Journal = jd
	h.Chaos = chaos
	h.Logf = t.Logf
	defer h.Close()
	startWorkers(t, h, workers, testHandlers(-1), nil)
	consume, best, executed := argminConsume(patience)
	q := NewQueue(max, lease, consume)
	eps, err = h.RunJob("score", []byte("spec"), q)
	a, _ := best()
	return a, executed(), eps, h.Stats(), err
}

// TestJournalRecoveryResumesMidJob is the in-process kill-and-restart
// proof: the chaos injection crashes the coordinator while journaling
// a result batch (leaving a torn final frame), and a second hub opened
// on the same journal directory truncates the tear, replays the banked
// prefix, re-grants only the remainder, and finishes with results
// bit-identical to serial.
func TestJournalRecoveryResumesMidJob(t *testing.T) {
	const max, lease = 60, 4
	wantAt, wantExec := serialBest(max, 0)
	dir := t.TempDir()

	_, _, _, _, err := journaledScoreRun(t, dir, 2, max, lease, 0, &ChaosConfig{CrashOnResultBatch: 3})
	if !errors.Is(err, ErrSimulatedCrash) {
		t.Fatalf("first run err = %v, want the simulated coordinator crash", err)
	}

	jd, err := OpenJournalDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if jd.TruncatedFrames() != 1 {
		t.Fatalf("restart scan truncated %d frames, want exactly the torn one", jd.TruncatedFrames())
	}
	if jd.Recovered() != 1 {
		t.Fatalf("restart scan recovered %d jobs, want 1", jd.Recovered())
	}

	at, exec, eps, stats, err := journaledScoreRun(t, dir, 2, max, lease, 0, nil)
	if err != nil {
		t.Fatalf("resumed run failed: %v", err)
	}
	if at != wantAt || exec != wantExec {
		t.Fatalf("resumed run: (best=%d exec=%d), serial (%d %d)", at, exec, wantAt, wantExec)
	}
	if stats.Recovered != 1 {
		t.Fatalf("stats = %+v, want the recovery counted", stats)
	}
	// The workers of the resumed run must have executed strictly less
	// than the whole range: at least the two banked batches replayed
	// from the journal.
	var reran uint64
	for _, ep := range eps {
		reran += binary.LittleEndian.Uint64(ep)
	}
	if reran > uint64(max)-2*lease {
		t.Fatalf("resumed workers re-executed %d of %d items; journal replay banked nothing", reran, max)
	}
}

// TestJournalReplayCompletesWithoutWorkers: a journal holding a
// completed job replays to the same answer with zero workers connected
// — the strongest form of the recovery contract.
func TestJournalReplayCompletesWithoutWorkers(t *testing.T) {
	const max, lease = 40, 5
	wantAt, wantExec := serialBest(max, 0)
	dir := t.TempDir()

	at, exec, _, _, err := journaledScoreRun(t, dir, 2, max, lease, 0, nil)
	if err != nil || at != wantAt || exec != wantExec {
		t.Fatalf("seed run: best=%d exec=%d err=%v", at, exec, err)
	}

	at, exec, eps, stats, err := journaledScoreRun(t, dir, 0, max, lease, 0, nil)
	if err != nil {
		t.Fatalf("workerless replay failed: %v", err)
	}
	if at != wantAt || exec != wantExec {
		t.Fatalf("workerless replay: (best=%d exec=%d), serial (%d %d)", at, exec, wantAt, wantExec)
	}
	if len(eps) != 0 {
		t.Fatalf("replay produced %d epilogues, want none", len(eps))
	}
	if stats.Recovered != 1 {
		t.Fatalf("stats = %+v, want the replay counted as recovered", stats)
	}
}

// poisonRunner severs its worker's connection when asked to run the
// poison index — the work item that "crashes" whoever executes it.
type poisonRunner struct {
	conn   net.Conn
	poison int
}

func (r *poisonRunner) Run(i int) WireItem {
	if i == r.poison {
		r.conn.Close()
		return WireItem{Index: i}
	}
	return WireItem{Index: i, Score: float64((i*31 + 7) % 23)}
}

func (r *poisonRunner) Epilogue() []byte { return nil }

// startPoisonWorkers wires n workers whose runner kills its own
// connection on the poison index.
func startPoisonWorkers(t *testing.T, h *Hub, n, poison int) {
	t.Helper()
	for w := 0; w < n; w++ {
		server, client := net.Pipe()
		handlers := map[string]Handler{
			"score": func(spec, warm []byte) (JobRunner, error) {
				return &poisonRunner{conn: client, poison: poison}, nil
			},
		}
		h.AddConn(server)
		go ServeConn(client, handlers, nil)
	}
}

// TestPoisonItemQuarantinedAndCompletedLocally is the acceptance
// scenario: an item that crashes K=3 distinct workers is quarantined,
// executed locally on the hub via LocalHandlers, and the job completes
// with serial-identical results — without failing.
func TestPoisonItemQuarantinedAndCompletedLocally(t *testing.T) {
	const max, poison = 30, 5
	wantAt, wantExec := serialBest(max, 0)
	h := NewHub()
	h.LocalHandlers = testHandlers(-1)
	h.Logf = t.Logf
	defer h.Close()
	startPoisonWorkers(t, h, 4, poison)

	at, exec, _ := runScoreJob(t, h, max, 1, 0)
	if at != wantAt || exec != wantExec {
		t.Fatalf("after quarantine: (best=%d exec=%d), serial (%d %d)", at, exec, wantAt, wantExec)
	}
	s := h.Stats()
	if s.Poisoned < 1 {
		t.Fatalf("stats = %+v, want poisoned >= 1", s)
	}
	if s.LocalItems < 1 {
		t.Fatalf("stats = %+v, want the quarantined item executed locally", s)
	}
	if s.Disconnects < 3 {
		t.Fatalf("stats = %+v, want the three crashed workers counted", s)
	}
}

// TestPoisonItemLocalFailureCarriesContext: when the quarantined item
// fails locally too, the job error names the item and its crash
// history.
func TestPoisonItemLocalFailureCarriesContext(t *testing.T) {
	const max, poison = 20, 5
	h := NewHub()
	// The local handler also fails item 5, so quarantine cannot save it.
	h.LocalHandlers = testHandlers(poison)
	h.Logf = t.Logf
	defer h.Close()
	startPoisonWorkers(t, h, 4, poison)

	q := NewQueue(max, 1, func(int, WireItem) bool { return false })
	_, err := h.RunJob("score", nil, q)
	if err == nil {
		t.Fatal("job succeeded though the poison item fails everywhere")
	}
	msg := err.Error()
	if !strings.Contains(msg, "quarantined") || !strings.Contains(msg, "local execution also failed") {
		t.Fatalf("poison failure error %q lacks quarantine context", msg)
	}
}

// TestDegradedModeFinishesLocally: with LocalHandlers set, a job
// submitted to a workerless hub completes on the coordinator — logged,
// counted, serial-identical — instead of failing.
func TestDegradedModeFinishesLocally(t *testing.T) {
	const max = 25
	wantAt, wantExec := serialBest(max, 0)
	h := NewHub()
	h.LocalHandlers = testHandlers(-1)
	h.Logf = t.Logf
	defer h.Close()

	at, exec, _ := runScoreJob(t, h, max, 4, 0)
	if at != wantAt || exec != wantExec {
		t.Fatalf("degraded run: (best=%d exec=%d), serial (%d %d)", at, exec, wantAt, wantExec)
	}
	s := h.Stats()
	if s.Degraded != 1 {
		t.Fatalf("stats = %+v, want one degraded-mode entry", s)
	}
	if s.LocalItems != max {
		t.Fatalf("stats = %+v, want all %d items executed locally", s, max)
	}
}

// TestDegradedModeAfterFleetEmpties: a fleet that dies mid-job (no
// RejoinGrace) degrades to local execution for the remainder instead
// of failing the job.
func TestDegradedModeAfterFleetEmpties(t *testing.T) {
	const max = 40
	wantAt, wantExec := serialBest(max, 0)
	h := NewHub()
	h.LocalHandlers = testHandlers(-1)
	h.Logf = t.Logf
	defer h.Close()
	// Lease ordinals are counted per ChaosConfig, so each worker gets
	// its own to die on its own first lease.
	for w := 0; w < 2; w++ {
		startWorkers(t, h, 1, testHandlers(-1), &ServeOptions{Chaos: &ChaosConfig{CrashOnLease: 1}})
	}

	at, exec, _ := runScoreJob(t, h, max, 4, 0)
	if at != wantAt || exec != wantExec {
		t.Fatalf("after fleet death: (best=%d exec=%d), serial (%d %d)", at, exec, wantAt, wantExec)
	}
	s := h.Stats()
	if s.Degraded < 1 {
		t.Fatalf("stats = %+v, want degraded mode entered", s)
	}
	if s.LocalItems == 0 {
		t.Fatalf("stats = %+v, want locally executed items", s)
	}
}

// TestErrBusyCarriesLimitsAndCounts pins the satellite: the rejection
// error names the queue occupancy and the MaxQueuedJobs limit, and the
// rejection is counted in FleetStats.
func TestErrBusyCarriesLimitsAndCounts(t *testing.T) {
	h := NewHub()
	h.MaxQueuedJobs = 1
	defer h.Close()
	startWorkers(t, h, 1, slowHandlers(-1, 5*time.Millisecond), nil)
	launch := func(max int) chan error {
		c := make(chan error, 1)
		go func() {
			q := NewQueue(max, 4, func(int, WireItem) bool { return false })
			_, err := h.RunJob("score", nil, q)
			c <- err
		}()
		return c
	}
	first := launch(100)
	time.Sleep(20 * time.Millisecond)
	second := launch(10)
	time.Sleep(20 * time.Millisecond)
	third := launch(10)
	err := <-third
	if !errors.Is(err, ErrBusy) {
		t.Fatalf("third job returned %v, want ErrBusy", err)
	}
	msg := err.Error()
	if !strings.Contains(msg, "1 of 1") || !strings.Contains(msg, "MaxQueuedJobs") {
		t.Fatalf("busy error %q does not carry occupancy and limit", msg)
	}
	if s := h.Stats(); s.Rejected != 1 {
		t.Fatalf("stats = %+v, want the rejection counted", s)
	}
	if err := <-first; err != nil {
		t.Fatalf("first job: %v", err)
	}
	if err := <-second; err != nil {
		t.Fatalf("second job: %v", err)
	}
}
