package dispatch

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"
)

// scoreJob is a deterministic test job: Run(i) scores f(i), the
// epilogue reports how many items this worker ran.
type scoreJob struct {
	f     func(i int) float64
	fail  int           // Run returns an item error at this index (-1 = never)
	delay time.Duration // per-item think time (scheduling-shape control)
	ran   int
}

func (j *scoreJob) Run(i int) WireItem {
	j.ran++
	if j.delay > 0 {
		time.Sleep(j.delay)
	}
	if i == j.fail {
		return WireItem{Index: i, Err: fmt.Sprintf("item %d failed", i)}
	}
	return WireItem{Index: i, Score: j.f(i)}
}

func (j *scoreJob) Epilogue() []byte {
	b := make([]byte, 8)
	binary.LittleEndian.PutUint64(b, uint64(j.ran))
	return b
}

func testHandlers(fail int) map[string]Handler { return slowHandlers(fail, 0) }

func slowHandlers(fail int, delay time.Duration) map[string]Handler {
	return map[string]Handler{
		"score": func(spec, warm []byte) (JobRunner, error) {
			if string(spec) == "decline" {
				return nil, errors.New("declined by spec")
			}
			return &scoreJob{f: func(i int) float64 { return float64((i*31 + 7) % 23) }, fail: fail, delay: delay}, nil
		},
	}
}

// startWorkers wires n in-process workers to the hub over pipes.
func startWorkers(t *testing.T, h *Hub, n int, handlers map[string]Handler, opts *ServeOptions) {
	t.Helper()
	for w := 0; w < n; w++ {
		server, client := net.Pipe()
		h.AddConn(server)
		go ServeConn(client, handlers, opts)
	}
}

// argminConsume returns the consume func of an online argmin with
// optional patience, plus accessors — the trial-selector shape.
func argminConsume(patience int) (consume func(i int, wi WireItem) bool, best func() (int, float64), executed func() int) {
	bestAt, bestScore, exec, since := -1, 0.0, 0, 0
	consume = func(i int, wi WireItem) bool {
		v := wi.Score
		exec++
		if bestAt < 0 || v < bestScore {
			bestAt, bestScore, since = i, v, 0
			return false
		}
		since++
		return patience > 0 && since >= patience
	}
	best = func() (int, float64) { return bestAt, bestScore }
	executed = func() int { return exec }
	return
}

func runScoreJob(t *testing.T, h *Hub, max, lease, patience int) (bestAt, executed int, epilogues [][]byte) {
	t.Helper()
	consume, best, exec := argminConsume(patience)
	q := NewQueue(max, lease, consume)
	eps, err := h.RunJob("score", nil, q)
	if err != nil {
		t.Fatal(err)
	}
	at, _ := best()
	return at, exec(), eps
}

func TestRunJobMatchesSerialAcrossWorkersAndLeases(t *testing.T) {
	const max = 83
	for _, patience := range []int{0, 4} {
		consume, best, exec := argminConsume(patience)
		f := func(i int) float64 { return float64((i*31 + 7) % 23) }
		for i := 0; i < max; i++ {
			if consume(i, WireItem{Score: f(i)}) {
				break
			}
		}
		wantAt, _ := best()
		wantExec := exec()
		for _, workers := range []int{1, 2, 5} {
			for _, lease := range []int{1, 4, 32} {
				h := NewHub()
				startWorkers(t, h, workers, testHandlers(-1), nil)
				at, executed, eps := runScoreJob(t, h, max, lease, patience)
				h.Close()
				if at != wantAt || executed != wantExec {
					t.Fatalf("workers=%d lease=%d patience=%d: (best=%d exec=%d), serial (%d %d)",
						workers, lease, patience, at, executed, wantAt, wantExec)
				}
				if len(eps) != workers {
					t.Fatalf("workers=%d: %d epilogues", workers, len(eps))
				}
			}
		}
	}
}

// TestRunJobWorkerDeathMidLease is the re-lease contract: a worker
// that dies after taking a lease must not change the outcome — its
// range is granted to a survivor which reproduces the same results.
func TestRunJobWorkerDeathMidLease(t *testing.T) {
	const max = 60
	for _, patience := range []int{0, 5} {
		// Reference: healthy 2-worker run.
		h := NewHub()
		startWorkers(t, h, 2, testHandlers(-1), nil)
		wantAt, wantExec, _ := runScoreJob(t, h, max, 4, patience)
		h.Close()

		// One healthy-but-slow worker plus a fast one that dies on its
		// second lease: the slow survivor guarantees the flaky worker
		// reaches its death lease before the queue drains, so the
		// re-lease path is exercised every run.
		h = NewHub()
		startWorkers(t, h, 1, slowHandlers(-1, 2*time.Millisecond), nil)
		startWorkers(t, h, 1, testHandlers(-1), &ServeOptions{Chaos: &ChaosConfig{CrashOnLease: 2}})
		at, exec, eps := runScoreJob(t, h, max, 4, patience)
		if at != wantAt || exec != wantExec {
			t.Fatalf("patience=%d: after worker death (best=%d exec=%d), want (%d %d)",
				patience, at, exec, wantAt, wantExec)
		}
		// The dead worker was dropped: only the survivor reports an
		// epilogue and remains pooled.
		if len(eps) != 1 {
			t.Fatalf("%d epilogues after death, want 1", len(eps))
		}
		if h.Workers() != 1 {
			t.Fatalf("%d workers pooled after death, want 1", h.Workers())
		}
		h.Close()
	}
}

func TestRunJobAllWorkersDead(t *testing.T) {
	h := NewHub()
	for w := 0; w < 2; w++ { // one ChaosConfig each: both die on their first lease
		startWorkers(t, h, 1, testHandlers(-1), &ServeOptions{Chaos: &ChaosConfig{CrashOnLease: 1}})
	}
	q := NewQueue(50, 1, func(int, WireItem) bool { return false })
	_, err := h.RunJob("score", nil, q)
	if err == nil {
		t.Fatal("job completed with every worker dead")
	}
	h.Close()
}

func TestRunJobDeclinedWorkersSitOut(t *testing.T) {
	h := NewHub()
	startWorkers(t, h, 2, testHandlers(-1), nil)
	// This worker's handler declines the "decline" spec but the others
	// accept any spec, so route the decline through a spec value.
	consume, best, _ := argminConsume(0)
	q := NewQueue(20, 2, consume)
	eps, err := h.RunJob("score", []byte("decline"), q)
	if err == nil {
		t.Fatal("all workers declined but job reported success")
	}
	_ = eps
	if at, _ := best(); at != -1 {
		t.Fatalf("declined job consumed results (best=%d)", at)
	}
	h.Close()
}

func TestRunJobItemErrorStopsDeterministically(t *testing.T) {
	h := NewHub()
	startWorkers(t, h, 3, testHandlers(9), nil)
	exec := 0
	q := NewQueue(40, 2, func(i int, v WireItem) bool { exec++; return false })
	_, err := h.RunJob("score", nil, q)
	if err == nil || !strings.Contains(err.Error(), "item 9 failed") {
		t.Fatalf("err = %v, want item 9 failure", err)
	}
	if exec != 9 {
		t.Fatalf("consumed %d items before the failure, want 9", exec)
	}
	h.Close()
}

func TestRunJobUnknownKindFailsLoudly(t *testing.T) {
	h := NewHub()
	startWorkers(t, h, 1, testHandlers(-1), nil)
	q := NewQueue(5, 1, func(int, WireItem) bool { return false })
	_, err := h.RunJob("no-such-kind", nil, q)
	if err == nil {
		t.Fatal("unknown job kind succeeded")
	}
	h.Close()
}

func TestRunJobNoWorkers(t *testing.T) {
	h := NewHub()
	q := NewQueue(5, 1, func(int, WireItem) bool { return false })
	if _, err := h.RunJob("score", nil, q); err == nil {
		t.Fatal("RunJob with no workers succeeded")
	}
}

// TestHubOverLoopbackTCP runs the real thing end to end: Listen,
// ServeAddr workers, sequential jobs on one set of connections.
func TestHubOverLoopbackTCP(t *testing.T) {
	h := NewHub()
	addr, err := h.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	for w := 0; w < 2; w++ {
		go ServeAddr(addr.String(), testHandlers(-1), nil)
	}
	if err := h.WaitWorkers(2, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	// Two sequential jobs over the same connections.
	for job := 0; job < 2; job++ {
		at, exec, eps := runScoreJob(t, h, 37, 3, 0)
		consume, best, wantExec := argminConsume(0)
		f := func(i int) float64 { return float64((i*31 + 7) % 23) }
		for i := 0; i < 37; i++ {
			if consume(i, WireItem{Score: f(i)}) {
				break
			}
		}
		wantAt, _ := best()
		if at != wantAt || exec != wantExec() {
			t.Fatalf("job %d: (best=%d exec=%d), want (%d %d)", job, at, exec, wantAt, wantExec())
		}
		var total uint64
		for _, ep := range eps {
			total += binary.LittleEndian.Uint64(ep)
		}
		if total < 37 {
			t.Fatalf("job %d: workers ran %d items, want >= 37", job, total)
		}
	}
}

func TestWaitWorkersTimeout(t *testing.T) {
	h := NewHub()
	if err := h.WaitWorkers(1, 30*time.Millisecond); err == nil {
		t.Fatal("WaitWorkers succeeded with no workers")
	}
}
