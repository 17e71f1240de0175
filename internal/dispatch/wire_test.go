package dispatch

// Tests of the wire protocol against hand-rolled peers: a coordinator
// that sends malformed leases, a worker that misnumbers its items, and
// fuzzed bytes in either direction.

import (
	"bytes"
	"encoding/gob"
	"errors"
	"io"
	"net"
	"strings"
	"testing"
	"time"
)

// TestWorkerRejectsMalformedLeases: a lease frame with a negative or
// inverted range ends the serve loop with an error, instead of running
// items outside any job or panicking on the range's length.
func TestWorkerRejectsMalformedLeases(t *testing.T) {
	for _, l := range []wireLease{{ID: 1, Lo: 5, Hi: 2}, {ID: 1, Lo: -1, Hi: 2}} {
		hub, worker := net.Pipe()
		served := make(chan error, 1)
		go func() { served <- ServeConn(worker, testHandlers(-1), &ServeOptions{HeartbeatInterval: -1}) }()
		enc, dec := gob.NewEncoder(hub), gob.NewDecoder(hub)
		var ready wireMsg
		if err := enc.Encode(wireJob{Kind: "score"}); err != nil {
			t.Fatal(err)
		}
		if err := dec.Decode(&ready); err != nil || ready.Kind != msgReady || ready.Err != "" {
			t.Fatalf("ready = %+v, %v", ready, err)
		}
		if err := enc.Encode(l); err != nil {
			t.Fatal(err)
		}
		if err := <-served; err == nil || !strings.Contains(err.Error(), "malformed lease") {
			t.Fatalf("lease [%d,%d): ServeConn returned %v, want a malformed-lease error", l.Lo, l.Hi, err)
		}
		hub.Close()
	}
}

// misnumberingWorker serves one job as a faulty worker would: it
// answers each lease with the score job's items, led by an item
// numbered just outside the lease whose score beats every real one, so
// consuming it moves the argmin.
func misnumberingWorker(conn net.Conn, max int) {
	defer conn.Close()
	enc, dec := gob.NewEncoder(conn), gob.NewDecoder(conn)
	var job wireJob
	if dec.Decode(&job) != nil || enc.Encode(wireMsg{Kind: msgReady}) != nil {
		return
	}
	for {
		var l wireLease
		if dec.Decode(&l) != nil {
			return
		}
		if l.Done {
			enc.Encode(wireMsg{Kind: msgEpilogue})
			return
		}
		stray := l.Hi
		if stray == max {
			stray = l.Lo - 1
		}
		items := append([]WireItem{{Index: stray, Score: -1}}, wireItems(l.Lo, l.Hi)...)
		if enc.Encode(wireMsg{Kind: msgResults, LeaseID: l.ID, Items: items}) != nil {
			return
		}
	}
}

// TestMisnumberedItemsNeverConsumed: an item a worker numbers outside
// its lease is dropped before it is journaled, so neither the live run
// nor a journal replay after a coordinator crash consumes it.
func TestMisnumberedItemsNeverConsumed(t *testing.T) {
	const max, lease = 40, 4
	wantAt, wantExec := serialBest(max, 0)
	run := func(dir string, chaos *ChaosConfig) (at, exec int, err error) {
		jd, err := OpenJournalDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		h := NewHub()
		h.Journal, h.Chaos, h.Logf = jd, chaos, t.Logf
		defer h.Close()
		hub, worker := net.Pipe()
		h.AddConn(hub)
		go misnumberingWorker(worker, max)
		consume, best, executed := argminConsume(0)
		_, err = h.RunJob("score", []byte("spec"), NewQueue(max, lease, consume))
		at, _ = best()
		return at, executed(), err
	}
	if at, exec, err := run(t.TempDir(), nil); err != nil || at != wantAt || exec != wantExec {
		t.Fatalf("live run: (best=%d exec=%d err=%v), serial (%d %d)", at, exec, err, wantAt, wantExec)
	}
	dir := t.TempDir()
	if _, _, err := run(dir, &ChaosConfig{CrashOnResultBatch: 3}); !errors.Is(err, ErrSimulatedCrash) {
		t.Fatalf("first run err = %v, want the simulated coordinator crash", err)
	}
	if at, exec, err := run(dir, nil); err != nil || at != wantAt || exec != wantExec {
		t.Fatalf("resumed run: (best=%d exec=%d err=%v), serial (%d %d)", at, exec, err, wantAt, wantExec)
	}
}

// tickingRunner calls tick before each item it runs.
type tickingRunner struct {
	JobRunner
	tick func()
}

func (r tickingRunner) Run(i int) WireItem {
	r.tick()
	return r.JobRunner.Run(i)
}

// FuzzServeConn: a worker reads whatever its coordinator sends, so any
// byte stream runs as jobs and leases or ends the serve loop, and
// never panics or hangs. The runner drains the worker after 64 items,
// which bounds a lease of any length.
func FuzzServeConn(f *testing.F) {
	for _, frames := range [][]any{
		{wireJob{Kind: "score"}, wireLease{ID: 1, Lo: 0, Hi: 3}, wireLease{ID: 2, Lo: 3, Hi: 4}, wireLease{Done: true}},
		{wireJob{Kind: "score", Spec: []byte("decline")}, wireJob{Kind: "no-such-kind"}},
		{wireJob{Kind: "score"}, wireLease{ID: 1, Lo: 5, Hi: 2}},
		{wireJob{Kind: "score"}, wireLease{ID: 1, Lo: -1, Hi: 2}},
		{wireJob{Kind: "score"}, wireLease{ID: 1, Lo: 0, Hi: 1 << 40}},
	} {
		var buf bytes.Buffer
		enc := gob.NewEncoder(&buf)
		for _, fr := range frames {
			if err := enc.Encode(fr); err != nil {
				f.Fatal(err)
			}
		}
		f.Add(buf.Bytes())
	}
	score := testHandlers(-1)["score"]
	f.Fuzz(func(t *testing.T, data []byte) {
		drain := make(chan struct{})
		ran := 0
		tick := func() {
			if ran++; ran == 64 {
				close(drain)
			}
		}
		handlers := map[string]Handler{"score": func(spec, warm []byte) (JobRunner, error) {
			r, err := score(spec, warm)
			if err != nil {
				return nil, err
			}
			return tickingRunner{r, tick}, nil
		}}
		hub, worker := net.Pipe()
		go io.Copy(io.Discard, hub)
		go func() {
			hub.Write(data)
			hub.Close()
		}()
		ServeConn(worker, handlers, &ServeOptions{HeartbeatInterval: -1, Drain: drain})
		worker.Close()
	})
}

// FuzzHubResults: a coordinator reads whatever a worker sends after a
// lease, so any byte stream ends in that worker's results, handback or
// quarantine, and never panics or hangs. The job finishes on an honest
// worker that joins once the fuzzed one holds its first lease: every
// item outside the fuzzed worker's leases is the honest one, and a
// failed job failed on an item error of a fuzzed lease.
func FuzzHubResults(f *testing.F) {
	const max, lease = 12, 4
	var buf bytes.Buffer
	enc := gob.NewEncoder(&buf)
	if err := enc.Encode(wireMsg{Kind: msgReady}); err != nil {
		f.Fatal(err)
	}
	ready := bytes.Clone(buf.Bytes())
	for _, msgs := range [][]wireMsg{
		{{Kind: msgHeartbeat, LeaseID: 1, Done: 2}, {Kind: msgResults, LeaseID: 1, Items: wireItems(0, lease)}},
		{{Kind: msgReturned, LeaseID: 1, Items: wireItems(0, 2)}},
		{{Kind: msgResults, LeaseID: 7, Items: wireItems(0, lease)}},
		{{Kind: msgResults, LeaseID: 1, Items: []WireItem{{Index: 9, Score: -1}, {Index: 1, Err: "boom"}}}},
		{{Kind: msgEpilogue}},
	} {
		buf.Truncate(len(ready))
		for _, m := range msgs {
			if err := enc.Encode(m); err != nil {
				f.Fatal(err)
			}
		}
		f.Add(bytes.Clone(buf.Bytes()[len(ready):]))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		h := NewHub()
		h.RejoinGrace = time.Minute // the honest worker joins after the first lease
		h.Logf = func(string, ...any) {}
		hubEnd, worker := net.Pipe()
		h.AddConn(hubEnd)
		var granted []wireLease // the leases the fuzzed worker received
		read := make(chan struct{})
		go func() {
			defer close(read)
			dec := gob.NewDecoder(worker)
			var job wireJob
			var l wireLease
			if dec.Decode(&job) != nil {
				return
			}
			if _, err := worker.Write(ready); err != nil || dec.Decode(&l) != nil {
				return
			}
			granted = append(granted, l)
			startWorkers(t, h, 1, testHandlers(-1), nil)
			go func() {
				worker.Write(data)
				worker.Close()
			}()
			for dec.Decode(&l) == nil {
				if !l.Done {
					granted = append(granted, l)
				}
			}
		}()
		var got []float64
		q := NewQueue(max, lease, func(_ int, wi WireItem) bool {
			got = append(got, wi.Score)
			return false
		})
		_, err := h.RunJob("score", nil, q)
		h.Close()
		<-read
		fuzzed := func(i int) bool {
			for _, l := range granted {
				if i >= l.Lo && i < l.Hi {
					return true
				}
			}
			return false
		}
		if err != nil {
			if err != q.Err() || !fuzzed(len(got)) {
				t.Fatalf("job failed after %d items outside an item error of a fuzzed lease: %v", len(got), err)
			}
			return
		}
		if len(got) != max {
			t.Fatalf("job consumed %d of %d items", len(got), max)
		}
		for i, v := range got {
			if want := wireItems(i, i+1)[0].Score; !fuzzed(i) && v != want {
				t.Fatalf("item %d outside the fuzzed leases scored %v, want the honest %v", i, v, want)
			}
		}
	})
}
