package dispatch

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// serialRun is the specification RunLocal must match: run / consume in
// lockstep, stop on consume==true or on error.
func serialRun(max int, run func(i int) (int, error), consume func(i, v int) bool) (consumed int, err error) {
	for i := 0; i < max; i++ {
		v, e := run(i)
		if e != nil {
			return consumed, e
		}
		consumed++
		if consume(i, v) {
			return consumed, nil
		}
	}
	return consumed, nil
}

// TestRunLocalMatchesSerial: the consumed prefix, the argmin outcome
// and the returned error are identical to the serial loop at every
// parallelism x lease size, including adaptive early stops.
func TestRunLocalMatchesSerial(t *testing.T) {
	const max = 57
	score := func(i int) int { return (i*7919 + 13) % 101 }
	mkConsume := func(best *int, bestAt *int, executed *int, patience int, since *int) func(i, v int) bool {
		return func(i, v int) bool {
			*executed++
			if *bestAt < 0 || v < *best {
				*best, *bestAt, *since = v, i, 0
				return false
			}
			*since++
			return patience > 0 && *since >= patience
		}
	}
	for _, patience := range []int{0, 3, 10} {
		wantBest, wantAt, wantExec, wantSince := 0, -1, 0, 0
		_, err := serialRun(max,
			func(i int) (int, error) { return score(i), nil },
			mkConsume(&wantBest, &wantAt, &wantExec, patience, &wantSince))
		if err != nil {
			t.Fatal(err)
		}
		for _, par := range []int{1, 2, 5, 16} {
			for _, lease := range []int{1, 4, 9} {
				best, at, exec, since := 0, -1, 0, 0
				q := NewQueue(max, lease, mkConsume(&best, &at, &exec, patience, &since))
				err := RunLocal(q, par, func(int) struct{} { return struct{}{} },
					func(i int, _ struct{}) (int, error) { return score(i), nil })
				if err != nil {
					t.Fatal(err)
				}
				if best != wantBest || at != wantAt || exec != wantExec {
					t.Fatalf("patience=%d par=%d lease=%d: (best=%d at=%d exec=%d), serial (%d %d %d)",
						patience, par, lease, best, at, exec, wantBest, wantAt, wantExec)
				}
			}
		}
	}
}

func TestRunLocalErrorMatchesSerial(t *testing.T) {
	const max = 40
	run := func(i int) (int, error) {
		if i == 11 || i == 29 {
			return 0, fmt.Errorf("fail-%d", i)
		}
		return i, nil
	}
	wantExec, wantErr := serialRun(max, run, func(int, int) bool { return false })
	for _, par := range []int{1, 3, 8} {
		exec := 0
		q := NewQueue(max, 1, func(i, v int) bool { exec++; return false })
		err := RunLocal(q, par, func(int) struct{} { return struct{}{} },
			func(i int, _ struct{}) (int, error) { return run(i) })
		if err == nil || err.Error() != wantErr.Error() {
			t.Fatalf("par=%d: err = %v, want %v", par, err, wantErr)
		}
		if exec != wantExec {
			t.Fatalf("par=%d: consumed %d, serial consumed %d", par, exec, wantExec)
		}
	}
}

// TestRunLocalPanicPropagates: a panicking work item must surface as a
// panic on the calling goroutine — after every worker parked — not
// kill the process from inside a worker.
func TestRunLocalPanicPropagates(t *testing.T) {
	for _, par := range []int{1, 4} {
		var started atomic.Int64
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("par=%d: no panic propagated", par)
				}
				if !strings.Contains(fmt.Sprint(r), "kaboom") {
					t.Fatalf("par=%d: panic value %v", par, r)
				}
			}()
			q := NewQueue[int](50, 1, nil)
			_ = RunLocal(q, par, func(int) struct{} { return struct{}{} },
				func(i int, _ struct{}) (int, error) {
					started.Add(1)
					if i == 7 {
						panic("kaboom")
					}
					return i, nil
				})
			t.Errorf("par=%d: RunLocal returned normally", par)
		}()
	}
}

// TestRunLocalScratchPerWorker: scratch is created once per worker and
// every run call of that worker sees the same value.
func TestRunLocalScratchPerWorker(t *testing.T) {
	var created atomic.Int64
	type scratch struct{ w int }
	q := NewQueue[int](64, 2, nil)
	seen := make([]atomic.Int64, 64)
	err := RunLocal(q, 4, func(w int) *scratch {
		created.Add(1)
		return &scratch{w: w}
	}, func(i int, s *scratch) (int, error) {
		seen[i].Store(int64(s.w) + 1)
		return 0, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if created.Load() > 4 {
		t.Fatalf("scratch created %d times for 4 workers", created.Load())
	}
	for i := range seen {
		if seen[i].Load() == 0 {
			t.Fatalf("index %d never ran", i)
		}
	}
}

// TestRunLocalEarlyStopFinishesInFlight: when the consumer stops, runs
// already started must complete before RunLocal returns (their scratch
// is still checked out), and their results are discarded.
func TestRunLocalEarlyStopFinishesInFlight(t *testing.T) {
	var inFlight, finished atomic.Int64
	q := NewQueue(200, 1, func(i, v int) bool { return i == 0 })
	err := RunLocal(q, 8, func(int) struct{} { return struct{}{} },
		func(i int, _ struct{}) (int, error) {
			inFlight.Add(1)
			time.Sleep(time.Millisecond)
			finished.Add(1)
			return i, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if inFlight.Load() != finished.Load() {
		t.Fatalf("%d runs started but only %d finished before return",
			inFlight.Load(), finished.Load())
	}
	if q.Consumed() != 1 {
		t.Fatalf("consumed %d, want 1", q.Consumed())
	}
}

func TestRunLocalZeroWork(t *testing.T) {
	q := NewQueue[int](0, 1, nil)
	if err := RunLocal(q, 4, func(int) struct{} { return struct{}{} },
		func(i int, _ struct{}) (int, error) { return 0, errors.New("must not run") }); err != nil {
		t.Fatal(err)
	}
}

// TestRunLocalPanicAfterStopStillPropagates: a run already in flight
// when the consumer stops early has its result discarded, but its
// panic must still surface — a panic signals corruption and may never
// be swallowed by an adaptive stop.
func TestRunLocalPanicAfterStopStillPropagates(t *testing.T) {
	gate := make(chan struct{})    // released once the queue has stopped
	started := make(chan struct{}) // index 1 is in flight
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "late panic") {
			t.Fatalf("panic past the stop index was swallowed (recovered %v)", r)
		}
	}()
	q := NewQueue(100, 1, func(i, v int) bool {
		if i == 0 {
			close(gate) // stop with index 1 still in flight
			return true
		}
		return false
	})
	_ = RunLocal(q, 2, func(int) struct{} { return struct{}{} },
		func(i int, _ struct{}) (int, error) {
			switch i {
			case 0:
				<-started // index 1 is in flight before 0 completes
				return 0, nil
			case 1:
				close(started)
				<-gate // held in flight until the queue has stopped
				panic("late panic")
			}
			return i, nil
		})
	t.Error("RunLocal returned instead of panicking")
}

// TestRunLocalScratchReuseRaceHammer drives many queues with early
// stops at random depths so the race detector can see any
// unsynchronised scratch handoff: every run mutates its worker's
// scratch buffer heavily and results alias nothing.
func TestRunLocalScratchReuseRaceHammer(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for round := 0; round < 30; round++ {
		stopAt := rng.Intn(40)
		par := 1 + rng.Intn(8)
		type buf struct{ xs [256]int }
		q := NewQueue(120, 1+rng.Intn(3), func(i, v int) bool { return i >= stopAt })
		err := RunLocal(q, par,
			func(w int) *buf { return &buf{} },
			func(i int, s *buf) (int, error) {
				for k := range s.xs {
					s.xs[k] = i + k
				}
				sum := 0
				for _, v := range s.xs {
					sum += v
				}
				return sum, nil
			})
		if err != nil {
			t.Fatal(err)
		}
	}
}
