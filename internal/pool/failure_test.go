package pool

import (
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// --- Worker panic propagation ---

func TestForEachWithWorkerPanicPropagates(t *testing.T) {
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "fn exploded") {
			t.Fatalf("panic = %v, want fn exploded", r)
		}
	}()
	_ = ForEachWith(4, 64,
		func(int) struct{} { return struct{}{} },
		func(i int, _ struct{}) error {
			if i == 21 {
				panic("fn exploded")
			}
			return nil
		})
	t.Error("ForEachWith returned instead of panicking")
}

// TestForEachWithLowestFailureWins: when an error and a panic land on
// different indices, the lowest index decides what the caller sees —
// exactly what serial iteration would have hit first.
func TestForEachWithLowestFailureWins(t *testing.T) {
	// Error below panic: the error must be returned, not the panic.
	err := ForEachWith(4, 64,
		func(int) struct{} { return struct{}{} },
		func(i int, _ struct{}) error {
			switch i {
			case 3:
				return errors.New("low error")
			case 40:
				// Give index 3 time to be recorded before the panic
				// index runs on another worker.
				time.Sleep(2 * time.Millisecond)
				panic("high panic")
			}
			return nil
		})
	if err == nil || err.Error() != "low error" {
		t.Fatalf("err = %v, want low error", err)
	}
}

// TestForEachWithErrorShedsInFlight: after index i fails, indices
// above it stop being dispatched, but everything below still runs (the
// lowest failing index must be the one reported).
func TestForEachWithErrorShedsInFlight(t *testing.T) {
	var ran atomic.Int64
	err := ForEachWith(4, 10000,
		func(int) struct{} { return struct{}{} },
		func(i int, _ struct{}) error {
			ran.Add(1)
			if i == 50 {
				return errors.New("halt")
			}
			return nil
		})
	if err == nil || err.Error() != "halt" {
		t.Fatalf("err = %v", err)
	}
	if n := ran.Load(); n == 10000 {
		t.Fatalf("no work was shed after the failure (ran all %d)", n)
	}
}
