package bench

import (
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/distrib"
)

// TestFleetFlagsWireTheHub: each fleet flag parsed from a command line
// lands on the hub StartHub builds, so the two coordinators that share
// the flags configure their hubs alike.
func TestFleetFlagsWireTheHub(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "wal")
	fs := flag.NewFlagSet("coordinator", flag.ContinueOnError)
	ff := NewFleetFlags(fs)
	if err := fs.Parse([]string{
		"-hb-timeout", "2s", "-lease-timeout", "3s", "-job-deadline", "4m",
		"-rejoin-grace", "5s", "-journal", journal, "-fleet-wait", "1ms",
	}); err != nil {
		t.Fatal(err)
	}
	hub, err := ff.StartHub("127.0.0.1:0", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()
	if hub.HeartbeatTimeout != 2*time.Second || hub.LeaseTimeout != 3*time.Second ||
		hub.JobDeadline != 4*time.Minute || hub.RejoinGrace != 5*time.Second {
		t.Fatalf("hub timeouts = %v/%v/%v/%v, want 2s/3s/4m/5s",
			hub.HeartbeatTimeout, hub.LeaseTimeout, hub.JobDeadline, hub.RejoinGrace)
	}
	if hub.Journal == nil {
		t.Fatal("-journal set but the hub has no journal")
	}
	if _, err := os.Stat(journal); err != nil {
		t.Fatalf("journal directory not opened: %v", err)
	}
	if len(hub.LocalHandlers) != len(distrib.Handlers()) {
		t.Fatalf("local fallback is on by default, hub has %d local handlers", len(hub.LocalHandlers))
	}

	// Without local fallback, a fleet that never arrives is an error.
	fs = flag.NewFlagSet("coordinator", flag.ContinueOnError)
	ff = NewFleetFlags(fs)
	if err := fs.Parse([]string{"-local-fallback=false", "-fleet-wait", "1ms"}); err != nil {
		t.Fatal(err)
	}
	if hub, err := ff.StartHub("127.0.0.1:0", 1); err == nil {
		hub.Close()
		t.Fatal("a missing fleet without local fallback started a hub")
	}
}

func TestSchedulerFlagsValidate(t *testing.T) {
	ok := []SchedulerFlags{
		{},
		{Parallel: 8, Patience: 120, Trials: 20, Workers: 2, Lease: 8},
	}
	for _, f := range ok {
		if err := f.Validate(); err != nil {
			t.Fatalf("valid flags %+v rejected: %v", f, err)
		}
	}
	bad := []SchedulerFlags{
		{Parallel: -1},
		{Patience: -5},
		{Trials: -2},
		{Workers: -3},
		{Lease: -1},
	}
	for _, f := range bad {
		if err := f.Validate(); err == nil {
			t.Fatalf("invalid flags %+v accepted", f)
		}
	}
}

func TestParsePositiveInts(t *testing.T) {
	for _, tc := range []struct {
		spec string
		want []int // nil: rejected
	}{
		{"2,3,4", []int{2, 3, 4}},
		{" 16 , 24", []int{16, 24}},
		{"7", []int{7}},
		{"", nil},
		{"x", nil},
		{"2x,0", nil},
		{"2,0", nil},
		{"2,-3", nil},
		{"2,,3", nil},
		{"2,", nil},
	} {
		got, err := ParsePositiveInts("roots", tc.spec)
		if tc.want == nil {
			if err == nil {
				t.Errorf("%q: accepted as %v", tc.spec, got)
			}
			continue
		}
		if err != nil || !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%q: got %v, %v; want %v", tc.spec, got, err, tc.want)
		}
	}
}
