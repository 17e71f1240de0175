package bench

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/dispatch"
	"repro/internal/distrib"
)

// SchedulerFlags holds the scheduler/engine knobs shared by
// cmd/benchsuite, cmd/runtimecmp and cmd/miraged. Validate centralises
// their sanity checks so every command rejects nonsense identically
// instead of silently misbehaving (a negative -trials used to fall
// through WithDefaults back to the paper counts, a negative -patience
// silently disabled adaptivity, a negative -parallel silently meant
// "one worker per CPU").
type SchedulerFlags struct {
	Parallel int // layout-row workers; 0 = one per CPU
	Patience int // adaptive early-stop; 0 = fixed grid
	Trials   int // layout/routing trials; 0 = command default
	// Distributed knobs (commands without them leave the zero values).
	Workers int // remote workers to wait for; 0 = run locally
	Lease   int // layout rows per lease; 0 = default
}

// Validate rejects values outside each flag's documented domain. Zero
// stays valid everywhere: it is the documented "use the default"
// sentinel of every knob (one worker per CPU for -parallel, fixed
// grid for -patience, paper counts for -trials, local execution for
// -workers, the default lease size for -lease), so only negatives —
// which would otherwise be silently reinterpreted — are errors.
func (f SchedulerFlags) Validate() error {
	if f.Parallel < 0 {
		return fmt.Errorf("-parallel must be >= 0 (0 = one worker per CPU), got %d", f.Parallel)
	}
	if f.Patience < 0 {
		return fmt.Errorf("-patience must be >= 0 (0 = fixed trial grid), got %d", f.Patience)
	}
	if f.Trials < 0 {
		return fmt.Errorf("-trials must be >= 0 (0 = default trial counts), got %d", f.Trials)
	}
	if f.Workers < 0 {
		return fmt.Errorf("-workers must be >= 0 (0 = run locally), got %d", f.Workers)
	}
	if f.Lease < 0 {
		return fmt.Errorf("-lease must be >= 0 (0 = default lease size), got %d", f.Lease)
	}
	return nil
}

// ParsePositiveInts reads a comma-separated list flag such as
// haarscore -roots or runtimecmp -sizes. Every entry must be a positive
// integer: an empty list, an empty entry or a trailing suffix ("2x")
// is an error rather than a silently shorter list.
func ParsePositiveInts(name, spec string) ([]int, error) {
	var out []int
	for _, f := range strings.Split(spec, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || v < 1 {
			return nil, fmt.Errorf("-%s: %q is not a positive integer", name, f)
		}
		out = append(out, v)
	}
	return out, nil
}

// FleetFlags are the coordinator flags shared by cmd/benchsuite and
// miraged coordinator: the hub's lease and job deadlines, the
// write-ahead journal, how long to wait for the fleet, and whether the
// coordinator may execute work itself (see the failure-semantics table
// in the README).
type FleetFlags struct {
	HeartbeatTimeout time.Duration
	LeaseTimeout     time.Duration
	JobDeadline      time.Duration
	RejoinGrace      time.Duration
	Journal          string
	FleetWait        time.Duration
	LocalFallback    bool
}

// NewFleetFlags registers the fleet flags on fs; their values land in
// the returned FleetFlags when fs is parsed.
func NewFleetFlags(fs *flag.FlagSet) *FleetFlags {
	f := &FleetFlags{}
	fs.DurationVar(&f.HeartbeatTimeout, "hb-timeout", 0, "revoke a lease after this long without a heartbeat or results (0 = 30s default, negative = disable)")
	fs.DurationVar(&f.LeaseTimeout, "lease-timeout", 0, "revoke a lease after this long without item progress (0 = off; must exceed the slowest single item)")
	fs.DurationVar(&f.JobDeadline, "job-deadline", 0, "fail a job outright after this long, listing outstanding leases (0 = off)")
	fs.DurationVar(&f.RejoinGrace, "rejoin-grace", 0, "keep a job alive this long with zero workers connected, waiting for rejoins (0 = off)")
	fs.StringVar(&f.Journal, "journal", "", "write-ahead job journal directory: a restarted coordinator pointed at the same directory resumes unfinished jobs instead of rerunning them (empty = off)")
	fs.DurationVar(&f.FleetWait, "fleet-wait", 5*time.Minute, "how long to wait for -workers workers before starting; with -local-fallback a timeout proceeds degraded instead of failing")
	fs.BoolVar(&f.LocalFallback, "local-fallback", true, "let the coordinator execute poison items and worker-starved job remainders itself (degraded mode) instead of failing the job")
	return f
}

// StartHub builds the coordinator hub these flags describe, listens on
// addr and waits up to FleetWait for workers to connect. A short fleet
// is an error unless local fallback lets the coordinator run the
// remainder degraded. The caller closes the hub.
func (f *FleetFlags) StartHub(addr string, workers int) (*dispatch.Hub, error) {
	hub := dispatch.NewHub()
	hub.HeartbeatTimeout = f.HeartbeatTimeout
	hub.LeaseTimeout = f.LeaseTimeout
	hub.JobDeadline = f.JobDeadline
	hub.RejoinGrace = f.RejoinGrace
	if f.LocalFallback {
		hub.LocalHandlers = distrib.Handlers()
	}
	if f.Journal != "" {
		jd, err := dispatch.OpenJournalDir(f.Journal)
		if err != nil {
			return nil, fmt.Errorf("opening journal %s: %w", f.Journal, err)
		}
		if n := jd.Recovered(); n > 0 {
			fmt.Printf("journal: recovered %d job(s) from %s (%d torn frame(s) truncated); unfinished work will be resumed, not rerun\n",
				n, f.Journal, jd.TruncatedFrames())
		}
		hub.Journal = jd
	}
	bound, err := hub.Listen(addr)
	if err != nil {
		return nil, fmt.Errorf("listening on %s: %w", addr, err)
	}
	fmt.Printf("coordinator listening on %s; waiting for %d workers...\n", bound, workers)
	if err := hub.WaitWorkers(workers, f.FleetWait); err != nil {
		if hub.LocalHandlers == nil {
			hub.Close()
			return nil, err
		}
		fmt.Fprintf(os.Stderr, "coordinator: %v; proceeding with %d workers — the remainder will run DEGRADED on the coordinator\n",
			err, hub.Workers())
	}
	return hub, nil
}
