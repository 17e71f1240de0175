package bench

import "fmt"

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
// sentinel of every knob (0 workers per CPU for -parallel, fixed grid
// for -patience, paper counts for -trials, local execution for
// -workers), so only negatives —
// which today would be silently reinterpreted — are errors, plus a
// zero/negative -lease when leasing is explicit.
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
