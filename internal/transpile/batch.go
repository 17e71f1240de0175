package transpile

import (
	"repro/internal/circuit"
	"repro/internal/dispatch"
	"repro/internal/polytope"
	"repro/internal/topology"
)

// TranspileBatch transpiles many circuits onto one topology
// concurrently. opts applies to every circuit; the
// returned slice is index-aligned with the input and every report is
// identical to what a lone Transpile call with the same options would
// produce. On error the first failure in input order is returned.
//
// Worker budgeting: the total budget is opts.Parallelism, falling
// back to opts.Layout.Parallelism when unset (0 = GOMAXPROCS), and is
// split between circuit-level fan-out and per-circuit layout rows
// — with many circuits each one routes serially, with few circuits
// the leftover workers parallelise the rows inside each circuit. A
// budget of 1 runs everything serially.
func TranspileBatch(circuits []*circuit.Circuit, topo *topology.Topology, opts Options) ([]*Report, error) {
	if len(circuits) == 0 {
		return nil, nil
	}
	if opts.Basis == nil {
		opts.Basis = polytope.NewISwapRootCoverage(2)
	}
	budget := opts.Parallelism
	if budget == 0 {
		budget = opts.Layout.Parallelism
	}
	workers := dispatch.Size(budget)
	outer := workers
	if outer > len(circuits) {
		outer = len(circuits)
	}
	// Split the budget across the outer slots, spreading the remainder
	// so no worker sits idle when outer does not divide workers (e.g.
	// 8 workers over 3 circuits run their trials at 3/3/2, not 2/2/2).
	inner, rem := workers/outer, workers%outer

	// The batch runs on the dispatch work queue — the same scheduler
	// subsystem the routing grid's layout rows and the distributed transport
	// use — with circuit-granularity leases. Reports are consumed in
	// circuit-index order, so the first failure in input order is the
	// one reported, exactly like the serial loop (and exactly like the
	// sharded TCP path in internal/distrib, whose workers run this very
	// function's per-circuit body).
	reports := make([]*Report, len(circuits))
	q := dispatch.NewQueue(len(circuits), 1, func(i int, rep *Report) bool {
		reports[i] = rep
		return false
	})
	err := dispatch.RunLocal(q, outer,
		func(w int) int { // scratch: this worker's trial-parallelism share
			share := inner
			if w < rem {
				share++
			}
			return share
		},
		func(i int, share int) (*Report, error) {
			o := opts
			o.Parallelism = share
			return Transpile(circuits[i], topo, o)
		})
	if err != nil {
		return nil, err
	}
	return reports, nil
}
