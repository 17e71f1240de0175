package transpile

import (
	"fmt"
	"time"

	"repro/internal/circuit"
	"repro/internal/dispatch"
	"repro/internal/sabre"
	"repro/internal/topology"
)

// TranspileBatch transpiles many circuits onto one topology. opts
// applies to every circuit; the returned slice is index-aligned with
// the input and every report equals what a lone Transpile call with
// the same options would produce, Runtime aside (see Report.Runtime).
// On error the first failure in input order is returned.
//
// The layout rows of every circuit that needs routing share one work
// queue (sabre.RunGrids), so a worker that finished one circuit's rows
// routes another's: opts.Parallelism, or opts.Layout.Parallelism when
// it is 0, sizes one pool of workers for the whole batch.
func TranspileBatch(circuits []*circuit.Circuit, topo *topology.Topology, opts Options) ([]*Report, error) {
	return TranspileBatchWith(circuits, topo, opts, sabre.RunGrids)
}

// TranspileBatchWith is TranspileBatch with the routing grids run by
// run, which must drive every grid it is handed until the grid
// finished: sabre.RunGrids on local workers, or a fleet's runner
// (internal/distrib). The grids share one LayoutOptions. The batch
// runs in three steps:
//
//  1. prepare each circuit, run its trivial-layout check and, if it
//     needs routing, build its grid from the metric, bound and policy
//     RoutingPolicy builds;
//  2. route all the grids with one call of run;
//  3. replay each grid's winner and measure its report.
//
// Steps 1 and 3 run on the caller's own workers, one circuit per
// item, as many workers as the rows get: one circuit after another,
// they took half the time of a full-suite batch at patience 5 on two
// workers. Only the circuits before the first that fails to prepare
// are routed, since no later one can fail first.
func TranspileBatchWith(circuits []*circuit.Circuit, topo *topology.Topology, opts Options,
	run func(grids []*sabre.Grid) error) ([]*Report, error) {

	if len(circuits) == 0 {
		return nil, nil
	}
	start := time.Now()
	opts = opts.withDefaults()
	reports := make([]*Report, len(circuits))
	errs := make([]error, len(circuits)) // each circuit's first failure
	gridOf := make([]*sabre.Grid, len(circuits))
	prepared := make([]*PreparedCircuit, len(circuits))
	eachCircuit(len(circuits), opts.Layout.Parallelism, func(i int) {
		pc := PrepareCircuit(circuits[i], topo)
		prepared[i] = pc
		if reports[i], errs[i] = begin(pc, opts); errs[i] == nil && !reports[i].TrivialLayout {
			metric, bound, factory := RoutingPolicy(opts, pc.Routing)
			gridOf[i] = sabre.NewGrid(pc.Routing, opts.Layout.WithBound(bound), metric, factory)
		}
	})
	var grids []*sabre.Grid
	var routed []int // the circuit of each grid
	for i := 0; i < len(circuits) && errs[i] == nil; i++ {
		if gridOf[i] != nil {
			grids, routed = append(grids, gridOf[i]), append(routed, i)
		}
	}
	if err := run(grids); err != nil {
		return nil, fmt.Errorf("transpile: %w", err)
	}
	eachCircuit(len(grids), opts.Layout.Parallelism, func(k int) {
		res, err := grids[k].Result()
		if err != nil {
			errs[routed[k]] = fmt.Errorf("transpile: %w", err)
			return
		}
		i := routed[k]
		finish(reports[i], prepared[i], res, opts.Basis)
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	elapsed := time.Since(start)
	for _, rep := range reports {
		rep.Runtime = elapsed
	}
	return reports, nil
}

// eachCircuit runs f(0), ..., f(n-1) on up to parallelism local
// workers (see dispatch.Size).
func eachCircuit(n, parallelism int, f func(i int)) {
	q := dispatch.NewQueue[struct{}](n, 1, nil)
	// f reports no error, so neither can RunLocal; a panic in f is
	// re-raised on this goroutine.
	_ = dispatch.RunLocal(q, parallelism, func(int) struct{} { return struct{}{} },
		func(i int, _ struct{}) (struct{}, error) {
			f(i)
			return struct{}{}, nil
		})
}
