package distrib

import (
	"bytes"
	"errors"
	"fmt"

	"repro/internal/mirage"
	"repro/internal/polytope"
	"repro/internal/sabre"
	"repro/internal/transpile"
)

// wireOptions is transpile.Options on the wire, as the trial job spec
// ships it. Policies and metrics are closures locally; on the wire
// they travel as the choices transpile.RoutingPolicy builds them from,
// so only those choices can be distributed: a router, a selection
// metric, an aggression and an iSWAP-root basis. RouteFn stays behind.
type wireOptions struct {
	Router         transpile.Router
	DepthSelection bool
	// HasFixedAggression marks FixedAggression as set: gob drops zero
	// values, so level 0 would otherwise decode as the paper's mix.
	HasFixedAggression bool
	FixedAggression    mirage.Aggression
	// Coverage is the basis coverage set in CoverageSet.Save form. The
	// set travels with every job, so a worker prices with exactly the
	// coordinator's set and never builds or looks one up itself.
	Coverage          []byte
	Layout            sabre.LayoutOptions
	SkipTrivialLayout bool
	Parallelism       int
}

// optionsToWire encodes opts, the basis coverage set included (the
// default sqrt-iSWAP set when opts.Basis is nil). It fails when the
// basis cannot be saved — a custom CoverageSet without an iSWAP root:
// distributing such a run would silently score trials under a
// different basis, so it is refused instead.
func optionsToWire(opts transpile.Options) (wireOptions, error) {
	w := wireOptions{
		Router:            opts.Router,
		DepthSelection:    opts.DepthSelection,
		Layout:            opts.Layout,
		SkipTrivialLayout: opts.SkipTrivialLayout,
		Parallelism:       opts.Parallelism,
	}
	if opts.FixedAggression != nil {
		w.HasFixedAggression, w.FixedAggression = true, *opts.FixedAggression
	}
	basis := opts.Basis
	if basis == nil {
		basis = polytope.NewISwapRootCoverage(2)
	}
	var buf bytes.Buffer
	if err := basis.Save(&buf); err != nil {
		return wireOptions{}, fmt.Errorf("distrib: basis %q cannot travel in a job spec: %w", basis.Name, err)
	}
	w.Coverage = buf.Bytes()
	return w, nil
}

// options decodes w. Options without a coverage set are an error: the
// worker has no other source of prices.
func (w wireOptions) options() (transpile.Options, error) {
	if len(w.Coverage) == 0 {
		return transpile.Options{}, errors.New("distrib: job spec carries no coverage set")
	}
	basis, err := polytope.LoadCoverageSet(bytes.NewReader(w.Coverage))
	if err != nil {
		return transpile.Options{}, fmt.Errorf("distrib: decoding the spec's coverage set: %w", err)
	}
	opts := transpile.Options{
		Router:            w.Router,
		Basis:             basis,
		DepthSelection:    w.DepthSelection,
		Layout:            w.Layout,
		SkipTrivialLayout: w.SkipTrivialLayout,
		Parallelism:       w.Parallelism,
	}
	if w.HasFixedAggression {
		a := w.FixedAggression
		if a < mirage.AggressionNever || a > mirage.AggressionAlways {
			return transpile.Options{}, fmt.Errorf("distrib: job spec's fixed aggression %d outside 0..3", a)
		}
		opts.FixedAggression = &a
	}
	return opts, nil
}
