package distrib

import (
	"fmt"

	"repro/internal/circuit"
	"repro/internal/mirage"
	"repro/internal/polytope"
	"repro/internal/sabre"
	"repro/internal/transpile"
)

// PolicySpec is the wire description of how to build a trial's metric
// and mirror-policy factory. Policies and metrics are closures locally;
// on the wire they are named by construction recipe, which is why only
// recipe-expressible configurations can be distributed: the iSWAP-root
// coverage family (the paper's bases), the stock metrics, and the
// paper's aggression mixes. Both sides build from the same recipe with
// the same deterministic constructors, so a worker's scoring of trial t
// agrees bit-for-bit with the coordinator's replay of trial t.
type PolicySpec struct {
	Mirage             bool // mirror policy on (MIRAGE) or off (SABRE baseline)
	DepthSelection     bool // post-select on polytope-weighted depth instead of SWAP count
	HasFixedAggression bool
	FixedAggression    int
	// BasisRoot selects the iSWAP^(1/n) coverage set (0 = the default
	// sqrt-iSWAP, n = 2).
	BasisRoot int
}

// SpecFromOptions derives the wire policy recipe from pipeline
// options. It fails when the options hold a basis the wire cannot
// name (a custom CoverageSet without an iSWAP root): distributing such
// a run would silently score trials under a different basis, so it is
// refused instead.
func SpecFromOptions(opts transpile.Options) (PolicySpec, error) {
	spec := PolicySpec{
		Mirage:         opts.Router == transpile.MIRAGE,
		DepthSelection: opts.DepthSelection,
	}
	if opts.FixedAggression != nil {
		spec.HasFixedAggression = true
		spec.FixedAggression = int(*opts.FixedAggression)
	}
	root, err := basisRoot(opts.Basis)
	if err != nil {
		return PolicySpec{}, err
	}
	spec.BasisRoot = root
	return spec, nil
}

func basisRoot(basis *polytope.CoverageSet) (int, error) {
	if basis == nil {
		return 0, nil
	}
	if basis.Root <= 0 {
		return 0, fmt.Errorf("distrib: basis %q is not an iSWAP-root coverage set and cannot be named on the wire", basis.Name)
	}
	return basis.Root, nil
}

func (s PolicySpec) root() int {
	if s.BasisRoot <= 0 {
		return 2
	}
	return s.BasisRoot
}

// coverage returns the spec's coverage set (process-memoised by
// package polytope, so repeated jobs on one worker reuse it).
func (s PolicySpec) coverage() *polytope.CoverageSet {
	return polytope.NewISwapRootCoverage(s.root())
}

// build constructs the metric and policy factory a trial worker (or
// the coordinator's replay) uses for circuit c — the consolidated
// circuit the trials route — pricing through a cost table built over
// c exactly as transpile builds it.
func (s PolicySpec) build(c *circuit.Circuit) (sabre.Metric, sabre.PolicyFactory) {
	metric := sabre.SwapCountMetric
	if !s.DepthSelection && !s.Mirage {
		return metric, nil
	}
	costs := mirage.NewCostTable(s.coverage(), c)
	if s.DepthSelection {
		metric = mirage.DepthMetric(costs)
	}
	var factory sabre.PolicyFactory
	if s.Mirage {
		if s.HasFixedAggression {
			factory = mirage.FixedPolicyFactory(costs, mirage.Aggression(s.FixedAggression))
		} else {
			factory = mirage.PolicyFactory(costs, mirage.DefaultMix)
		}
	}
	return metric, factory
}
