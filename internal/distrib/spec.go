package distrib

import (
	"bytes"
	"errors"
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
// the same deterministic constructors over the same coverage set, so a
// worker's scoring of trial t agrees bit-for-bit with the
// coordinator's replay of trial t.
type PolicySpec struct {
	Mirage             bool // mirror policy on (MIRAGE) or off (SABRE baseline)
	DepthSelection     bool // post-select on polytope-weighted depth instead of SWAP count
	HasFixedAggression bool
	FixedAggression    int
	// Coverage is the basis coverage set in CoverageSet.Save form. The
	// set travels with every job, so a worker prices with exactly the
	// coordinator's set and never builds or looks one up itself.
	Coverage []byte
}

// SpecFromOptions derives the wire policy recipe from pipeline
// options, encoding the basis coverage set (the default sqrt-iSWAP set
// when opts.Basis is nil). It fails when the basis cannot be saved —
// a custom CoverageSet without an iSWAP root: distributing such a run
// would silently score trials under a different basis, so it is
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
	basis := opts.Basis
	if basis == nil {
		basis = polytope.NewISwapRootCoverage(2)
	}
	var buf bytes.Buffer
	if err := basis.Save(&buf); err != nil {
		return PolicySpec{}, fmt.Errorf("distrib: basis %q cannot travel in a job spec: %w", basis.Name, err)
	}
	spec.Coverage = buf.Bytes()
	return spec, nil
}

// coverage decodes the spec's coverage set. A spec without one is an
// error: the worker has no other source of prices.
func (s PolicySpec) coverage() (*polytope.CoverageSet, error) {
	if len(s.Coverage) == 0 {
		return nil, errors.New("distrib: policy spec carries no coverage set")
	}
	cs, err := polytope.LoadCoverageSet(bytes.NewReader(s.Coverage))
	if err != nil {
		return nil, fmt.Errorf("distrib: decoding the spec's coverage set: %w", err)
	}
	return cs, nil
}

// build constructs the metric and policy factory a trial worker uses
// for circuit c — the consolidated circuit the trials route — pricing
// through a cost table built over c under the spec's coverage set,
// exactly as transpile builds it.
func (s PolicySpec) build(c *circuit.Circuit) (sabre.Metric, sabre.PolicyFactory, error) {
	cov, err := s.coverage()
	if err != nil {
		return nil, nil, err
	}
	metric := sabre.SwapCountMetric
	if !s.DepthSelection && !s.Mirage {
		return metric, nil, nil
	}
	costs := mirage.NewCostTable(cov, c)
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
	return metric, factory, nil
}
