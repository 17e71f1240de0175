package distrib

import (
	"fmt"
	"time"

	"repro/internal/circuit"
	"repro/internal/dispatch"
	"repro/internal/topology"
	"repro/internal/transpile"
)

// batchSpec is the KindBatch job spec: the full circuit batch (every
// worker decodes it once, then leases circuit indices), the topology,
// and the pipeline options. Opts.Parallelism bounds each worker's
// local row fan-out; results are parallelism-invariant, so it only
// shapes worker load.
type batchSpec struct {
	Circuits []wireCircuit
	Topo     wireTopology
	Opts     wireOptions
}

// wireReport is transpile.Report on the wire.
type wireReport struct {
	Name   string
	Router string

	Routed         wireCircuit
	Reconsolidated wireCircuit
	InitialLayout  []int
	FinalLayout    []int

	DepthTime        float64
	DepthPulses      float64
	TotalBasisGates  float64
	Total2QBlocks    int
	SwapsInserted    int
	MirrorsUsed      int
	MirrorAcceptRate float64
	TrialsExecuted   int
	TrialsBudgeted   int
	TrivialLayout    bool
	RuntimeNS        int64
}

func reportToWire(r *transpile.Report) ([]byte, error) {
	w := wireReport{
		Name: r.Name, Router: r.Router,
		InitialLayout: layoutToWire(r.InitialLayout),
		FinalLayout:   layoutToWire(r.FinalLayout),
		DepthTime:     r.DepthTime, DepthPulses: r.DepthPulses,
		TotalBasisGates: r.TotalBasisGates, Total2QBlocks: r.Total2QBlocks,
		SwapsInserted: r.SwapsInserted, MirrorsUsed: r.MirrorsUsed,
		MirrorAcceptRate: r.MirrorAcceptRate,
		TrialsExecuted:   r.TrialsExecuted, TrialsBudgeted: r.TrialsBudgeted,
		TrivialLayout: r.TrivialLayout, RuntimeNS: int64(r.Runtime),
	}
	if r.Routed != nil {
		w.Routed = circuitToWire(r.Routed)
	}
	if r.Reconsolidated != nil {
		w.Reconsolidated = circuitToWire(r.Reconsolidated)
	}
	return encodeSpec(&w)
}

// reportFromWire decodes the report of a circuit of numLogical qubits
// routed onto numPhysical.
func reportFromWire(raw []byte, numLogical, numPhysical int) (*transpile.Report, error) {
	var w wireReport
	if err := decodeSpec(raw, &w); err != nil {
		return nil, fmt.Errorf("distrib: decoding report: %w", err)
	}
	r := &transpile.Report{
		Name: w.Name, Router: w.Router,
		DepthTime: w.DepthTime, DepthPulses: w.DepthPulses,
		TotalBasisGates: w.TotalBasisGates, Total2QBlocks: w.Total2QBlocks,
		SwapsInserted: w.SwapsInserted, MirrorsUsed: w.MirrorsUsed,
		MirrorAcceptRate: w.MirrorAcceptRate,
		TrialsExecuted:   w.TrialsExecuted, TrialsBudgeted: w.TrialsBudgeted,
		TrivialLayout: w.TrivialLayout, Runtime: time.Duration(w.RuntimeNS),
	}
	var err error
	if r.InitialLayout, err = layoutFromWire(w.InitialLayout, numLogical, numPhysical); err != nil {
		return nil, err
	}
	if r.FinalLayout, err = layoutFromWire(w.FinalLayout, numLogical, numPhysical); err != nil {
		return nil, err
	}
	if w.Routed.NumQubits > 0 {
		c, err := circuitFromWire(w.Routed)
		if err != nil {
			return nil, err
		}
		r.Routed = c
	}
	if w.Reconsolidated.NumQubits > 0 {
		c, err := circuitFromWire(w.Reconsolidated)
		if err != nil {
			return nil, err
		}
		r.Reconsolidated = c
	}
	return r, nil
}

// batchJob is the worker-side state of one KindBatch job.
type batchJob struct {
	circuits []*circuit.Circuit
	topo     *topology.Topology
	opts     transpile.Options
}

func batchHandler(raw, _ []byte) (dispatch.JobRunner, error) {
	var spec batchSpec
	if err := decodeSpec(raw, &spec); err != nil {
		return nil, fmt.Errorf("distrib: decoding batch spec: %w", err)
	}
	topo, err := topologyFromWire(spec.Topo)
	if err != nil {
		return nil, err
	}
	circuits := make([]*circuit.Circuit, len(spec.Circuits))
	for i, wc := range spec.Circuits {
		if circuits[i], err = circuitFromWire(wc); err != nil {
			return nil, err
		}
	}
	opts, err := spec.Opts.options()
	if err != nil {
		return nil, err
	}
	return &batchJob{circuits: circuits, topo: topo, opts: opts}, nil
}

func (j *batchJob) Run(i int) dispatch.WireItem {
	if i < 0 || i >= len(j.circuits) {
		return dispatch.WireItem{Index: i, Err: fmt.Sprintf("circuit index %d outside batch of %d", i, len(j.circuits))}
	}
	rep, err := transpile.Transpile(j.circuits[i], j.topo, j.opts)
	if err != nil {
		return dispatch.WireItem{Index: i, Err: err.Error()}
	}
	blob, err := reportToWire(rep)
	if err != nil {
		return dispatch.WireItem{Index: i, Err: err.Error()}
	}
	return dispatch.WireItem{Index: i, Blob: blob}
}

// Epilogue ships nothing: every report travels home with its item.
func (j *batchJob) Epilogue() []byte { return nil }

// TranspileBatch is the distributed counterpart of
// transpile.TranspileBatch: circuits are sharded across the cluster at
// circuit granularity and every report is bit-identical to what the
// local batch (or a lone Transpile call) would produce — the whole
// per-circuit pipeline is deterministic, and reports are consumed in
// circuit-index order so error selection matches the serial loop too.
func (cl *Cluster) TranspileBatch(circuits []*circuit.Circuit, topo *topology.Topology,
	opts transpile.Options) ([]*transpile.Report, error) {

	if len(circuits) == 0 {
		return nil, nil
	}
	w, err := optionsToWire(opts)
	if err != nil {
		return nil, err
	}
	wire := make([]wireCircuit, len(circuits))
	for i, c := range circuits {
		wire[i] = circuitToWire(c)
	}
	raw, err := encodeSpec(batchSpec{
		Circuits: wire,
		Topo:     topologyToWire(topo),
		Opts:     w,
	})
	if err != nil {
		return nil, err
	}

	reports := make([]*transpile.Report, len(circuits))
	q := dispatch.NewQueue(len(circuits), cl.circuitLease(), func(i int, rep *transpile.Report) bool {
		reports[i] = rep
		return false
	})
	_, err = dispatch.RunJob(cl.Hub, KindBatch, raw, q,
		func(wi dispatch.WireItem) (*transpile.Report, error) {
			if wi.Index < 0 || wi.Index >= len(circuits) {
				return nil, fmt.Errorf("distrib: report for circuit %d outside batch of %d", wi.Index, len(circuits))
			}
			return reportFromWire(wi.Blob, circuits[wi.Index].NumQubits, topo.NumQubits)
		})
	if err != nil {
		return nil, err
	}
	return reports, nil
}
