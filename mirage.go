// Package mirage is the public API of the MIRAGE reproduction: a
// quantum transpiler that co-designs SWAP routing and basis-gate
// decomposition using mirror gates (McKinney, Hatridge, Jones —
// "MIRAGE: Quantum Circuit Decomposition and Routing Collaborative
// Design using Mirror Gates", HPCA 2024).
//
// # Quick start
//
//	topo := mirage.SquareLattice66()
//	circ := mirage.QFT(18)
//	report, err := mirage.Transpile(circ, topo, mirage.Options{
//		Router:         mirage.MIRAGE,
//		DepthSelection: true,
//	})
//	fmt.Println(report.Summary())
//
// The facade re-exports the pieces a downstream user needs: circuit
// construction and QASM I/O, hardware topologies, benchmark
// generators, the SABRE baseline and MIRAGE routers, Weyl-chamber
// analysis (coordinates and mirror gates), coverage polytopes, and
// Haar-score experiments. The implementation lives in internal/
// packages; see DESIGN.md for the architecture map.
package mirage

import (
	"math/rand"
	"net"

	"repro/internal/bench"
	"repro/internal/circuit"
	"repro/internal/dispatch"
	"repro/internal/distrib"
	"repro/internal/gates"
	"repro/internal/haar"
	"repro/internal/linalg"
	mirpkg "repro/internal/mirage"
	"repro/internal/mirrorbench"
	"repro/internal/polytope"
	"repro/internal/sabre"
	"repro/internal/topology"
	"repro/internal/transpile"
	"repro/internal/weyl"
)

// --- Circuits ---

// Circuit is a gate list over logical qubit wires.
type Circuit = circuit.Circuit

// Op is one gate application.
type Op = circuit.Op

// Gate is a named unitary gate.
type Gate = gates.Gate

// NewCircuit returns an empty circuit with the given name and width.
func NewCircuit(name string, numQubits int) *Circuit { return circuit.New(name, numQubits) }

// ParseQASM reads an OpenQASM 2.0 subset (QASMBench/MQTBench style).
func ParseQASM(src string) (*Circuit, error) { return circuit.ParseQASM(src) }

// WriteQASM renders a circuit as OpenQASM 2.0.
func WriteQASM(c *Circuit) string { return circuit.WriteQASM(c) }

// UnrollTo2Q rewrites 3-qubit gates into 1Q/2Q decompositions.
func UnrollTo2Q(c *Circuit) *Circuit { return circuit.UnrollTo2Q(c) }

// ConsolidateBlocks merges runs of gates on a qubit pair into
// coordinate-annotated 2Q blocks.
func ConsolidateBlocks(c *Circuit) *Circuit { return circuit.ConsolidateBlocks(c) }

// --- Topologies ---

// Topology is a hardware coupling graph.
type Topology = topology.Topology

// Layout maps logical to physical qubits.
type Layout = topology.Layout

// NewLayout builds a layout from a logical-to-physical assignment
// (the initial-layout input of TrialRunner.Run and Route).
func NewLayout(l2p []int, numPhysical int) *Layout {
	return topology.NewLayout(l2p, numPhysical)
}

// TrivialLayout maps logical qubit i to physical qubit i.
func TrivialLayout(numLogical, numPhysical int) *Layout {
	return topology.TrivialLayout(numLogical, numPhysical)
}

// Line returns a 1-D chain of n qubits.
func Line(n int) *Topology { return topology.Line(n) }

// Ring returns a cycle of n qubits.
func Ring(n int) *Topology { return topology.Ring(n) }

// Grid returns a rows x cols lattice.
func Grid(rows, cols int) *Topology { return topology.Grid(rows, cols) }

// SquareLattice66 returns the paper's 6x6 square-lattice machine.
func SquareLattice66() *Topology { return topology.SquareLattice66() }

// HeavyHex57 returns the paper's 57-qubit heavy-hex machine.
func HeavyHex57() *Topology { return topology.HeavyHex57() }

// AllToAll returns a fully connected device.
func AllToAll(n int) *Topology { return topology.AllToAll(n) }

// NewTopology builds a custom coupling graph from an edge list.
func NewTopology(name string, numQubits int, edges [][2]int) *Topology {
	return topology.New(name, numQubits, edges)
}

// --- Transpilation ---

// Router selects the routing algorithm.
type Router = transpile.Router

// Router kinds.
const (
	SABRE  = transpile.SABRE
	MIRAGE = transpile.MIRAGE
)

// Options configures the transpiler pipeline.
type Options = transpile.Options

// Report is the transpilation outcome with the paper's metrics.
type Report = transpile.Report

// Aggression is the mirror-acceptance level of paper Algorithm 2.
type Aggression = mirpkg.Aggression

// Aggression levels (paper Algorithm 2).
const (
	AggressionNever  = mirpkg.AggressionNever
	AggressionLower  = mirpkg.AggressionLower
	AggressionEqual  = mirpkg.AggressionEqual
	AggressionAlways = mirpkg.AggressionAlways
)

// LayoutOptions holds SABRE trial counts and parameters.
type LayoutOptions = sabre.LayoutOptions

// RoutingOptions holds the per-trial SABRE parameters (lookahead
// window, decay, score sharding).
type RoutingOptions = sabre.Options

// RoutingResult is the outcome of one routing run.
type RoutingResult = sabre.Result

// TrialRunner reuses one routing-trial arena across many trials of a
// prepared (circuit, topology) pair: the dependency DAG is built once
// and shared immutably, all mutable trial state is rewound per Run, so
// steady-state trials allocate O(1). A runner is single-goroutine and
// the Result returned by Run aliases its arena (valid until the next
// Run). A distributed worker runs the layout rows of a trial grid on
// one.
type TrialRunner = sabre.TrialRunner

// NewTrialRunner validates and prepares a circuit for repeated routing
// trials on a topology.
func NewTrialRunner(c *Circuit, topo *Topology) (*TrialRunner, error) {
	pc, err := sabre.PrepareCircuit(c, topo)
	if err != nil {
		return nil, err
	}
	return sabre.NewTrialRunner(pc), nil
}

// Transpile runs the full pipeline: cleaning, consolidation, trivial
// layout check, SABRE/MIRAGE routing, metrics. The routing grid runs
// one layout row (refine one layout, route its trials) per work item
// on a bounded set of workers (Options.Parallelism; 0 = one worker per
// CPU) with seed-deterministic results at any worker count.
// Options.Layout.ConvergencePatience > 0 enables adaptive early-stop: the
// grid ends after that many consecutive non-improving trial indices —
// the stop rule is defined on trial indices, never wall-clock arrival
// order, so adaptive runs are also bit-identical at any Parallelism.
// Report.TrialsExecuted / TrialsBudgeted record the realised schedule.
func Transpile(c *Circuit, topo *Topology, opts Options) (*Report, error) {
	return transpile.Transpile(c, topo, opts)
}

// TranspileBatch transpiles many circuits onto one topology. The
// layout rows of every circuit that needs routing share one work
// queue, so idle workers route other circuits' rows. Reports are
// index-aligned with the input and identical to what individual
// Transpile calls would produce, except that each report's Runtime is
// the whole batch's wall time.
func TranspileBatch(circuits []*Circuit, topo *Topology, opts Options) ([]*Report, error) {
	return transpile.TranspileBatch(circuits, topo, opts)
}

// PreparedCircuit is the amortised per-circuit front half of the
// pipeline: cleaning, 2Q block consolidation with Weyl coordinate
// annotation, and the shared routing analysis (prebuilt dependency
// DAGs). Immutable and safe to share across goroutines.
type PreparedCircuit = transpile.PreparedCircuit

// PrepareCircuit runs the per-circuit analysis once; pass the result
// to TranspilePrepared any number of times (different routers,
// aggression levels, selection metrics) without repaying it.
func PrepareCircuit(c *Circuit, topo *Topology) *PreparedCircuit {
	return transpile.PrepareCircuit(c, topo)
}

// TranspilePrepared is Transpile over a shared PreparedCircuit: only
// the configuration half (trivial-layout check, routing, metrics)
// runs per call.
func TranspilePrepared(pc *PreparedCircuit, opts Options) (*Report, error) {
	return transpile.TranspilePrepared(pc, opts)
}

// --- Distributed trial dispatch ---

// DispatchHub is a coordinator's pool of worker connections: workers
// dial in once (ServeResilientWorker / `miraged worker`) and serve any
// number of sequential jobs. Lost workers have their leased work re-granted;
// work items are deterministic in their index, so outcomes are
// bit-identical to single-process runs regardless of worker count or
// failures.
type DispatchHub = dispatch.Hub

// NewDispatchHub returns an empty hub; call its Listen method to
// accept workers over TCP.
func NewDispatchHub() *DispatchHub { return dispatch.NewHub() }

// Cluster is the coordinator-side API over a hub: Options wires remote
// routing-trial grids into a transpile pipeline, and TranspileBatch
// routes the layout rows of a batch of circuits on the workers.
type Cluster = distrib.Cluster

// NewCluster wraps a hub with default dispatch tuning. Every job the
// cluster sends carries the options' basis coverage set in its spec,
// so workers need no coverage state of their own and price exactly as
// the caller does; a basis without an iSWAP root cannot be sent and is
// refused.
func NewCluster(h *DispatchHub) *Cluster { return distrib.NewCluster(h) }

// ServeWorker runs the worker side of the dispatch protocol on an
// established connection until the coordinator closes it, handling
// the routing-trial job kind, of one grid or of a whole batch.
func ServeWorker(conn net.Conn) error {
	return dispatch.ServeConn(conn, distrib.Handlers(), nil)
}

// WorkerOptions tunes the worker side of the dispatch protocol:
// heartbeat cadence, per-item timeouts, a graceful-drain channel that
// hands the current lease back to the coordinator, and seeded fault
// injection (ChaosConfig) for testing coordinator recovery.
type WorkerOptions = dispatch.ServeOptions

// ReconnectOptions bounds ServeResilientWorker's capped
// exponential-backoff redial loop.
type ReconnectOptions = dispatch.ReconnectOptions

// ServeResilientWorker dials a coordinator and serves jobs — the
// library form of `miraged worker -connect`. With zero rc it serves
// one connection and returns when the coordinator closes it; with
// rc.Attempts it reconnects with capped exponential backoff and jitter
// when the coordinator goes away and rejoins in-progress jobs. It
// drains gracefully when opts.Drain is closed (`-retry ... -drain`).
func ServeResilientWorker(addr string, opts *WorkerOptions, rc ReconnectOptions) error {
	return dispatch.ServeLoop(addr, distrib.Handlers(), opts, rc)
}

// FleetStats is a snapshot of a hub's failure-event counters (lease
// re-grants, deadline revocations, disconnects, reconnects, quarantined
// decode faults), available via DispatchHub.Stats. Recovery never
// changes results — the counters exist so callers can assert that
// recovery happened.
type FleetStats = dispatch.FleetStats

// TranspileBatchOver is TranspileBatch with the layout rows of every
// circuit routed on the cluster's workers, as one job: every report is
// bit-identical to the local TranspileBatch's, Runtime aside.
func TranspileBatchOver(cl *Cluster, circuits []*Circuit, topo *Topology, opts Options) ([]*Report, error) {
	return cl.TranspileBatch(circuits, topo, opts)
}

// --- Weyl chamber analysis ---

// Coordinate is a point of the canonical Weyl chamber.
type Coordinate = weyl.Coordinate

// CoordinateOf returns the Weyl coordinate of a 4x4 unitary.
func CoordinateOf(u *linalg.Matrix) (Coordinate, error) { return weyl.CoordinateOf(u) }

// Mirror returns the coordinate of SWAP * U for a gate U at c
// (paper Eq. 1).
func Mirror(c Coordinate) Coordinate { return weyl.Mirror(c) }

// HaarSampleCoordinate draws the coordinate of a Haar-random 2Q gate.
func HaarSampleCoordinate(rng *rand.Rand) Coordinate { return weyl.HaarSample(rng) }

// --- Coverage polytopes ---

// CoverageSet is the cost-ordered family of reachable-set polytopes of
// a basis gate.
type CoverageSet = polytope.CoverageSet

// SqrtISwapCoverage returns the sqrt-iSWAP coverage set (the paper's
// primary basis).
func SqrtISwapCoverage() *CoverageSet { return polytope.NewISwapRootCoverage(2) }

// ISwapRootCoverage returns the coverage set of iSWAP^(1/n).
func ISwapRootCoverage(n int) *CoverageSet { return polytope.NewISwapRootCoverage(n) }

// CNOTCoverage returns the exact CNOT-basis coverage set.
func CNOTCoverage() *CoverageSet { return polytope.NewCNOTCoverage() }

// --- Haar scores (paper Section III-C) ---

// HaarStrategy selects mirror/approximation variants of Algorithm 1.
type HaarStrategy = haar.Strategy

// HaarResult is a Monte-Carlo Haar-score outcome.
type HaarResult = haar.Result

// HaarScore runs Algorithm 1 on a coverage set.
func HaarScore(cov *CoverageSet, strat HaarStrategy, samples int, seed int64) HaarResult {
	return haar.Score(cov, strat, haar.Options{Samples: samples, Seed: seed})
}

// --- Benchmark circuits (paper Table III) ---

// BenchmarkEntry names a Table III workload.
type BenchmarkEntry = bench.Entry

// BenchmarkSuite returns the paper's benchmark selection.
func BenchmarkSuite() []BenchmarkEntry { return bench.Suite() }

// MirrorBenchmarkSuite returns the Mirror workload family: the
// self-verifying mirror-circuit rows of the full suite (each Entry's
// Mirror field carries the generator spec).
func MirrorBenchmarkSuite() []BenchmarkEntry { return bench.MirrorSuite() }

// QFT returns the n-qubit quantum Fourier transform.
func QFT(n int) *Circuit { return bench.QFT(n) }

// GHZ returns the n-qubit GHZ preparation circuit.
func GHZ(n int) *Circuit { return bench.GHZ(n) }

// TwoLocal returns the fully entangled ansatz of paper Fig. 8a.
func TwoLocal(n int) *Circuit { return bench.TwoLocal(n) }

// --- Mirror circuits (self-verifying workloads) ---

// MirrorSpec deterministically identifies a mirror circuit: kind
// (randomized Clifford or mirror quantum volume), width, depth and
// seed. Equal specs regenerate bit-identical circuits and outcomes.
type MirrorSpec = mirrorbench.Spec

// MirrorCircuit is a generated mirror circuit together with its
// analytically-known survival bitstring.
type MirrorCircuit = mirrorbench.Mirror

// MirrorKind selects the mirror-circuit family.
type MirrorKind = mirrorbench.Kind

// Mirror-circuit families.
const (
	MirrorRandomizedClifford = mirrorbench.RandomizedClifford
	MirrorQuantumVolume      = mirrorbench.QuantumVolume
)

// GenerateMirror builds the mirror circuit of a spec: a forward half,
// an optional central Pauli layer, and the exact inverse half, so the
// ideal output state is a known computational basis state — an
// end-to-end correctness oracle for any transpiler.
func GenerateMirror(s MirrorSpec) *MirrorCircuit { return mirrorbench.Generate(s) }

// VerifyMirror checks a transpiled mirror circuit against its expected
// survival bitstring through the final layout, returning the survival
// fidelity |<expected|U|0...0>|^2. It fails when the infidelity
// exceeds tol, and reports ErrMirrorTooWide when the routed footprint
// exceeds the dense-unitary limit.
func VerifyMirror(routed *Circuit, final *Layout, expected []int, tol float64) (float64, error) {
	return mirrorbench.Verify(routed, final, expected, tol)
}

// ErrMirrorTooWide reports a routed circuit too wide for dense-unitary
// mirror verification (see VerifyMirror).
var ErrMirrorTooWide = mirrorbench.ErrTooWide
