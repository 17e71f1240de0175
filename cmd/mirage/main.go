// Command mirage is the CLI transpiler: it routes a benchmark circuit
// (or a QASM file) onto a hardware topology with SABRE or MIRAGE and
// prints the paper's metrics.
//
// Examples:
//
//	mirage -circuit qft_n18 -topology square -router mirage -depth
//	mirage -circuit wstate_n27 -topology heavyhex -router sabre
//	mirage -qasm my.qasm -topology line -n 20 -emit out.qasm
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"repro/internal/bench"
	"repro/internal/circuit"
	"repro/internal/mirage"
	"repro/internal/polytope"
	"repro/internal/sabre"
	"repro/internal/topology"
	"repro/internal/transpile"
)

func main() {
	var (
		circuitName = flag.String("circuit", "qft_n18", "benchmark circuit name (see -list) or empty when using -qasm")
		qasmPath    = flag.String("qasm", "", "path to an OpenQASM 2.0 file to transpile instead of a named benchmark")
		topoName    = flag.String("topology", "square", "topology: square | heavyhex | line | ring | a2a | grid")
		lineN       = flag.Int("n", 36, "qubit count for line/ring/a2a topologies")
		gridRows    = flag.Int("rows", 6, "grid rows")
		gridCols    = flag.Int("cols", 6, "grid cols")
		routerName  = flag.String("router", "mirage", "router: sabre | mirage")
		depthSel    = flag.Bool("depth", true, "post-select trials on depth (MIRAGE-Depth) instead of SWAP count")
		aggression  = flag.Int("aggression", -1, "fixed aggression level 0-3 (-1 = paper's 5/45/45/5 mix)")
		basisRoot   = flag.Int("basis", 2, "basis gate iSWAP^(1/n): 2 = sqrt-iSWAP")
		layoutT     = flag.Int("layout-trials", 20, "independent layout trials")
		routingT    = flag.Int("routing-trials", 20, "independent routing trials per layout")
		fwdBwd      = flag.Int("fwdbwd", 4, "forward/backward layout passes")
		seed        = flag.Int64("seed", 1, "random seed")
		emit        = flag.String("emit", "", "write the routed circuit as QASM to this path (consolidated blocks and mirror gates keep internal names that -qasm cannot read back)")
		list        = flag.Bool("list", false, "list available benchmark circuits and exit")
		quick       = flag.Bool("quick", false, "use reduced trial counts (4/4/2) for fast runs")
	)
	flag.Parse()

	if *list {
		fmt.Println("Available benchmark circuits (paper Table III):")
		for _, e := range bench.Suite() {
			c := e.Build()
			fmt.Printf("  %-22s %3d qubits %5d 2Q gates  [%s]\n", e.Name, c.NumQubits, c.Count2Q(), e.Class)
		}
		return
	}

	c, err := loadCircuit(*circuitName, *qasmPath)
	if err != nil {
		log.Fatal(err)
	}
	topo, err := buildTopology(*topoName, *lineN, *gridRows, *gridCols)
	if err != nil {
		log.Fatal(err)
	}
	if *quick {
		*layoutT, *routingT, *fwdBwd = 4, 4, 2
	}

	opts := transpile.Options{
		Basis:          polytope.NewISwapRootCoverage(*basisRoot),
		DepthSelection: *depthSel,
		Layout: sabre.LayoutOptions{
			LayoutTrials:  *layoutT,
			RoutingTrials: *routingT,
			FwdBwdPasses:  *fwdBwd,
			Seed:          *seed,
		},
	}
	switch *routerName {
	case "sabre":
		opts.Router = transpile.SABRE
	case "mirage":
		opts.Router = transpile.MIRAGE
	default:
		log.Fatalf("unknown router %q", *routerName)
	}
	if *aggression >= 0 && *aggression <= 3 {
		a := mirage.Aggression(*aggression)
		opts.FixedAggression = &a
	}

	rep, err := transpile.Transpile(c, topo, opts)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("circuit : %s (%d qubits, %d 2Q gates)\n", c.Name, c.NumQubits, c.Count2Q())
	fmt.Printf("topology: %s (%d qubits, %d edges)\n", topo.Name, topo.NumQubits, len(topo.Edges()))
	fmt.Printf("router  : %s (depth-selection=%v)\n", rep.Router, *depthSel)
	fmt.Println(rep.Summary())
	if *emit != "" {
		if err := os.WriteFile(*emit, []byte(circuit.WriteQASM(rep.Routed)), 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("routed circuit written to %s\n", *emit)
	}
}

func loadCircuit(name, qasmPath string) (*circuit.Circuit, error) {
	if qasmPath != "" {
		src, err := os.ReadFile(qasmPath)
		if err != nil {
			return nil, err
		}
		return circuit.ParseQASM(string(src))
	}
	e, err := bench.ByName(name)
	if err != nil {
		return nil, fmt.Errorf("%w (use -list to see options)", err)
	}
	return e.Build(), nil
}

func buildTopology(name string, n, rows, cols int) (*topology.Topology, error) {
	switch name {
	case "square":
		return topology.SquareLattice66(), nil
	case "heavyhex":
		return topology.HeavyHex57(), nil
	case "line":
		return topology.Line(n), nil
	case "ring":
		return topology.Ring(n), nil
	case "a2a":
		return topology.AllToAll(n), nil
	case "grid":
		return topology.Grid(rows, cols), nil
	}
	return nil, fmt.Errorf("unknown topology %q", name)
}
