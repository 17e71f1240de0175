// heavyhex_qft routes an 18-qubit QFT onto the paper's 57-qubit
// heavy-hex machine (the Fig. 12a/b scenario) and prints a full
// before/after comparison, including the per-region decomposition
// breakdown of the routed circuit.
package main

import (
	"fmt"
	"log"

	mirpub "repro"
	"repro/internal/circuit"
	"repro/internal/polytope"
)

func main() {
	circ := mirpub.QFT(18)
	topo := mirpub.HeavyHex57()

	fmt.Printf("routing %s (%d 2Q gates) onto %s (%d qubits)\n\n",
		circ.Name, circ.Count2Q(), topo.Name, topo.NumQubits)

	layout := mirpub.LayoutOptions{LayoutTrials: 8, RoutingTrials: 8, FwdBwdPasses: 3, Seed: 1}
	baseline, err := mirpub.Transpile(circ, topo, mirpub.Options{
		Router: mirpub.SABRE, Layout: layout,
	})
	if err != nil {
		log.Fatal(err)
	}
	routed, err := mirpub.Transpile(circ, topo, mirpub.Options{
		Router: mirpub.MIRAGE, DepthSelection: true, Layout: layout,
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("SABRE :", baseline.Summary())
	fmt.Println("MIRAGE:", routed.Summary())
	fmt.Printf("\ndepth  reduction: %6.1f%%   (paper avg on heavy-hex: 31.2%%)\n",
		100*(baseline.DepthPulses-routed.DepthPulses)/baseline.DepthPulses)
	fmt.Printf("gate   reduction: %6.1f%%   (paper avg on heavy-hex: 17.0%%)\n",
		100*(baseline.TotalBasisGates-routed.TotalBasisGates)/baseline.TotalBasisGates)

	// Decomposition breakdown: how many blocks land in each coverage
	// region of the sqrt-iSWAP basis.
	cov := polytope.NewISwapRootCoverage(2)
	histo := map[int]int{}
	for _, op := range routed.Reconsolidated.Ops {
		if !op.Is2Q() {
			continue
		}
		r, _ := cov.MinCost(circuit.OpCoordinate(op), false)
		histo[r.K]++
	}
	fmt.Println("\nMIRAGE output blocks by sqrt-iSWAP applications k:")
	for k := 1; k <= cov.MaxK(); k++ {
		if histo[k] > 0 {
			fmt.Printf("  k=%d: %4d blocks\n", k, histo[k])
		}
	}
}
