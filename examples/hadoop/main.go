// Hadoop load sweep: a miniature of the paper's main result (§4.3,
// Figure 9) — mice-flow tail FCT and goodput across network loads for
// NegotiaToR on both flat topologies versus the traffic-oblivious
// baseline, under the Meta Hadoop workload.
//
//	go run ./examples/hadoop
package main

import (
	"fmt"
	"log"

	negotiator "negotiator"
)

func main() {
	loads := []float64{0.25, 0.5, 0.75, 1.0}
	systems := []struct {
		name  string
		top   negotiator.Topology
		plane negotiator.ControlPlaneKind
	}{
		{"negotiator/parallel", negotiator.ParallelNetwork, negotiator.NegotiaToRPlane},
		{"negotiator/thin-clos", negotiator.ThinClos, negotiator.NegotiaToRPlane},
		{"oblivious/thin-clos", negotiator.ThinClos, negotiator.ObliviousPlane},
	}

	for _, sys := range systems {
		fmt.Printf("%s:\n", sys.name)
		fmt.Printf("  %-8s %-16s %-10s\n", "load", "mice 99p FCT", "goodput")
		for _, load := range loads {
			spec := negotiator.SmallSpec()
			spec.Topology = sys.top
			spec.ControlPlane = sys.plane

			fab, err := spec.Build()
			if err != nil {
				log.Fatal(err)
			}
			fab.SetWorkload(negotiator.PoissonWorkload(spec, negotiator.Hadoop, load, 11))
			fab.Run(3 * negotiator.Millisecond)

			s := fab.Summary()
			fmt.Printf("  %-8.0f%% %-16v %-10.3f\n", load*100, s.Mice99p, s.GoodputNormalized)
		}
		fmt.Println()
	}
	fmt.Println("Expected shape (paper Figure 9): NegotiaToR's mice FCT stays in the")
	fmt.Println("tens of microseconds at every load, while the baseline's tail grows")
	fmt.Println("with load as relayed elephants block mice at intermediate ToRs; at")
	fmt.Println("heavy load NegotiaToR also delivers more goodput because one-hop")
	fmt.Println("paths don't double the traffic volume.")
}
