// Quickstart: build a small NegotiaToR fabric, run the paper's default
// Hadoop workload at 50% load, and print the headline metrics.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	negotiator "negotiator"
)

func main() {
	// SmallSpec is a 16-ToR x 4-port network; DefaultSpec gives the
	// paper's full 128x8 setup.
	spec := negotiator.SmallSpec()
	spec.Topology = negotiator.ParallelNetwork

	fab, err := spec.Build()
	if err != nil {
		log.Fatal(err)
	}

	// Background traffic: Poisson arrivals, flow sizes from the Meta
	// Hadoop trace, network load 50% (paper §4.1).
	fab.SetWorkload(negotiator.PoissonWorkload(spec, negotiator.Hadoop, 0.5, 42))

	// Simulate 2 ms of fabric time.
	fab.Run(2 * negotiator.Millisecond)

	s := fab.Summary()
	fmt.Printf("NegotiaToR on the %v topology (%d ToRs x %d ports)\n",
		spec.Topology, spec.ToRs, spec.Ports)
	fmt.Printf("  epoch length:        %v (predefined + scheduled phase)\n", s.EpochLen)
	fmt.Printf("  flows completed:     %d (%d mice < 10KB)\n", s.Flows, s.MiceFlows)
	fmt.Printf("  mice FCT 99p / mean: %v / %v\n", s.Mice99p, s.MiceMean)
	fmt.Printf("  goodput:             %.1f%% of host bandwidth\n", 100*s.GoodputNormalized)
	fmt.Printf("  match ratio:         %.3f (theory ~0.63-0.68, Appendix A.1)\n", s.MatchRatio)

	// The same spec runs the traffic-oblivious baseline for comparison.
	spec.ControlPlane = negotiator.ObliviousPlane
	base, err := spec.Build()
	if err != nil {
		log.Fatal(err)
	}
	base.SetWorkload(negotiator.PoissonWorkload(spec, negotiator.Hadoop, 0.5, 42))
	base.Run(2 * negotiator.Millisecond)
	b := base.Summary()
	fmt.Printf("\ntraffic-oblivious baseline (same load):\n")
	fmt.Printf("  mice FCT 99p / mean: %v / %v\n", b.Mice99p, b.MiceMean)
	fmt.Printf("  goodput:             %.1f%% of host bandwidth\n", 100*b.GoodputNormalized)
}
