// Incast: reproduce the paper's incast microbenchmark (§4.2, Figure 7a) at
// example scale. A set of ToRs synchronously send one 1 KB flow each to the
// same destination; NegotiaToR's data piggybacking lets every source bypass
// the scheduling delay, so the finish time stays flat as the incast degree
// grows, while the traffic-oblivious baseline pays the relay detour.
//
//	go run ./examples/incast
package main

import (
	"fmt"
	"log"

	negotiator "negotiator"
)

func main() {
	const (
		dst      = 3
		flowSize = 1000 // bytes per sender, as in the paper
	)
	inject := negotiator.Time(10 * negotiator.Microsecond)

	fmt.Println("incast finish time (µs) vs degree:")
	fmt.Printf("%-8s %-14s %-14s %-14s\n", "degree", "negotiator/par", "negotiator/tc", "oblivious")
	for _, degree := range []int{2, 5, 10, 15} {
		var row []float64
		for _, sys := range []struct {
			top   negotiator.Topology
			plane negotiator.ControlPlaneKind
		}{
			{negotiator.ParallelNetwork, negotiator.NegotiaToRPlane},
			{negotiator.ThinClos, negotiator.NegotiaToRPlane},
			{negotiator.ThinClos, negotiator.ObliviousPlane},
		} {
			spec := negotiator.SmallSpec()
			spec.Topology = sys.top
			spec.ControlPlane = sys.plane

			wl, err := negotiator.IncastWorkload(spec, dst, degree, flowSize, inject, 1, 7)
			if err != nil {
				log.Fatal(err)
			}
			fab, err := spec.Build()
			if err != nil {
				log.Fatal(err)
			}
			fab.SetWorkload(wl)
			fab.Run(500 * negotiator.Microsecond)

			ev := fab.Events()[1]
			if ev.Done < ev.Flows {
				log.Fatalf("incast did not finish: %+v", ev)
			}
			row = append(row, ev.FinishTime().Micros())
		}
		fmt.Printf("%-8d %-14.1f %-14.1f %-14.1f\n", degree, row[0], row[1], row[2])
	}
	fmt.Println("\nNegotiaToR's finish time stays flat: the predefined phase serves")
	fmt.Println("every source of one destination in parallel, so incast degree only")
	fmt.Println("matters to the baseline's relay queues.")
}
