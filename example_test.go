package negotiator_test

import (
	"fmt"

	negotiator "negotiator"
)

// ExampleSpec_Build runs a small NegotiaToR fabric for one millisecond of
// simulated time and prints deterministic headline facts.
func ExampleSpec_Build() {
	spec := negotiator.SmallSpec() // 16 ToRs x 4 ports
	fab, err := spec.Build()
	if err != nil {
		fmt.Println(err)
		return
	}
	fab.SetWorkload(negotiator.PoissonWorkload(spec, negotiator.Hadoop, 0.5, 42))
	fab.Run(1 * negotiator.Millisecond)

	s := fab.Summary()
	fmt.Println("topology:", spec.Topology)
	fmt.Println("epoch:", s.EpochLen)
	fmt.Println("completed any flows:", s.Flows > 0)
	fmt.Println("all bytes accounted:", s.Delivered <= s.Injected)
	// Output:
	// topology: parallel
	// epoch: 2.94µs
	// completed any flows: true
	// all bytes accounted: true
}

// ExampleIncastWorkload shows the scheduling-delay bypass: an incast of
// 1 KB flows finishes within a few epochs regardless of its degree.
func ExampleIncastWorkload() {
	spec := negotiator.SmallSpec()
	wl, err := negotiator.IncastWorkload(spec, 3, 10, 1000, negotiator.Time(10*negotiator.Microsecond), 1, 7)
	if err != nil {
		fmt.Println(err)
		return
	}
	fab, _ := spec.Build()
	fab.SetWorkload(wl)
	fab.Run(200 * negotiator.Microsecond)

	ev := fab.Events()[1]
	fmt.Println("flows done:", ev.Done, "of", ev.Flows)
	fmt.Println("finished within 4 epochs:", ev.FinishTime() < 4*fab.Summary().EpochLen)
	// Output:
	// flows done: 10 of 10
	// finished within 4 epochs: true
}

// ExampleSpec_Build_oblivious builds the traffic-oblivious baseline for
// the same spec: the relay detour makes even a single small flow take two
// propagation delays.
func ExampleSpec_Build_oblivious() {
	spec := negotiator.SmallSpec()
	spec.ControlPlane = negotiator.ObliviousPlane
	fab, _ := spec.Build()
	fab.SetWorkload(negotiator.SinglePairWorkload(0, 9, 20<<10, 0))
	fab.Run(200 * negotiator.Microsecond)

	s := fab.Summary()
	fmt.Println("delivered all:", s.Delivered == s.Injected)
	fmt.Println("two-hop latency:", s.All99p >= 2*spec.PropDelay)
	// Output:
	// delivered all: true
	// two-hop latency: true
}

// ExampleTrace_MeanFlowBytes orders the paper's workloads by weight.
func ExampleTrace_MeanFlowBytes() {
	heavier := negotiator.WebSearch.MeanFlowBytes() > negotiator.Hadoop.MeanFlowBytes()
	lighter := negotiator.Google.MeanFlowBytes() < negotiator.Hadoop.MeanFlowBytes()
	fmt.Println("websearch heavier than hadoop:", heavier)
	fmt.Println("google lighter than hadoop:", lighter)
	// Output:
	// websearch heavier than hadoop: true
	// google lighter than hadoop: true
}
