package oblivious

import (
	"testing"

	"negotiator/internal/sim"
	"negotiator/internal/topo"
	"negotiator/internal/workload"
)

// slotBenchTopologies are the 128-ToR, 8-port fabrics the dense-regime
// slot benchmarks run on: thin-clos, and the parallel network the
// oblivious-incast benchmark workload uses.
func slotBenchTopologies(tb testing.TB) []topo.Topology {
	tc, err := topo.NewThinClos(128, 8, 16)
	if err != nil {
		tb.Fatal(err)
	}
	par, err := topo.NewParallel(128, 8)
	if err != nil {
		tb.Fatal(err)
	}
	return []topo.Topology{tc, par}
}

func benchEngine(b *testing.B, top topo.Topology, load float64) *Engine {
	b.Helper()
	e, err := New(Config{
		Topology:       top,
		HostRate:       sim.Gbps(400),
		PriorityQueues: true,
		Seed:           1,
	})
	if err != nil {
		b.Fatal(err)
	}
	e.SetWorkload(workload.NewPoisson(workload.Hadoop(), 128, load, sim.Gbps(400), 7))
	e.Run(100 * sim.Microsecond) // warm-up
	return e
}

// benchSlots times one RunRound per iteration of an engine per topology.
func benchSlots(b *testing.B, build func(b *testing.B, top topo.Topology) *Engine) {
	for _, top := range slotBenchTopologies(b) {
		b.Run(top.Name(), func(b *testing.B) {
			e := build(b, top)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.RunRound()
			}
		})
	}
}

// BenchmarkSlotSaturated measures one round-robin timeslot (1024 port
// decisions: relay, spray-lane head, VOQ admission) at full load.
func BenchmarkSlotSaturated(b *testing.B) {
	benchSlots(b, func(b *testing.B, top topo.Topology) *Engine { return benchEngine(b, top, 1.0) })
}

// BenchmarkSlotLight is the near-idle slot cost.
func BenchmarkSlotLight(b *testing.B) {
	benchSlots(b, func(b *testing.B, top topo.Topology) *Engine { return benchEngine(b, top, 0.05) })
}

// BenchmarkSlotMidLoad is the slot cost at load 0.4, the background load
// of the oblivious-incast benchmark workload. Here a node's relay and lane
// occupancy bits are neither nearly all set (saturation) nor nearly all
// clear (light load), so a branch per port on them would be mispredicted
// at random: the regime the slot walks' port masks are for, which the
// other two benchmarks cannot show.
func BenchmarkSlotMidLoad(b *testing.B) {
	benchSlots(b, func(b *testing.B, top topo.Topology) *Engine { return benchEngine(b, top, 0.4) })
}
