package oblivious

import (
	"testing"

	"negotiator/internal/sim"
	"negotiator/internal/topo"
	"negotiator/internal/workload"
)

func benchEngine(b *testing.B, load float64) *Engine {
	b.Helper()
	top, err := topo.NewThinClos(128, 8, 16)
	if err != nil {
		b.Fatal(err)
	}
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

// BenchmarkSlotSaturated measures one round-robin timeslot (1024 port
// decisions: relay, spray-lane head, VOQ admission) at full load.
func BenchmarkSlotSaturated(b *testing.B) {
	e := benchEngine(b, 1.0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.RunRound()
	}
}

// BenchmarkSlotLight is the near-idle slot cost.
func BenchmarkSlotLight(b *testing.B) {
	e := benchEngine(b, 0.05)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.RunRound()
	}
}
