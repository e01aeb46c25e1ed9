package oblivious

import (
	"testing"

	"negotiator/internal/sim"
	"negotiator/internal/topo"
	"negotiator/internal/workload"
)

// steadySlotEngine builds a paper-scale baseline engine saturated with
// long-lived flows (one 4 MB flow per ToR pair, sprayed across lanes in
// coarse chunks to bound segment count) and runs it past all warm-up
// growth: relay VOQs at their caps, record buffers and FIFO backing
// arrays at steady capacity, workload exhausted. Each further slot
// exercises the full service path — relay drains, lane heads, VOQ
// admission — with no flow completing inside the measured window.
func steadySlotEngine(tb testing.TB, top topo.Topology, warmupSlots int) *Engine {
	tb.Helper()
	e, err := New(Config{
		Topology:       top,
		HostRate:       sim.Gbps(400),
		PriorityQueues: true,
		Seed:           1,
	})
	if err != nil {
		tb.Fatal(err)
	}
	e.chunkCells = 64
	e.SetWorkload(workload.NewAllToAll(128, 4<<20, 0))
	for i := 0; i < warmupSlots; i++ {
		e.RunRound()
	}
	if !e.WorkloadDone() {
		tb.Fatal("steady state not reached: workload not exhausted")
	}
	if r := e.Results(); r.FCT.Count() != 0 {
		tb.Fatalf("steady state spoiled: %d flows completed during warm-up", r.FCT.Count())
	}
	return e
}

// TestSlotSteadyStateZeroAlloc extends the zero-alloc steady-state
// guarantee (TestEpochSteadyStateZeroAlloc in the epoch engines) to the
// traffic-oblivious baseline: with segment-array and flow recycling in
// place, a steady-state timeslot performs no heap allocation. This is
// the allocs/op regression guard for the slot path.
func TestSlotSteadyStateZeroAlloc(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale engine in -short mode")
	}
	for _, top := range slotBenchTopologies(t) {
		e := steadySlotEngine(t, top, 2000)
		allocs := testing.AllocsPerRun(100, func() { e.RunRound() })
		if allocs != 0 {
			t.Errorf("%s: steady-state slot allocates %.1f objects/slot, want 0", top.Name(), allocs)
		}
	}
}

// BenchmarkSlotSteadyState measures the allocation-free steady-state
// slot (companion to BenchmarkSlotSaturated, which includes Poisson flow
// churn).
func BenchmarkSlotSteadyState(b *testing.B) {
	benchSlots(b, func(b *testing.B, top topo.Topology) *Engine { return steadySlotEngine(b, top, 2000) })
}
