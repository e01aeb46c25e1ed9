package hybrid

import (
	"testing"

	"negotiator/internal/negotiator"
	"negotiator/internal/sim"
	"negotiator/internal/topo"
	"negotiator/internal/workload"
)

func testConfig(t testing.TB, tors, ports int) negotiator.Config {
	t.Helper()
	top, err := topo.NewParallel(tors, ports)
	if err != nil {
		t.Fatal(err)
	}
	return negotiator.Config{
		Topology:        top,
		HostRate:        sim.Gbps(200),
		PriorityQueues:  true,
		CheckInvariants: true,
	}
}

// TestMiceNeverNegotiate: a mice-only workload must complete entirely over
// the round-robin predefined schedule — the scheduler never grants.
func TestMiceNeverNegotiate(t *testing.T) {
	e, err := New(testConfig(t, 16, 4))
	if err != nil {
		t.Fatal(err)
	}
	e.SetWorkload(workload.NewAllToAll(16, 8<<10, 0)) // 8 KB: all mice
	if !e.Drain(100_000) {
		t.Fatal("mice failed to drain over the round-robin schedule")
	}
	r := e.Results()
	if r.MatchRatio.Len() == 0 {
		t.Fatal("no epochs observed")
	}
	if got := r.MatchRatio.Mean(); got != 0 {
		t.Errorf("mice-only run produced match activity (ratio %v)", got)
	}
	if r.FCT.MiceCount() != 16*15 {
		t.Errorf("mice completed = %d, want %d", r.FCT.MiceCount(), 16*15)
	}
}

// TestElephantsNeverRideRoundRobin: with only elephant traffic the
// predefined phase moves nothing; all bytes arrive via negotiated
// scheduled connections, so match activity is sustained.
func TestElephantsNeverRideRoundRobin(t *testing.T) {
	e, err := New(testConfig(t, 16, 4))
	if err != nil {
		t.Fatal(err)
	}
	e.SetWorkload(workload.NewAllToAll(16, 64<<10, 0)) // 64 KB: all elephants
	if !e.Drain(100_000) {
		t.Fatal("elephants failed to drain")
	}
	r := e.Results()
	if r.FCT.Count() != 16*15 {
		t.Errorf("flows completed = %d, want %d", r.FCT.Count(), 16*15)
	}
	if r.FCT.MiceCount() != 0 {
		t.Errorf("mice count = %d for an elephant-only workload", r.FCT.MiceCount())
	}
	if ratio := r.MatchRatio.Mean(); ratio <= 0 {
		t.Errorf("match ratio %v: elephants must negotiate", ratio)
	}
}

// TestMiceFCTBoundedUnderElephantLoad: the hybrid's whole point — mice
// FCT stays bounded by the round-robin period regardless of elephant
// pressure, because mice never queue behind a negotiation. A 595-byte
// mouse completes in one epoch (+ propagation) even at saturating
// elephant load.
func TestMiceFCTBoundedUnderElephantLoad(t *testing.T) {
	cfg := testConfig(t, 16, 4)
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	elephants := workload.NewAllToAll(16, 4<<20, 0)
	mouse := workload.NewSinglePair(3, 11, 500, sim.Time(50*sim.Microsecond))
	e.SetWorkload(workload.NewMerge(elephants, mouse))
	e.Run(200 * sim.Microsecond)
	r := e.Results()
	if r.FCT.MiceCount() != 1 {
		t.Fatalf("mouse incomplete: %d mice done", r.FCT.MiceCount())
	}
	// One epoch's predefined slot plus propagation, rounded up to the
	// epoch the mouse is injected into: comfortably under three epochs.
	if limit := 3 * e.epochLn; r.FCT.MiceP(100) > limit {
		t.Errorf("mouse FCT %v exceeds %v under elephant saturation", r.FCT.MiceP(100), limit)
	}
}

// steadyEngine builds a paper-scale hybrid engine saturated with
// long-lived elephants and runs it past all warm-up growth (mirrors the
// NegotiaToR engine's zero-alloc harness).
func steadyEngine(tb testing.TB, warmupEpochs int) *Engine {
	tb.Helper()
	top, err := topo.NewParallel(128, 8)
	if err != nil {
		tb.Fatal(err)
	}
	e, err := New(negotiator.Config{Topology: top, HostRate: sim.Gbps(400), PriorityQueues: true, Seed: 1})
	if err != nil {
		tb.Fatal(err)
	}
	e.SetWorkload(workload.NewAllToAll(128, 1<<30, 0))
	e.RunEpochs(warmupEpochs)
	if !e.WorkloadDone() {
		tb.Fatal("steady state not reached: workload not exhausted")
	}
	return e
}

// TestEpochSteadyStateZeroAlloc extends the zero-alloc contract to the
// hybrid engine: a steady-state epoch performs no heap allocation.
func TestEpochSteadyStateZeroAlloc(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale engine in -short mode")
	}
	e := steadyEngine(t, 700)
	allocs := testing.AllocsPerRun(100, func() { e.RunRound() })
	if allocs != 0 {
		t.Errorf("steady-state hybrid epoch allocates %.1f objects/epoch, want 0", allocs)
	}
}

// BenchmarkEpochSteadyStateHybrid measures the allocation-free hybrid
// epoch (companion to the NegotiaToR engine's steady-state benchmarks).
func BenchmarkEpochSteadyStateHybrid(b *testing.B) {
	e := steadyEngine(b, 700)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.RunRound()
	}
}
