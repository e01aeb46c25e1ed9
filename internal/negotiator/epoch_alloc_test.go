package negotiator

import (
	"testing"

	"negotiator/internal/sim"
	"negotiator/internal/topo"
	"negotiator/internal/workload"
)

// steadyEngine builds a paper-scale engine saturated with long-lived
// elephant flows (one huge flow per ToR pair) and runs it past the
// pipeline fill and all warm-up slice growth. After the workload generator
// is exhausted, each epoch exercises the full hot path — REQUEST, GRANT,
// ACCEPT, piggybacking, and scheduled transmission on every matched port —
// with no new flow arrivals, which is the engine's steady state.
func steadyEngine(tb testing.TB, kind string, warmupEpochs int) *Engine {
	tb.Helper()
	var top topo.Topology
	var err error
	if kind == "parallel" {
		top, err = topo.NewParallel(128, 8)
	} else {
		top, err = topo.NewThinClos(128, 8, 16)
	}
	if err != nil {
		tb.Fatal(err)
	}
	e, err := New(Config{
		Topology:       top,
		HostRate:       sim.Gbps(400),
		Piggyback:      true,
		PriorityQueues: true,
		Seed:           1,
	})
	if err != nil {
		tb.Fatal(err)
	}
	// 1 GiB per pair: far more than the warm-up plus measurement epochs can
	// drain, so no flow completes (completions append to FCT stats) and
	// every queue stays deep enough to request every epoch.
	e.SetWorkload(workload.NewAllToAll(128, 1<<30, 0))
	e.RunEpochs(warmupEpochs)
	if !e.WorkloadDone() {
		tb.Fatal("steady state not reached: workload not exhausted")
	}
	return e
}

// TestEpochSteadyStateZeroAlloc pins the tentpole property of the hot
// path: a steady-state epoch performs no heap allocation on either
// topology. The only amortised allocations left are slice growth in the
// per-epoch match-ratio series, which the warm-up pre-grows past the
// measured window.
func TestEpochSteadyStateZeroAlloc(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale engines in -short mode")
	}
	for _, kind := range []string{"parallel", "thinclos"} {
		t.Run(kind, func(t *testing.T) {
			// 700 warm-up epochs leave the Ratio series at capacity 1024;
			// the 101 measured epochs stay under it.
			e := steadyEngine(t, kind, 700)
			allocs := testing.AllocsPerRun(100, func() { e.RunRound() })
			if allocs != 0 {
				t.Errorf("%s: steady-state epoch allocates %.1f objects/epoch, want 0", kind, allocs)
			}
		})
	}
}

// BenchmarkEpochSteadyStateParallel measures the allocation-free epoch on
// the parallel network: full matcher activity and saturated scheduled
// phases, no flow churn. Companion to BenchmarkEpochParallel, which
// includes Poisson injection (and therefore allocates per arriving flow).
func BenchmarkEpochSteadyStateParallel(b *testing.B) {
	e := steadyEngine(b, "parallel", 700)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.RunRound()
	}
}

// BenchmarkEpochSteadyStateThinClos is the thin-clos counterpart.
func BenchmarkEpochSteadyStateThinClos(b *testing.B) {
	e := steadyEngine(b, "thinclos", 700)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.RunRound()
	}
}
