package negotiator

import (
	"fmt"
	"runtime"
	"testing"

	"negotiator/internal/sim"
	"negotiator/internal/topo"
	"negotiator/internal/workload"
)

// steadyEngineAt builds a saturated engine of the given size with the
// given intra-run worker count (cf. steadyEngine, which pins the paper's
// 128x8 parallel network): one huge flow per ToR pair, run past warm-up so
// every epoch exercises the full hot path with no flow churn.
func steadyEngineAt(tb testing.TB, tors, ports, workers, warmupEpochs int) *Engine {
	tb.Helper()
	top, err := topo.NewParallel(tors, ports)
	if err != nil {
		tb.Fatal(err)
	}
	e, err := New(Config{
		Topology:       top,
		HostRate:       sim.Gbps(int64(ports) * 50),
		Piggyback:      true,
		PriorityQueues: true,
		Seed:           1,
		Workers:        workers,
	})
	if err != nil {
		tb.Fatal(err)
	}
	e.SetWorkload(workload.NewAllToAll(tors, 1<<30, 0))
	e.RunEpochs(warmupEpochs)
	if !e.WorkloadDone() {
		tb.Fatal("steady state not reached: workload not exhausted")
	}
	return e
}

// BenchmarkEpochSteadyStateWorkers measures the sharded epoch at the
// paper's 128 ToRs and at the 256-ToR scale the sharding exists for,
// across worker counts (1, 2, 4, and GOMAXPROCS). On a multi-core host
// the epoch throughput scales with workers up to the core count; on one
// core the >1-worker rows expose the pure barrier/merge overhead of the
// sharded path. BENCH_pr2.json records the trajectory.
func BenchmarkEpochSteadyStateWorkers(b *testing.B) {
	counts := []int{1, 2, 4}
	if nc := runtime.GOMAXPROCS(0); nc > 4 {
		counts = append(counts, nc)
	}
	for _, size := range []struct{ tors, ports int }{{128, 8}, {256, 16}} {
		for _, workers := range counts {
			b.Run(fmt.Sprintf("tors=%d/workers=%d", size.tors, workers), func(b *testing.B) {
				e := steadyEngineAt(b, size.tors, size.ports, workers, 100)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					e.RunRound()
				}
			})
		}
	}
}
