package negotiator

import (
	"testing"

	"negotiator/internal/sim"
	"negotiator/internal/topo"
	"negotiator/internal/workload"
)

// BenchmarkIncrementalMatch measures the request phase's demand-version
// cache in the regime it targets: demand rows that stand still between
// epochs. With Piggyback off, elephant VOQs drain only through scheduled
// matches, so every epoch the 16 incast destinations grant a few dozen of
// the 512 contending sources and the losers' rows are untouched — ~480 of
// 512 sources replay their cached emissions (bulk per-shard segment
// appends; no failures are active) instead of re-walking their
// occupancy set and re-reading queue depths ("cached" = default engine,
// "scratch" = DisableIncremental, the pre-PR-7 behavior). The win is
// bounded by the request phase's share of the epoch: grants, accepts and
// the transmit phases are identical either way.
func incastEngine(tb testing.TB, incremental bool) *Engine {
	tb.Helper()
	const n = 512
	top, err := topo.NewParallel(n, 8)
	if err != nil {
		tb.Fatal(err)
	}
	e, err := New(Config{
		Topology:           top,
		HostRate:           sim.Gbps(400),
		Seed:               1,
		DisableIncremental: !incremental,
	})
	if err != nil {
		tb.Fatal(err)
	}
	gens := make([]workload.Generator, 0, 16)
	for d := 0; d < 16; d++ {
		inc, err := workload.NewIncast(n, d, n-1, 1<<28, 0, d, int64(d+1))
		if err != nil {
			tb.Fatal(err)
		}
		gens = append(gens, inc)
	}
	e.SetWorkload(workload.NewMerge(gens...))
	e.RunEpochs(8)
	if !e.WorkloadDone() {
		tb.Fatal("incast steady state not reached: workload not exhausted")
	}
	return e
}

func BenchmarkIncrementalMatch(b *testing.B) {
	for _, bc := range []struct {
		name        string
		incremental bool
	}{{"cached", true}, {"scratch", false}} {
		b.Run(bc.name, func(b *testing.B) {
			e := incastEngine(b, bc.incremental)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.RunRound()
			}
		})
	}
}
