package hybrid

import (
	"runtime"
	"testing"

	"negotiator/internal/negotiator"
	"negotiator/internal/sim"
	"negotiator/internal/topo"
	"negotiator/internal/workload"
)

// The sparse benchmarks run workload.Permutation: one enormous elephant
// per active ToR to its cyclic successor, every other elephant queue and
// every mice queue empty. The mice sweep and the elephant demand view are
// exactly the paths that must be O(active destinations) here; at 4096
// ToRs the lazy node slabs additionally keep memory O(active nodes).

func sparseEngine(tb testing.TB, n, active int) *Engine {
	tb.Helper()
	top, err := topo.NewParallel(n, 8)
	if err != nil {
		tb.Fatal(err)
	}
	e, err := New(negotiator.Config{
		Topology: top,
		HostRate: sim.Gbps(400),
		Seed:     1,
	})
	if err != nil {
		tb.Fatal(err)
	}
	perm, err := workload.NewPermutation(n, active, 1<<32, 0)
	if err != nil {
		tb.Fatal(err)
	}
	e.SetWorkload(perm)
	e.RunEpochs(4)
	if !e.WorkloadDone() {
		tb.Fatal("sparse steady state not reached: workload not exhausted")
	}
	return e
}

// BenchmarkEpochSparse1024 measures the hybrid per-epoch cost at 1024
// ToRs with one active elephant destination per ToR (see BENCH_pr4.json).
func BenchmarkEpochSparse1024(b *testing.B) {
	e := sparseEngine(b, 1024, 1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.RunRound()
	}
}

// BenchmarkEpochSparse4096 is the lazy-slab scale tier: 4096 ToRs, 256
// active (see the NegotiaToR engine's BenchmarkEpochSparse4096).
func BenchmarkEpochSparse4096(b *testing.B) {
	e := sparseEngine(b, 4096, 256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.RunRound()
	}
}

// BenchmarkEpochSparse65536 is the paged-slab scale tier: 65,536 ToRs,
// 256 active elephants. Mice spray lanes span the full width by design,
// so the hybrid's footprint is dominated by the active sources' lane
// page tables; the ceiling asserts the paged decoupling holds for the
// mixed mice/elephant plane as well.
func BenchmarkEpochSparse65536(b *testing.B) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	e := sparseEngine(b, 65536, 256)
	runtime.ReadMemStats(&after)
	total := after.TotalAlloc - before.TotalAlloc
	if total > 2048<<20 {
		b.Fatalf("65536-ToR sparse setup allocated %d MB, ceiling 2048 MB: per-destination state is width-coupled again", total>>20)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.RunRound()
	}
	// After the loop: ResetTimer discards metrics reported before it.
	b.ReportMetric(float64(total)/65536, "setup-bytes/ToR")
}
