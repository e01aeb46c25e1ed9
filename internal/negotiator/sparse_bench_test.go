package negotiator

import (
	"runtime"
	"testing"

	"negotiator/internal/sim"
	"negotiator/internal/topo"
	"negotiator/internal/workload"
)

// The sparse benchmarks run the saturated-but-sparse permutation matrix
// (workload.Permutation): every active ToR sends one enormous flow to its
// cyclic successor at t=0, so each epoch has exactly one active
// destination per active source while every other queue stays empty. This
// is the regime where per-round work must be O(active), not O(N) — an N²
// sweep pays ~1M empty-queue reads per epoch for 1024 pairs of actual
// demand — and, at 4096 ToRs, where fabric memory must follow occupancy:
// eager construction allocates ~50M FIFOs before the first flow arrives,
// while lazy slabs materialize only the active nodes.

// sparseEngine builds an n-ToR parallel-network engine saturated with the
// permutation workload over the first `active` ToRs and runs it past the
// pipeline fill, so every measured epoch exercises request/grant/accept
// and a full scheduled phase on the single active destination per source.
func sparseEngine(tb testing.TB, n, active, workers int) *Engine {
	tb.Helper()
	top, err := topo.NewParallel(n, 8)
	if err != nil {
		tb.Fatal(err)
	}
	e, err := New(Config{
		Topology:  top,
		HostRate:  sim.Gbps(400),
		Piggyback: true,
		Seed:      1,
		Workers:   workers,
	})
	if err != nil {
		tb.Fatal(err)
	}
	perm, err := workload.NewPermutation(n, active, 1<<32, 0)
	if err != nil {
		tb.Fatal(err)
	}
	e.SetWorkload(perm)
	e.RunEpochs(8)
	if !e.WorkloadDone() {
		tb.Fatal("sparse steady state not reached: workload not exhausted")
	}
	return e
}

// BenchmarkEpochSparse1024 measures the per-epoch cost at 1024 ToRs under
// sparse traffic (1 active destination per ToR). BENCH_pr4.json records
// the before/after trajectory of the occupancy-index port, BENCH_pr5.json
// the lazy-slab parity check.
func BenchmarkEpochSparse1024(b *testing.B) {
	e := sparseEngine(b, 1024, 1024, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.RunRound()
	}
}

// BenchmarkEpochSparse4096 is the scale tier lazy node slabs open: a
// 4096-ToR priority-queue fabric with 256 active ToRs. Eager construction
// would allocate ~2 GB of queue slabs (plus ~1.5 GB of pre-sized
// mailboxes) before the first arrival; lazily, only the 256 active nodes
// materialize and the per-epoch cost stays O(active).
func BenchmarkEpochSparse4096(b *testing.B) {
	e := sparseEngine(b, 4096, 256, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.RunRound()
	}
}

// BenchmarkEpochSparse8192 is the scale tier PR 5 opened but never
// measured: 8192 ToRs, 256 active. The memory ceiling is a hard
// assertion, not a report — construction plus steady-state warm-up must
// stay under 512 MB of cumulative allocation (lazy slabs put it around
// an order of magnitude below that; the eager layout needed ~16 GB at
// this size and would abort the benchmark here).
func BenchmarkEpochSparse8192(b *testing.B) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	e := sparseEngine(b, 8192, 256, 1)
	runtime.ReadMemStats(&after)
	total := after.TotalAlloc - before.TotalAlloc
	if total > 512<<20 {
		b.Fatalf("8192-ToR sparse setup allocated %d MB, ceiling 512 MB: per-destination state is eager again", total>>20)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.RunRound()
	}
	// After the loop: ResetTimer discards metrics reported before it.
	b.ReportMetric(float64(total)/8192, "setup-bytes/ToR")
}

// BenchmarkEpochSparse65536 is the scale tier paged destination slabs
// open: 65,536 ToRs, 256 active. Before paging, each touched node's
// N-wide queue slab put this size out of reach; paged, an active source
// pays its dense shadow tables plus the two pages its contiguous active
// set occupies. The ceiling is a hard assertion with the same role as
// the 8192 tier's: fail fast if per-destination memory is width-coupled
// again.
func BenchmarkEpochSparse65536(b *testing.B) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	e := sparseEngine(b, 65536, 256, 1)
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
