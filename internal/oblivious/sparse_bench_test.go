package oblivious

import (
	"runtime"
	"testing"

	"negotiator/internal/sim"
	"negotiator/internal/topo"
	"negotiator/internal/workload"
)

// The sparse benchmarks run workload.Permutation: one enormous flow per
// active ToR to its cyclic successor. Under the slot-time-spray
// disciplines each active source holds exactly one non-empty destination
// queue, so the per-port spray scan — which walks destinations looking
// for backlog — must be O(active), not O(N), and idle nodes must be
// skipped by the O(1) per-class aggregates rather than walked port by
// port. (Intermediates still materialize relay slabs as spray traffic
// reaches them — memory follows real occupancy.)

func sparseEngine(tb testing.TB, n, active int) *Engine {
	tb.Helper()
	top, err := topo.NewParallel(n, 8)
	if err != nil {
		tb.Fatal(err)
	}
	e, err := New(Config{
		Topology:            top,
		HostRate:            sim.Gbps(400),
		OpportunisticDirect: true,
		Seed:                1,
	})
	if err != nil {
		tb.Fatal(err)
	}
	perm, err := workload.NewPermutation(n, active, 1<<32, 0)
	if err != nil {
		tb.Fatal(err)
	}
	e.SetWorkload(perm)
	for i := 0; i < 2*e.slots; i++ {
		e.RunRound()
	}
	if !e.WorkloadDone() {
		tb.Fatal("sparse steady state not reached: workload not exhausted")
	}
	return e
}

// BenchmarkSlotSparse1024 measures one timeslot at 1024 ToRs under sparse
// traffic with the RotorLB-style opportunistic discipline (slot-time
// spray over the per-destination queues). See BENCH_pr4.json.
func BenchmarkSlotSparse1024(b *testing.B) {
	e := sparseEngine(b, 1024, 1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.RunRound()
	}
}

// BenchmarkSlotSparse4096 is the lazy-slab scale tier: 4096 ToRs, 256
// active sources. The warm-up runs two full round-robin cycles, so the
// steady state includes the relay slabs spray traffic has materialized.
func BenchmarkSlotSparse4096(b *testing.B) {
	e := sparseEngine(b, 4096, 256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.RunRound()
	}
}

// BenchmarkSlotSparse8192 is the scale tier PR 5 opened but never
// measured: 8192 ToRs, 256 active sources, opportunistic spray. The
// memory ceiling is a hard assertion. Spray traffic reaches every
// intermediate, and each touched node materializes an N-wide relay slab,
// so this discipline's floor at 8192 ToRs is ~2.9 GB (node-lazy but
// destination-eager — the next slab-granularity rung on the ROADMAP);
// the 4 GB ceiling locks that floor and still fails fast if the
// construction-time eager layout (~17 GB here) returns.
func BenchmarkSlotSparse8192(b *testing.B) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	e := sparseEngine(b, 8192, 256)
	runtime.ReadMemStats(&after)
	total := after.TotalAlloc - before.TotalAlloc
	if total > 4096<<20 {
		b.Fatalf("8192-ToR sparse setup allocated %d MB, ceiling 4096 MB: relay-slab memory no longer follows node occupancy", total>>20)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.RunRound()
	}
	// After the loop: ResetTimer discards metrics reported before it.
	b.ReportMetric(float64(total)/8192, "setup-bytes/ToR")
}

// BenchmarkSlotSparse65536 is the scale tier paged destination slabs
// open: 65,536 ToRs, 256 active sources. Spray traffic still reaches
// every intermediate, but each one now materializes a relay page table
// (N/128 pointers) plus only the pages covering the ~256 active
// destinations — ~20 KB instead of the ~350 KB an N-wide relay slab
// would cost here (~22 GB fabric-wide, which made this tier
// unreachable). The 4 GB ceiling is a hard assertion: it locks the
// paged floor and fails fast if relay memory becomes width-proportional
// again.
func BenchmarkSlotSparse65536(b *testing.B) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	e := sparseEngine(b, 65536, 256)
	runtime.ReadMemStats(&after)
	total := after.TotalAlloc - before.TotalAlloc
	if total > 4096<<20 {
		b.Fatalf("65536-ToR sparse setup allocated %d MB, ceiling 4096 MB: relay memory is width-proportional again", total>>20)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.RunRound()
	}
	// After the loop: ResetTimer discards metrics reported before it.
	b.ReportMetric(float64(total)/65536, "setup-bytes/ToR")
}

// BenchmarkSlotSparse131072 is the tier the destination-inverted drain
// walk opens: 131,072 ToRs, 256 active sources. Relay memory is paged and
// the per-slot walks are occupancy-driven (serve over the direct/lane
// sets, drain over backlogged relay destinations via the topology
// inverse), so doubling the width over the 65,536 tier must move neither
// the setup footprint per ToR nor the slot cost materially. The 8 GB
// ceiling is a hard assertion calibrated ~2x above the measured paged
// floor (the relay page tables grow with N, so the per-ToR cost rises
// gently), and fails fast if width-proportional state returns.
func BenchmarkSlotSparse131072(b *testing.B) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	e := sparseEngine(b, 131072, 256)
	runtime.ReadMemStats(&after)
	total := after.TotalAlloc - before.TotalAlloc
	if total > 8192<<20 {
		b.Fatalf("131072-ToR sparse setup allocated %d MB, ceiling 8192 MB: width-proportional memory is back", total>>20)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.RunRound()
	}
	// After the loop: ResetTimer discards metrics reported before it.
	b.ReportMetric(float64(total)/131072, "setup-bytes/ToR")
}

// replicateGen replays each arrival of the wrapped generator k times: the
// ungrouped ground truth the flow-group benchmark compares against.
type replicateGen struct {
	g    workload.Generator
	k    int
	left int
	cur  workload.Arrival
}

func (r *replicateGen) Next() (workload.Arrival, bool) {
	if r.left == 0 {
		a, ok := r.g.Next()
		if !ok {
			return workload.Arrival{}, false
		}
		r.cur, r.left = a, r.k
	}
	r.left--
	return r.cur, true
}

// millionFlowInject builds a 65,536-ToR engine carrying 1,048,576 host
// flows — 256 permutation pairs with 4096 identical flows each — and
// returns the engine plus the bytes allocated while the first slot pumped
// every arrival in. grouped injects each pair as one 4096-member record;
// ungrouped injects 4096 separate flow records per pair.
func millionFlowInject(tb testing.TB, grouped bool) (*Engine, uint64) {
	tb.Helper()
	top, err := topo.NewParallel(65536, 8)
	if err != nil {
		tb.Fatal(err)
	}
	e, err := New(Config{
		Topology:            top,
		HostRate:            sim.Gbps(400),
		OpportunisticDirect: true,
		Seed:                1,
	})
	if err != nil {
		tb.Fatal(err)
	}
	perm, err := workload.NewPermutation(65536, 256, 2460, 0)
	if err != nil {
		tb.Fatal(err)
	}
	var w workload.Generator
	if grouped {
		if w, err = workload.NewGroupBy(perm, 4096); err != nil {
			tb.Fatal(err)
		}
	} else {
		w = &replicateGen{g: perm, k: 4096}
	}
	e.SetWorkload(w)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	e.RunRound() // every arrival is at t=0: one slot pumps them all
	runtime.ReadMemStats(&after)
	if !e.WorkloadDone() {
		tb.Fatal("first slot did not drain the workload")
	}
	return e, after.TotalAlloc - before.TotalAlloc
}

// BenchmarkMillionFlowGroups is the million-flow tier: 1,048,576 host
// flows open at 65,536 ToRs behind 256 group records. The injection-phase
// allocation per host flow must be at least 10x below the ungrouped
// layout: the flow table holds 256 records instead of 1,048,576 and the
// VOQs hold 256 segments instead of 1,048,576, so the grouped slot's
// remaining allocation is occupancy cost (destination pages, relay pages
// the first spray materializes) that does not scale with the member
// count at all. It was ~11 B per host flow against ~130 ungrouped before
// destination pages held all three PIAS levels inline; now it is 16.2 B
// against 136.3, below the floor (ROADMAP item 8).
// The whole grouped setup also stays under a hard 4 GB ceiling that an
// ungrouped-record flow table at this width would strain alongside it.
// The timed loop then runs steady-state slots with the grouped table
// live.
func BenchmarkMillionFlowGroups(b *testing.B) {
	const hostFlows = 256 * 4096
	// Ungrouped reference first, then released, so the two flow tables are
	// never live together.
	eu, ungrouped := millionFlowInject(b, false)
	_ = eu
	eu = nil
	runtime.GC()

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	e, grouped := millionFlowInject(b, true)
	runtime.ReadMemStats(&after)
	if total := after.TotalAlloc - before.TotalAlloc; total > 4096<<20 {
		b.Fatalf("grouped million-flow setup allocated %d MB, ceiling 4096 MB", total>>20)
	}
	perFlowG := float64(grouped) / hostFlows
	perFlowU := float64(ungrouped) / hostFlows
	if perFlowG*10 > perFlowU {
		b.Fatalf("grouped injection costs %.1f B per host flow, ungrouped %.1f: less than the 10x aggregation floor",
			perFlowG, perFlowU)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.RunRound()
	}
	// After the loop: ResetTimer discards metrics reported before it.
	b.ReportMetric(perFlowG, "grouped-bytes/flow")
	b.ReportMetric(perFlowU, "ungrouped-bytes/flow")
}
