package negotiator

import (
	"fmt"
	"runtime"
	"testing"

	"negotiator/internal/fabric"
	"negotiator/internal/sim"
	"negotiator/internal/topo"
	"negotiator/internal/workload"
)

// constructionBytes reports the heap bytes allocated building one idle
// n-ToR priority-queue engine (the configuration whose eager construction
// cost — ~3M FIFOs at 1024 ToRs — motivated lazy node slabs).
func constructionBytes(tb testing.TB, n int) uint64 {
	tb.Helper()
	top, err := topo.NewParallel(n, 8)
	if err != nil {
		tb.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	e, err := New(Config{Topology: top, HostRate: sim.Gbps(400), Piggyback: true, PriorityQueues: true, Seed: 1})
	if err != nil {
		tb.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(e)
	return after.TotalAlloc - before.TotalAlloc
}

// TestConstructionFootprintScaling is the eager-construction regression
// guard: engine construction must scale sub-quadratically with the ToR
// count (lazy slabs are ~linear: matcher rings, views, ToR headers). The
// pre-PR-5 eager fabric was quadratic — N nodes × N destination queues ×
// 3 priority FIFOs plus N-1 pre-sized mailbox slots per generation — so a
// 4x larger fabric cost ~16x the bytes; if that sneaks back, the 4096-ToR
// tier stops constructing on modest hosts and this test fails first.
func TestConstructionFootprintScaling(t *testing.T) {
	b256 := constructionBytes(t, 256)
	b1024 := constructionBytes(t, 1024)
	ratio := float64(b1024) / float64(b256)
	t.Logf("construction bytes: 256 ToRs = %d (%.1f KB/ToR), 1024 ToRs = %d (%.1f KB/ToR), ratio %.2f",
		b256, float64(b256)/256/1024, b1024, float64(b1024)/1024/1024, ratio)
	// Linear scaling gives ~4, quadratic ~16; 8 separates them with slack.
	if ratio > 8 {
		t.Errorf("construction bytes grew %.1fx from 256 to 1024 ToRs (want < 8x, ~linear): eager per-destination state is back", ratio)
	}
	// Absolute guard: the eager fabric cost ~500 KB/ToR at 1024.
	if perToR := float64(b1024) / 1024; perToR > 64*1024 {
		t.Errorf("construction costs %.1f KB/ToR at 1024 ToRs, want < 64 KB", perToR/1024)
	}
}

// TestLazyEagerFingerprint4096 proves lazy materialization is invisible
// to the simulation at the new scale tier: a 4096-ToR sparse permutation
// run with default lazy slabs and one with every node slab eagerly
// materialized (pre-PR-5 construction) must agree on every metric.
// Priority queues stay off to keep the EAGER side's ~1.6 GB footprint
// CI-safe; the lazy side allocates ~2 orders of magnitude less.
func TestLazyEagerFingerprint4096(t *testing.T) {
	if testing.Short() {
		t.Skip("4096-ToR engines in -short mode")
	}
	if raceEnabled {
		t.Skip("eager 4096-ToR slabs under the race detector's shadow memory")
	}
	fpOf := func(r fabric.Results) string {
		return fmt.Sprintf("count=%d mean=%v p50=%v p99=%v max=%v epochs=%d",
			r.FCT.Count(), r.FCT.Mean(), r.FCT.P(50), r.FCT.P(99), r.FCT.Max(), r.Epochs)
	}
	run := func(eager bool) (string, fabric.Results) {
		top, err := topo.NewParallel(4096, 8)
		if err != nil {
			t.Fatal(err)
		}
		e, err := New(Config{Topology: top, HostRate: sim.Gbps(400), Piggyback: true, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		if eager {
			e.MaterializeAll()
		}
		perm, err := workload.NewPermutation(4096, 256, 1<<24, 0)
		if err != nil {
			t.Fatal(err)
		}
		e.SetWorkload(perm)
		e.RunEpochs(40)
		r := e.Results()
		return fpOf(r), r
	}
	lazyFP, lazyRes := run(false)
	eagerFP, eagerRes := run(true)
	if lazyFP != eagerFP {
		t.Errorf("FCT fingerprints differ:\nlazy:  %s\neager: %s", lazyFP, eagerFP)
	}
	if lazyRes.Delivered != eagerRes.Delivered || lazyRes.Injected != eagerRes.Injected {
		t.Errorf("ledger differs: lazy %d/%d, eager %d/%d",
			lazyRes.Injected, lazyRes.Delivered, eagerRes.Injected, eagerRes.Delivered)
	}
	if lazyRes.MatchRatio.Mean() != eagerRes.MatchRatio.Mean() {
		t.Errorf("match ratio differs: lazy %v, eager %v", lazyRes.MatchRatio.Mean(), eagerRes.MatchRatio.Mean())
	}
}

// BenchmarkConstructFootprint4096 measures what it costs to stand up the
// 4096-ToR priority-queue fabric — the tier that eagerly allocated ~50M
// FIFOs (multi-GB) before PR 5. bytes/ToR is the headline BENCH_pr5.json
// records.
func BenchmarkConstructFootprint4096(b *testing.B) {
	top, err := topo.NewParallel(4096, 8)
	if err != nil {
		b.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e, err := New(Config{Topology: top, HostRate: sim.Gbps(400), Piggyback: true, PriorityQueues: true, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		runtime.KeepAlive(e)
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/float64(b.N)/4096, "bytes/ToR")
}
