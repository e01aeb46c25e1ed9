package negotiator

import (
	"runtime"
	"testing"
	"time"
)

// measureSparseEpoch returns a noise-resistant per-epoch cost for an
// n-ToR engine with 256 active ToRs: best-of-reps over batched epochs,
// so a single GC pause or scheduler hiccup cannot inflate the figure.
func measureSparseEpoch(tb testing.TB, n int) time.Duration {
	e := sparseEngine(tb, n, 256, 1)
	for i := 0; i < 4; i++ {
		e.RunRound() // settle mailbox and slab capacity
	}
	runtime.GC()
	const epochs = 20
	best := time.Duration(1<<63 - 1)
	for rep := 0; rep < 5; rep++ {
		start := time.Now()
		for i := 0; i < epochs; i++ {
			e.RunRound()
		}
		if d := time.Since(start) / epochs; d < best {
			best = d
		}
	}
	return best
}

// TestNoWidthProportionalWork pins the O(active)-per-round property:
// with the active set held at 256 ToRs, widening the fabric 8x (8192 ->
// 65536) must not widen the per-epoch cost anywhere near 8x. Every phase
// of the epoch — accept, grant/request emission, mailbox merge, the
// predefined and scheduled transmission sweeps — walks occupancy indexes
// whose iteration cost is O(members + N/4096), so the measured ratio
// sits around 1.4x; a dense per-ToR sweep sneaking back into any phase
// pushes it past 5x. The 4x bound splits those regimes with margin for
// machine noise on both sides.
func TestNoWidthProportionalWork(t *testing.T) {
	if testing.Short() {
		t.Skip("timing ratio needs full-size engines")
	}
	small := measureSparseEpoch(t, 8192)
	wide := measureSparseEpoch(t, 65536)
	ratio := float64(wide) / float64(small)
	t.Logf("sparse epoch: 8192 ToRs %v, 65536 ToRs %v, ratio %.2f", small, wide, ratio)
	if ratio > 4 {
		t.Fatalf("8x width costs %.2fx per epoch (%v -> %v): a width-proportional per-round term is back", ratio, small, wide)
	}
}
