package oblivious

import (
	"runtime"
	"testing"
	"time"
)

// measureSparseSlot returns a noise-resistant per-slot cost for an n-ToR
// engine with 256 active ToRs under the opportunistic discipline:
// best-of-reps over batched slots, so a GC pause or scheduler hiccup
// cannot inflate the figure.
func measureSparseSlot(tb testing.TB, n int) time.Duration {
	e := sparseEngine(tb, n, 256)
	for i := 0; i < 2*e.slots; i++ {
		e.RunRound() // settle the steady-state occupancy
	}
	runtime.GC()
	const slots = 64
	best := time.Duration(1<<63 - 1)
	for rep := 0; rep < 5; rep++ {
		start := time.Now()
		for i := 0; i < slots; i++ {
			e.RunRound()
		}
		if d := time.Since(start) / slots; d < best {
			best = d
		}
	}
	return best
}

// TestNoWidthProportionalSlotWork pins the O(active)-per-slot property on
// the oblivious slot plane — the counterpart of the negotiator plane's
// TestNoWidthProportionalWork. With the active set held at 256 ToRs,
// widening the fabric 8x (8192 -> 65536) must not widen the per-slot cost:
// the serve phase walks the direct/lane occupancy sets (O(active)), and
// the drain phase walks backlogged relay DESTINATIONS through the
// topology inverse (O(destinations · S)) instead of the relay-holder set
// that VLB spraying inflates to every intermediate. The measured ratio
// sits around 1.1-1.2x; the dense holder walk this replaces measured
// 4.3x. The 2x bound splits those regimes with margin for machine noise.
func TestNoWidthProportionalSlotWork(t *testing.T) {
	if testing.Short() {
		t.Skip("timing ratio needs full-size engines")
	}
	if raceEnabled {
		t.Skip("timing ratio under race instrumentation measures the detector; the non-race run guards the slot walks")
	}
	small := measureSparseSlot(t, 8192)
	wide := measureSparseSlot(t, 65536)
	ratio := float64(wide) / float64(small)
	t.Logf("sparse slot: 8192 ToRs %v, 65536 ToRs %v, ratio %.2f", small, wide, ratio)
	if ratio > 2 {
		t.Fatalf("8x width costs %.2fx per slot (%v -> %v): a width-proportional per-slot term is back", ratio, small, wide)
	}
}
