package metrics

import (
	"math/rand"
	"reflect"
	"testing"

	"negotiator/internal/sim"
)

// TestEmptyStatsDefinedZeros pins the full empty-set contract: per-shard
// accumulators can legitimately hold no samples under sharded engine
// execution, and every derived statistic must return its defined zero.
func TestEmptyStatsDefinedZeros(t *testing.T) {
	var s FCTStats
	if s.Count() != 0 || s.MiceCount() != 0 {
		t.Error("empty stats report non-zero counts")
	}
	for _, p := range []float64{0, 1, 50, 99, 100} {
		if s.P(p) != 0 {
			t.Errorf("P(%v) = %v on empty stats, want 0", p, s.P(p))
		}
		if s.MiceP(p) != 0 {
			t.Errorf("MiceP(%v) = %v on empty stats, want 0", p, s.MiceP(p))
		}
	}
	if s.Mean() != 0 || s.MiceMean() != 0 || s.Max() != 0 {
		t.Error("empty means/max should be 0")
	}
	if s.MiceCDF(10) != nil {
		t.Error("empty MiceCDF should be nil")
	}
}

// TestFCTMergeEqualsBulk: sharding samples across accumulators and merging
// (in any order) must reproduce the single-accumulator statistics exactly.
func TestFCTMergeEqualsBulk(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var bulk FCTStats
	shards := make([]FCTStats, 4)
	for i := 0; i < 500; i++ {
		size := int64(rng.Intn(100 << 10)) // mix of mice and elephants
		fct := sim.Duration(rng.Intn(1e6))
		bulk.Record(size, fct)
		shards[rng.Intn(len(shards))].Record(size, fct)
	}
	// Merge in a scrambled order, including an empty extra shard.
	var merged FCTStats
	var empty FCTStats
	merged.Merge(&shards[2])
	merged.Merge(&empty)
	merged.Merge(&shards[0])
	merged.Merge(&shards[3])
	merged.Merge(&shards[1])
	merged.Merge(nil)

	if merged.Count() != bulk.Count() || merged.MiceCount() != bulk.MiceCount() {
		t.Fatalf("counts diverge: %d/%d vs %d/%d",
			merged.Count(), merged.MiceCount(), bulk.Count(), bulk.MiceCount())
	}
	for _, p := range []float64{1, 25, 50, 90, 99, 100} {
		if merged.P(p) != bulk.P(p) {
			t.Errorf("P(%v): merged %v, bulk %v", p, merged.P(p), bulk.P(p))
		}
		if merged.MiceP(p) != bulk.MiceP(p) {
			t.Errorf("MiceP(%v): merged %v, bulk %v", p, merged.MiceP(p), bulk.MiceP(p))
		}
	}
	if merged.Mean() != bulk.Mean() || merged.MiceMean() != bulk.MiceMean() {
		t.Error("means diverge after merge")
	}
	if !reflect.DeepEqual(merged.MiceCDF(20), bulk.MiceCDF(20)) {
		t.Error("MiceCDF diverges after merge")
	}
}

// TestMergeAfterSortResorts: merging into a queried accumulator must
// retire what its queries cached.
func TestMergeAfterSortResorts(t *testing.T) {
	var a, b FCTStats
	a.Record(1, 50)
	_ = a.P(99) + a.MiceP(99) // caches the answers
	b.Record(1, 10)
	a.Merge(&b)
	if got := a.P(50); got != 10 {
		t.Errorf("P(50) after merge = %v, want 10", got)
	}
}

// TestGoodputMergeEqualsBulk: per-shard goodput merge is a commutative
// per-ToR sum.
func TestGoodputMergeEqualsBulk(t *testing.T) {
	bulk := NewGoodput(8)
	shards := []*Goodput{NewGoodput(8), NewGoodput(8), NewGoodput(8)}
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 200; i++ {
		dst, n := rng.Intn(8), int64(rng.Intn(5000))
		bulk.Deliver(dst, n)
		shards[rng.Intn(3)].Deliver(dst, n)
	}
	merged := NewGoodput(8)
	merged.Merge(shards[1])
	merged.Merge(shards[0])
	merged.Merge(shards[2])
	merged.Merge(nil)
	if merged.TotalBytes() != bulk.TotalBytes() {
		t.Fatalf("total %d vs %d", merged.TotalBytes(), bulk.TotalBytes())
	}
	if got, want := merged.Normalized(1000, sim.Gbps(100)), bulk.Normalized(1000, sim.Gbps(100)); got != want {
		t.Errorf("normalized %v vs %v", got, want)
	}
	if got, want := merged.PerToRGbps(1000), bulk.PerToRGbps(1000); got != want {
		t.Errorf("per-ToR %v vs %v", got, want)
	}
}

func TestGoodputMergeSizeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("size-mismatched merge did not panic")
		}
	}()
	NewGoodput(4).Merge(NewGoodput(8))
}
