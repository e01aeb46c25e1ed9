package queue

import (
	"testing"

	"negotiator/internal/flows"
)

// TestNewSlabIndependence: slab entries laid out in one array are
// independent queues, each with its own inline priority levels.
func TestNewSlabIndependence(t *testing.T) {
	for _, priority := range []bool{false, true} {
		qs := NewSlab(4, priority)
		if len(qs) != 4 {
			t.Fatalf("slab len = %d", len(qs))
		}
		f := &flows.Flow{ID: 1, Size: 1 << 30}
		qs[1].PushBytes(f, 20<<10, 0, 0)
		for j := range qs {
			want := int64(0)
			if j == 1 {
				want = 20 << 10
			}
			if got := qs[j].Bytes(); got != want {
				t.Fatalf("priority=%v slab[%d].Bytes() = %d, want %d", priority, j, got, want)
			}
			if got := qs[j].Recount(); got != want {
				t.Fatalf("priority=%v slab[%d].Recount() = %d, want %d", priority, j, got, want)
			}
		}
		var taken int64
		for taken < 20<<10 {
			n := qs[1].Take(3000, func(*flows.Flow, int64) {})
			if n == 0 {
				t.Fatal("take stalled")
			}
			taken += n
			if qs[1].Bytes() != qs[1].Recount() {
				t.Fatalf("aggregate %d != recount %d mid-drain", qs[1].Bytes(), qs[1].Recount())
			}
		}
		if !qs[1].Empty() {
			t.Fatal("queue not empty after full drain")
		}
	}
}

// TestAggregateCounterAcrossTakeFlavors: every take flavor maintains the
// O(1) byte counter.
func TestAggregateCounterAcrossTakeFlavors(t *testing.T) {
	d := NewDestQueue(true)
	f := &flows.Flow{ID: 1, Dst: 3, Size: 1 << 30}
	d.PushBytes(f, 64<<10, 0, 0)
	d.TakeHeadCell(500, func(*flows.Flow, int64) {})
	d.TakeLowestOnly(1000, func(*flows.Flow, int64) {})
	d.Take(2000, func(*flows.Flow, int64) {})
	want := int64(64<<10) - 500 - 1000 - 2000
	if d.Bytes() != want || d.Recount() != want {
		t.Fatalf("aggregate %d recount %d, want %d", d.Bytes(), d.Recount(), want)
	}
}

// TestSegPoolRecycles: growing through the pool reuses arrays shed by
// earlier growth and never loses segments.
func TestSegPoolRecycles(t *testing.T) {
	var pool SegPool
	var q FIFO
	f := &flows.Flow{ID: 1, Size: 1 << 30}
	const pushes = 100
	for i := 0; i < pushes; i++ {
		q.PushPool(&pool, Segment{Flow: f, Bytes: 10})
	}
	if q.Len() != pushes || q.Bytes() != 10*pushes {
		t.Fatalf("after pooled pushes: len %d bytes %d", q.Len(), q.Bytes())
	}
	// A second queue growing through the pool picks up the arrays the
	// first one shed.
	var q2 FIFO
	preAlloc := testing.AllocsPerRun(1, func() {
		q2 = FIFO{}
		for i := 0; i < 60; i++ {
			q2.PushPool(&pool, Segment{Flow: f, Bytes: 10})
		}
	})
	if preAlloc > 2 { // at most the unpooled cap-0->1 first array and one growth miss
		t.Errorf("second pooled queue allocated %.0f times, want <= 2", preAlloc)
	}
	var total int64
	q.Take(10*pushes, func(_ *flows.Flow, n int64) { total += n })
	if total != 10*pushes {
		t.Fatalf("drained %d, want %d", total, 10*pushes)
	}
}
