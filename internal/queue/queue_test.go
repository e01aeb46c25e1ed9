package queue

import (
	"testing"
	"testing/quick"

	"negotiator/internal/flows"
	"negotiator/internal/sim"
)

func newFlow(id int64, size int64) *flows.Flow {
	return &flows.Flow{ID: id, Src: 0, Dst: 1, Size: size}
}

func TestFIFOOrder(t *testing.T) {
	var q FIFO
	f1, f2 := newFlow(1, 100), newFlow(2, 200)
	q.Push(Segment{Flow: f1, Bytes: 100})
	q.Push(Segment{Flow: f2, Bytes: 200})
	if q.Bytes() != 300 || q.Len() != 2 {
		t.Fatalf("bytes=%d len=%d, want 300/2", q.Bytes(), q.Len())
	}
	var order []int64
	q.Take(150, func(f *flows.Flow, n int64) { order = append(order, f.ID, n) })
	want := []int64{1, 100, 2, 50}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("take order = %v, want %v", order, want)
		}
	}
	if q.Bytes() != 150 {
		t.Errorf("remaining bytes = %d, want 150", q.Bytes())
	}
}

func TestFIFOZeroSegmentDropped(t *testing.T) {
	var q FIFO
	q.Push(Segment{Flow: newFlow(1, 10), Bytes: 0})
	if !q.Empty() || q.Len() != 0 {
		t.Error("zero-byte segment should be dropped")
	}
}

func TestFIFOHeadPanicsWhenEmpty(t *testing.T) {
	var q FIFO
	defer func() {
		if recover() == nil {
			t.Error("Head of empty FIFO should panic")
		}
	}()
	q.Head()
}

func TestFIFOCompaction(t *testing.T) {
	var q FIFO
	f := newFlow(1, 1<<20)
	for i := 0; i < 1000; i++ {
		q.Push(Segment{Flow: f, Bytes: 10})
		q.Take(10, func(*flows.Flow, int64) {})
	}
	if cap(q.segs) > 4096 {
		t.Errorf("FIFO failed to compact: cap=%d after 1000 push/pop cycles", cap(q.segs))
	}
	if !q.Empty() {
		t.Error("queue should be empty")
	}
}

func TestPIASSegmentation(t *testing.T) {
	d := NewDestQueue(true)
	f := newFlow(1, 25<<10) // 25 KB: 1K prio0, 9K prio1, 15K prio2
	d.Push(f, 0)
	if got := d.prios[0].Bytes(); got != 1<<10 {
		t.Errorf("prio0 = %d, want 1024", got)
	}
	if got := d.prios[1].Bytes(); got != 9<<10 {
		t.Errorf("prio1 = %d, want 9216", got)
	}
	if got := d.prios[2].Bytes(); got != 15<<10 {
		t.Errorf("prio2 = %d, want 15360", got)
	}
	if d.Bytes() != 25<<10 {
		t.Errorf("total = %d, want 25600", d.Bytes())
	}
}

func TestPIASSmallFlowStaysHighPriority(t *testing.T) {
	d := NewDestQueue(true)
	d.Push(newFlow(1, 600), 0)
	if d.prios[0].Bytes() != 600 || d.prios[1].Bytes() != 0 || d.prios[2].Bytes() != 0 {
		t.Errorf("600B flow should be entirely prio0: %d/%d/%d",
			d.prios[0].Bytes(), d.prios[1].Bytes(), d.prios[2].Bytes())
	}
}

func TestPIASOffsetPreserved(t *testing.T) {
	// Requeued bytes keep the priority of their position in the flow.
	d := NewDestQueue(true)
	f := newFlow(1, 100<<10)
	d.PushBytes(f, 500, 50<<10, 0) // bytes at offset 50K are elephant-class
	if d.prios[2].Bytes() != 500 || d.prios[0].Bytes() != 0 {
		t.Errorf("offset bytes misprioritised: %d/%d/%d",
			d.prios[0].Bytes(), d.prios[1].Bytes(), d.prios[2].Bytes())
	}
	d.PushBytes(f, 2048, 0, 0) // first 2K: 1K prio0, 1K prio1
	if d.prios[0].Bytes() != 1024 || d.prios[1].Bytes() != 1024 {
		t.Errorf("offset-0 bytes misprioritised: %d/%d",
			d.prios[0].Bytes(), d.prios[1].Bytes())
	}
}

// TestGroupPushOneSegmentPerLevel: a flow group's push costs the same as
// a single flow's under PIAS. Each level takes the group's share of the
// run as one segment, and the push allocates no more for 8,192 members
// than for one.
func TestGroupPushOneSegmentPerLevel(t *testing.T) {
	const k, size = 8192, 100_000
	d := NewDestQueue(true)
	d.Push(&flows.Flow{ID: 1, Size: size, Count: k}, 0)
	want := [NumPriorities]int64{k * 1024, k * 9216, k * 89_760}
	for p := range want {
		if l, b := d.prios[p].Len(), d.prios[p].Bytes(); l != 1 || b != want[p] {
			t.Errorf("level %d holds %d segments of %d bytes, want 1 of %d", p, l, b, want[p])
		}
	}
	allocs := func(count int32) float64 {
		f := &flows.Flow{ID: 1, Size: size, Count: count}
		return testing.AllocsPerRun(20, func() {
			d := DestQueue{levels: NumPriorities}
			d.Push(f, 0)
		})
	}
	if one, group := allocs(1), allocs(k); group != one {
		t.Errorf("group push allocates %v per run, a single flow's %v", group, one)
	}
}

func TestMicePreemptElephants(t *testing.T) {
	// An elephant is queued first; a mouse arriving later is served first.
	d := NewDestQueue(true)
	elephant := newFlow(1, 1<<20)
	mouse := newFlow(2, 512)
	d.Push(elephant, 0)
	d.Push(mouse, 100)
	var first *flows.Flow
	d.Take(512, func(f *flows.Flow, n int64) {
		if first == nil {
			first = f
		}
	})
	if first == nil || first.ID != 1 {
		// First KB of the elephant is also prio0 and FIFO-older.
		t.Fatalf("first taken = %v, want elephant's prio0 head", first)
	}
	// After the elephant's 1KB prio0 share drains, the mouse overtakes the
	// elephant's remaining megabyte: all mouse bytes must be taken before
	// any elephant byte beyond the first 1KB.
	type run struct {
		id int64
		n  int64
	}
	var order []run
	d.Take(4096, func(f *flows.Flow, n int64) { order = append(order, run{f.ID, n}) })
	var elephantBytes int64 = 512 // taken in the first Take above
	mouseDone := false
	for _, r := range order {
		switch r.id {
		case 1:
			elephantBytes += r.n
			if elephantBytes > 1024 && !mouseDone {
				t.Fatalf("elephant bulk served before mouse finished: order %v", order)
			}
		case 2:
			mouseDone = true
		}
	}
	if !mouseDone {
		t.Fatalf("mouse never served: order %v", order)
	}
}

func TestNoPriorityIsPureFIFO(t *testing.T) {
	d := NewDestQueue(false)
	elephant := newFlow(1, 1<<20)
	mouse := newFlow(2, 512)
	d.Push(elephant, 0)
	d.Push(mouse, 100)
	var ids []int64
	d.Take(2048, func(f *flows.Flow, n int64) { ids = append(ids, f.ID) })
	for _, id := range ids {
		if id != 1 {
			t.Fatalf("without PQ, all taken bytes must be elephant's: got flow %d", id)
		}
	}
}

func TestTakeLowestOnly(t *testing.T) {
	d := NewDestQueue(true)
	d.Push(newFlow(1, 25<<10), 0)
	n := d.TakeLowestOnly(1<<20, func(*flows.Flow, int64) {})
	if n != 15<<10 {
		t.Errorf("TakeLowestOnly took %d, want 15360 (only prio2)", n)
	}
	if d.prios[0].Bytes() != 1<<10 || d.prios[1].Bytes() != 9<<10 {
		t.Error("TakeLowestOnly must not touch higher priorities")
	}
	if got := d.LowestPriorityBytes(); got != 0 {
		t.Errorf("LowestPriorityBytes = %d, want 0", got)
	}
}

func TestHoLWait(t *testing.T) {
	d := NewDestQueue(true)
	d.Push(newFlow(1, 25<<10), 1000)
	w := d.HoLWait(5000)
	for p := 0; p < NumPriorities; p++ {
		if w[p] != 4000 {
			t.Errorf("HoL prio%d = %d, want 4000", p, w[p])
		}
	}
	// Drain prio0; its HoL becomes 0.
	d.Take(1<<10, func(*flows.Flow, int64) {})
	w = d.HoLWait(5000)
	if w[0] != 0 || w[1] != 4000 {
		t.Errorf("after drain: HoL = %v", w)
	}
}

func TestWeightedHoL(t *testing.T) {
	d := NewDestQueue(true)
	d.Push(newFlow(1, 25<<10), 0)
	got := d.WeightedHoL(1000, 0.001)
	want := 0.999*1000 + 0.001*1000
	if diff := got - want; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("WeightedHoL = %v, want %v", got, want)
	}
	// Elephant-only backlog registers weakly but non-zero.
	e := NewDestQueue(true)
	e.PushBytes(newFlow(2, 1<<20), 1000, 500<<10, 0)
	if g := e.WeightedHoL(1000, 0.001); g != 1.0 {
		t.Errorf("elephant-only WeightedHoL = %v, want 1.0 (α·HoL₂)", g)
	}
}

func TestConservationProperty(t *testing.T) {
	// Pushed bytes == taken bytes + remaining bytes, for random mixes.
	f := func(sizes []uint16, takes []uint16, priority bool) bool {
		d := NewDestQueue(priority)
		var pushed int64
		for i, s := range sizes {
			if s == 0 {
				continue
			}
			d.Push(newFlow(int64(i), int64(s)), 0)
			pushed += int64(s)
		}
		var taken int64
		for _, tk := range takes {
			taken += d.Take(int64(tk), func(*flows.Flow, int64) {})
		}
		return pushed == taken+d.Bytes()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestFIFOOrderPerPriorityProperty(t *testing.T) {
	// Within one priority, flows drain in arrival order.
	f := func(n uint8) bool {
		d := NewDestQueue(true)
		count := int(n%20) + 2
		for i := 0; i < count; i++ {
			d.Push(newFlow(int64(i), 512), sim.Time(i)) // all prio0
		}
		last := int64(-1)
		ok := true
		d.Take(int64(count)*512, func(fl *flows.Flow, _ int64) {
			if fl.ID < last {
				ok = false
			}
			last = fl.ID
		})
		return ok && d.Empty()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestTakeReadyRespectsArrivalTime(t *testing.T) {
	var q FIFO
	f1, f2 := newFlow(1, 100), newFlow(2, 100)
	q.Push(Segment{Flow: f1, Bytes: 100, Enqueued: 50})
	q.Push(Segment{Flow: f2, Bytes: 100, Enqueued: 500})
	if !q.HeadReady(100) || q.HeadReady(49) {
		t.Error("HeadReady must follow the front segment's arrival time")
	}
	n := q.TakeReady(1000, 100, func(*flows.Flow, int64) {})
	if n != 100 {
		t.Errorf("TakeReady took %d, want 100 (second segment not arrived)", n)
	}
	if q.Bytes() != 100 {
		t.Errorf("remaining = %d", q.Bytes())
	}
	n = q.TakeReady(1000, 500, func(*flows.Flow, int64) {})
	if n != 100 {
		t.Errorf("second TakeReady took %d, want 100", n)
	}
	if q.HeadReady(1<<40) || !q.Empty() {
		t.Errorf("queue not drained: %d bytes left", q.Bytes())
	}
}

func TestTakeReadyPartialSegment(t *testing.T) {
	var q FIFO
	q.Push(Segment{Flow: newFlow(1, 100), Bytes: 100, Enqueued: 10})
	if n := q.TakeReady(40, 10, func(*flows.Flow, int64) {}); n != 40 {
		t.Errorf("partial TakeReady = %d, want 40", n)
	}
	if q.Bytes() != 60 {
		t.Errorf("remaining = %d, want 60", q.Bytes())
	}
}
