package queue

import (
	"testing"

	"negotiator/internal/flows"
)

// BenchmarkPushTake measures the steady-state per-packet queue cost: one
// PIAS-classified push and one priority-ordered take.
func BenchmarkPushTake(b *testing.B) {
	d := NewDestQueue(true)
	f := &flows.Flow{ID: 1, Size: 1 << 40}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		d.PushBytes(f, 1115, int64(i)*1115%(20<<10), 0)
		d.Take(1115, func(*flows.Flow, int64) {})
	}
}

// BenchmarkPushGroupPIAS measures one flow group's push under PIAS, then
// the take that drains it: 8,192 members of 100 KB, the group size of the
// million-flow tier. Each level takes the group's share as one segment, so
// the cost does not grow with the member count.
func BenchmarkPushGroupPIAS(b *testing.B) {
	d := NewDestQueue(true)
	g := &flows.Flow{ID: 1, Size: 100_000, Count: 8192}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		d.Push(g, 0)
		d.Take(g.Total(), func(*flows.Flow, int64) {})
	}
}

// BenchmarkTakeCell measures the spray-lane cell extraction used by the
// oblivious baseline's hot path.
func BenchmarkTakeCell(b *testing.B) {
	var q FIFO
	fl := make([]*flows.Flow, 8)
	for i := range fl {
		fl[i] = &flows.Flow{ID: int64(i), Dst: i % 3, Size: 1 << 40}
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		q.Push(Segment{Flow: fl[i%8], Bytes: 615})
		q.TakeCell(615, func(*flows.Flow, int64) {})
	}
}
