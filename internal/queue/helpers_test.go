package queue

import (
	"negotiator/internal/flows"
	"negotiator/internal/sim"
)

// Test-only conveniences over the production push paths, and the one-array
// VOQ layout the paged slab is checked against.

// Push appends a segment without a segment pool. Zero-byte segments are
// dropped.
func (q *FIFO) Push(s Segment) { q.PushPool(nil, s) }

// Head returns the front segment without removing it. It panics when empty.
func (q *FIFO) Head() *Segment {
	if q.Empty() {
		panic("queue: Head of empty FIFO")
	}
	return &q.front
}

// NewDestQueue returns a per-destination queue; priority selects the PIAS
// multi-level variant.
func NewDestQueue(priority bool) *DestQueue {
	return &DestQueue{levels: numLevels(priority)}
}

// NewSlab returns n per-destination queues laid out contiguously in one
// allocation, priority levels inline — the monolithic layout paged slabs
// replaced, kept as the reference TestPagedSlabTraceEquivalence replays
// against.
func NewSlab(n int, priority bool) []DestQueue {
	qs := make([]DestQueue, n)
	for j := range qs {
		qs[j].levels = numLevels(priority)
	}
	return qs
}

// Push enqueues all bytes of flow f (all members, for a group) at time
// now, splitting across priority levels by the PIAS thresholds when
// enabled.
func (d *DestQueue) Push(f *flows.Flow, now sim.Time) {
	d.PushBytes(f, f.Total(), 0, now)
}

// PushBytes enqueues n bytes of flow f whose first byte is at offset off
// within the flow, without a segment pool.
func (d *DestQueue) PushBytes(f *flows.Flow, n, off int64, now sim.Time) {
	d.PushBytesPool(nil, f, n, off, now)
}
