package queue

import "fmt"

// Checkpoint support. A queue's live contents are exactly its segments at
// or after each FIFO's head (consumed slots before head hold no bytes and
// are never serialized). Restore must reproduce segments VERBATIM — same
// per-priority placement, same order, same byte counts — because PIAS
// priority is assigned by cumulative flow offset at push time, not by
// queue position: re-splitting restored segments through PushBytesPool
// would need offsets the queue does not store. RestoreSegment therefore
// bypasses the PIAS split and pushes into an explicit priority level, the
// inverse of ForEachSegment's walk.

// ForEachSegment visits every live segment in service order: priority
// levels in ascending order, FIFO order within each.
func (d *DestQueue) ForEachSegment(fn func(prio int, s Segment)) {
	for p := range d.prios {
		f := &d.prios[p]
		for i := f.head; i < len(f.segs); i++ {
			fn(p, f.segs[i])
		}
	}
}

// RestoreSegment pushes a checkpointed segment verbatim into the given
// priority level, maintaining the aggregate byte counter exactly as the
// normal push paths do.
func (d *DestQueue) RestoreSegment(pool *SegPool, prio int, s Segment) error {
	if prio < 0 || prio >= len(d.prios) {
		return fmt.Errorf("queue: restored segment priority %d out of range [0, %d)", prio, len(d.prios))
	}
	if s.Bytes <= 0 || s.Flow == nil {
		return fmt.Errorf("queue: restored segment invalid (bytes=%d, flow nil=%v)", s.Bytes, s.Flow == nil)
	}
	d.prios[prio].PushPool(pool, s)
	d.bytes += s.Bytes
	return nil
}

// ForEachSegment visits every live segment of a plain FIFO in order (the
// relay queues are bare FIFOs, not DestQueues).
func (q *FIFO) ForEachSegment(fn func(s Segment)) {
	for i := q.head; i < len(q.segs); i++ {
		fn(q.segs[i])
	}
}
