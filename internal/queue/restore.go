package queue

import "fmt"

// Checkpoint support. A queue's live contents are exactly each FIFO's
// front segment followed by its segments at or after head (consumed slots
// before head hold no bytes and are never serialized). Restore must
// reproduce segments VERBATIM — same per-priority placement, same order,
// same byte counts — because PIAS priority is assigned by cumulative flow
// offset at push time, not by queue position: re-splitting restored
// segments through PushBytesPool would need offsets the queue does not
// store. RestoreSegment therefore bypasses the PIAS split and pushes into
// an explicit priority level, the inverse of ForEachSegment's walk. The
// first segment restored into an empty level becomes its front again, so
// a partly consumed front round-trips with its remaining byte count.

// ForEachSegment visits every live segment in service order: priority
// levels in ascending order, FIFO order within each.
func (d *DestQueue) ForEachSegment(fn func(prio int, s Segment)) {
	for p := range d.prios[:d.levels] {
		d.prios[p].ForEachSegment(func(s Segment) { fn(p, s) })
	}
}

// RestoreSegment pushes a checkpointed segment verbatim into the given
// priority level, maintaining the aggregate byte counter exactly as the
// normal push paths do.
func (d *DestQueue) RestoreSegment(pool *SegPool, prio int, s Segment) error {
	if prio < 0 || prio >= d.levels {
		return fmt.Errorf("queue: restored segment priority %d out of range [0, %d)", prio, d.levels)
	}
	if s.Bytes <= 0 || s.Flow == nil {
		return fmt.Errorf("queue: restored segment invalid (bytes=%d, flow nil=%v)", s.Bytes, s.Flow == nil)
	}
	d.prios[prio].PushPool(pool, s)
	d.bytes += s.Bytes
	return nil
}

// ForEachSegment visits every live segment of a plain FIFO in order, the
// front segment first (the relay queues are bare FIFOs, not DestQueues).
func (q *FIFO) ForEachSegment(fn func(s Segment)) {
	if q.bytes == 0 {
		return
	}
	fn(q.front)
	for _, s := range q.segs[q.head:] {
		fn(s)
	}
}
