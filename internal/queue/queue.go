// Package queue implements the ToR-side queueing model: per-destination
// FIFO queues (paper §3.1) optionally layered with the PIAS-style
// information-agnostic multi-level priority mechanism used for mice-flow
// prioritisation (paper §3.4.2).
//
// With priority queues enabled, the first DefaultPrio0Bytes of every flow
// land in priority 0, the next DefaultPrio1Bytes-DefaultPrio0Bytes in
// priority 1, and the remainder in priority 2 — the paper's "first 1KB,
// then the following 9KB, and then the rest" (§4.1). Each priority level
// drains FIFO, and dequeueing always serves the lowest-numbered non-empty
// priority, so mice flows overtake queued elephant bytes without any flow
// size knowledge.
//
// Transmission is byte-granular: a slot payload may pack bytes from
// several segments (and hence flows). This cut-through idealisation has no
// effect on the epoch-level dynamics the paper measures and keeps the hot
// path allocation-free.
package queue

import (
	"math/bits"

	"negotiator/internal/flows"
	"negotiator/internal/sim"
)

// PIAS demotion thresholds (paper §4.1).
const (
	DefaultPrio0Bytes = 1 << 10  // first 1 KB of a flow
	DefaultPrio1Bytes = 10 << 10 // up to 10 KB of a flow
	NumPriorities     = 3
)

// Segment is a contiguous run of one flow's bytes inside a queue.
type Segment struct {
	Flow     *flows.Flow
	Bytes    int64
	Enqueued sim.Time // when the segment entered this queue (for HoL stats)
}

// SegPool recycles the backing arrays FIFOs shed when they grow: a queue
// deepening under flow churn reuses capacity another queue discarded
// instead of allocating. Arrays are binned by power-of-two capacity and
// cleared on return (no stale flow references). The pool is
// unsynchronised: every queue GROWTH in the engines happens in a serial
// phase (arrival admission, loss requeue, relay pushes in the serial
// merge) — parallel phases only take, and takes never grow.
type SegPool struct {
	classes [33][][]Segment
}

// get returns an empty segment slice with capacity at least minCap. The
// class granularity matches append's doubling, so pooled queues keep the
// same compact arrays un-pooled queues would have — mostly-idle queues
// must not be inflated to a larger class (cache footprint is the whole
// point of the slab layout).
func (p *SegPool) get(minCap int) []Segment {
	if minCap < 2 {
		minCap = 2
	}
	c := bits.Len(uint(minCap - 1)) // smallest c with 1<<c >= minCap
	if free := p.classes[c]; len(free) > 0 {
		arr := free[len(free)-1]
		free[len(free)-1] = nil
		p.classes[c] = free[:len(free)-1]
		return arr
	}
	return make([]Segment, 0, 1<<c)
}

// put returns a discarded backing array to the pool, cleared.
func (p *SegPool) put(arr []Segment) {
	if cap(arr) < 2 {
		return
	}
	arr = arr[:cap(arr)]
	for i := range arr {
		arr[i] = Segment{}
	}
	c := bits.Len(uint(cap(arr))) - 1 // largest c with 1<<c <= cap
	if len(p.classes[c]) < 4096 {
		p.classes[c] = append(p.classes[c], arr[:0])
	}
}

// FIFO is a segment queue with O(1) amortised push/pop and no steady-state
// allocation. The zero value is an empty queue ready for use.
//
// The front segment lives in the header (front); segs[head:] holds only
// the segments queued behind it. Every queued segment holds bytes, so a
// FIFO is non-empty exactly when its front is. Head reads and any take
// that ends inside the front touch nothing but the header, which is 64
// bytes; a slab page starts its queues on a cache line, so every FIFO of
// a relay page occupies exactly one line (see page). When segs drains it
// rewinds to the start of its array, so a queue that empties and refills
// every epoch reuses the same few slots; the head > 64 compaction in
// PushPool covers queues that never drain.
type FIFO struct {
	bytes int64
	front Segment
	segs  []Segment
	head  int
}

// PushPool appends a segment; zero-byte segments are dropped. When the
// append would grow the backing array and pool is non-nil, the
// replacement comes from the pool and the old array is returned to it.
func (q *FIFO) PushPool(pool *SegPool, s Segment) {
	if s.Bytes <= 0 {
		return
	}
	if q.bytes == 0 {
		q.front = s
		q.bytes = s.Bytes
		return
	}
	if q.head > 64 && q.head*2 >= len(q.segs) {
		n := copy(q.segs, q.segs[q.head:])
		q.segs = q.segs[:n]
		q.head = 0
	}
	// Recycle only on genuine growth (cap 0 means the first queued
	// segment: plain append keeps the tiny-queue footprint identical to
	// the unpooled path), doubling like append would.
	if pool != nil && len(q.segs) == cap(q.segs) && cap(q.segs) > 0 {
		grown := pool.get(2 * cap(q.segs))
		grown = grown[:copy(grown[:cap(grown)], q.segs[q.head:])]
		pool.put(q.segs)
		q.segs = grown
		q.head = 0
	}
	q.segs = append(q.segs, s)
	q.bytes += s.Bytes
}

// advance refills the exhausted front from segs, rewinding segs to the
// start of its array once it drains; with nothing queued behind, the
// front is cleared (the queue is empty).
func (q *FIFO) advance() {
	if q.head == len(q.segs) {
		q.front = Segment{}
		return
	}
	q.front = q.segs[q.head]
	q.segs[q.head].Flow = nil // allow GC of completed flows
	if q.head++; q.head == len(q.segs) {
		q.segs = q.segs[:0]
		q.head = 0
	}
}

// Bytes reports the queued byte total.
func (q *FIFO) Bytes() int64 { return q.bytes }

// Empty reports whether the queue holds no bytes.
func (q *FIFO) Empty() bool { return q.bytes == 0 }

// Len reports the number of queued segments.
func (q *FIFO) Len() int {
	if q.bytes == 0 {
		return 0
	}
	return 1 + len(q.segs) - q.head
}

// Take removes up to max bytes from the front of the queue in FIFO order,
// invoking emit once per (flow, byte-run) taken. It returns the bytes taken.
// The exhausted-front check re-reads q.front after emit: should emit push
// into this queue after its last byte was taken, the new segment lands in
// the header's front, and advancing past it would drop it.
func (q *FIFO) Take(max int64, emit func(f *flows.Flow, n int64)) int64 {
	var taken int64
	for taken < max && q.bytes > 0 {
		n := q.front.Bytes
		if rem := max - taken; n > rem {
			n = rem
		}
		q.front.Bytes -= n
		q.bytes -= n
		taken += n
		emit(q.front.Flow, n)
		if q.front.Bytes == 0 {
			q.advance()
		}
	}
	return taken
}

// TakeReady is Take restricted to segments whose Enqueued time is at or
// before now. It models in-flight data: a relay queue is filled with future
// arrival timestamps, and the intermediate may only forward bytes that have
// physically arrived. Segments are enqueued in non-decreasing time order,
// so the scan stops at the first not-yet-arrived segment.
func (q *FIFO) TakeReady(max int64, now sim.Time, emit func(f *flows.Flow, n int64)) int64 {
	var taken int64
	for taken < max && q.bytes > 0 && q.front.Enqueued <= now {
		n := q.front.Bytes
		if rem := max - taken; n > rem {
			n = rem
		}
		q.front.Bytes -= n
		q.bytes -= n
		taken += n
		emit(q.front.Flow, n)
		if q.front.Bytes == 0 {
			q.advance()
		}
	}
	return taken
}

// TakeCell removes up to max bytes belonging to one destination: the head
// segment's flow destination, packing consecutive segments that share it.
// It models a network cell, which carries exactly one destination header.
// It returns the destination served and the bytes taken (dst -1 if empty).
func (q *FIFO) TakeCell(max int64, emit func(f *flows.Flow, n int64)) (dst int, taken int64) {
	if q.bytes == 0 {
		return -1, 0
	}
	dst = q.front.Flow.Dst
	for taken < max && q.bytes > 0 && q.front.Flow.Dst == dst {
		n := q.front.Bytes
		if rem := max - taken; n > rem {
			n = rem
		}
		q.front.Bytes -= n
		q.bytes -= n
		taken += n
		emit(q.front.Flow, n)
		if q.front.Bytes == 0 {
			q.advance()
		}
	}
	return dst, taken
}

// HeadReady reports whether the front segment has arrived by now — the
// O(1) guard for relay service decisions (segments are queued in
// non-decreasing arrival order, so a late head implies nothing is ready).
func (q *FIFO) HeadReady(now sim.Time) bool {
	return q.bytes > 0 && q.front.Enqueued <= now
}

// DestQueue is the per-destination queue of one ToR: either a single FIFO
// (priority queues disabled) or a PIAS multi-level feedback queue. The
// priority levels are inline, so a queue's aggregate counter and its
// level-0 front share the header the caller already loaded; with priority
// queues off only prios[0] is used and the other levels stay empty. The
// aggregate byte counter is maintained by every push/take, so Bytes() and
// Empty() are O(1) field reads — the per-round demand sweeps of the
// engines read them N² times per epoch. DestQueue is embeddable by value:
// a slab page lays PageSize of them out contiguously.
type DestQueue struct {
	bytes  int64
	levels int // levels in use: 1, or NumPriorities with PIAS on
	prios  [NumPriorities]FIFO
}

// numLevels returns the priority levels a queue uses.
func numLevels(priority bool) int {
	if priority {
		return NumPriorities
	}
	return 1
}

// PushBytesPool enqueues n bytes of flow f whose first byte is at offset
// off within the flow, recycling segment arrays through pool (see
// FIFO.PushPool; pool may be nil). Offsets matter because PIAS priorities
// are assigned by cumulative position in the flow, not by arrival order
// (a requeued byte keeps its original priority). With PIAS on, each
// level takes the run's share as one segment, so a push costs O(1)
// whatever the group's member count: the pieces a run places in one level
// share a flow and an enqueue time, and Take yields their bytes in the
// same order either way.
func (d *DestQueue) PushBytesPool(pool *SegPool, f *flows.Flow, n, off int64, now sim.Time) {
	if n <= 0 {
		return
	}
	d.bytes += n
	if d.levels == 1 {
		d.prios[0].PushPool(pool, Segment{Flow: f, Bytes: n, Enqueued: now})
		return
	}
	// PIAS demotion is per HOST flow. For a flow group, off is a position
	// in the concatenated member stream: the run covers whole members
	// between its two ends, and each end is demoted by its member-relative
	// offset — byte-for-byte the placement Count separate flows would get.
	// A single flow's run lies inside its one member.
	end := off + n
	var whole, m0, m01 int64
	if f.Count > 1 {
		whole = end/f.Size - off/f.Size
		off, end = off%f.Size, end%f.Size
		m0, m01 = min(f.Size, DefaultPrio0Bytes), min(f.Size, DefaultPrio1Bytes)
	}
	// b0 and b01 are the run's bytes in level 0 and in levels 0 and 1.
	b0 := whole*m0 + min(end, DefaultPrio0Bytes) - min(off, DefaultPrio0Bytes)
	b01 := whole*m01 + min(end, DefaultPrio1Bytes) - min(off, DefaultPrio1Bytes)
	for p, b := range [NumPriorities]int64{b0, b01 - b0, n - b01} {
		if b > 0 {
			d.prios[p].PushPool(pool, Segment{Flow: f, Bytes: b, Enqueued: now})
		}
	}
}

// Bytes reports the total queued bytes across all priorities (an O(1)
// field read; the counter is maintained by push/take).
func (d *DestQueue) Bytes() int64 { return d.bytes }

// Recount sums the per-priority FIFO byte counters — the figure the
// aggregate must match, for invariant checks. It covers the unused levels
// too, so a byte pushed past the queue's level count shows up as drift.
func (d *DestQueue) Recount() int64 {
	var total int64
	for i := range d.prios {
		total += d.prios[i].bytes
	}
	return total
}

// Empty reports whether no bytes are queued.
func (d *DestQueue) Empty() bool { return d.bytes == 0 }

// Take removes up to max bytes, serving priorities in order and FIFO within
// each priority. It returns the bytes taken. Empty levels are skipped on
// their counter, without a call.
func (d *DestQueue) Take(max int64, emit func(f *flows.Flow, n int64)) int64 {
	var taken int64
	lv := d.prios[:d.levels]
	for p := range lv {
		if taken >= max {
			break
		}
		if lv[p].bytes > 0 {
			taken += lv[p].Take(max-taken, emit)
		}
	}
	d.bytes -= taken
	return taken
}

// HeadDst returns the destination of the next data to be served (the head
// flow of the highest-priority non-empty queue), or -1 when empty. Used by
// spray lanes, whose segments mix final destinations.
func (d *DestQueue) HeadDst() int {
	lv := d.prios[:d.levels]
	for p := range lv {
		if lv[p].bytes > 0 {
			return lv[p].front.Flow.Dst
		}
	}
	return -1
}

// TakeHeadCell removes up to max bytes for a single destination from the
// highest-priority non-empty queue (see FIFO.TakeCell). It returns the
// destination served and bytes taken.
func (d *DestQueue) TakeHeadCell(max int64, emit func(f *flows.Flow, n int64)) (dst int, taken int64) {
	lv := d.prios[:d.levels]
	for p := range lv {
		if lv[p].bytes > 0 {
			dst, taken = lv[p].TakeCell(max, emit)
			d.bytes -= taken
			return dst, taken
		}
	}
	return -1, 0
}

// TakeLowestOnly removes up to max bytes but only from the lowest-priority
// (elephant) queue, used by the traffic-aware selective relay variant
// (App. A.2.2), which relays only elephant-class data.
func (d *DestQueue) TakeLowestOnly(max int64, emit func(f *flows.Flow, n int64)) int64 {
	taken := d.prios[d.levels-1].Take(max, emit)
	d.bytes -= taken
	return taken
}

// LowestPriorityBytes reports the bytes queued at the lowest priority.
func (d *DestQueue) LowestPriorityBytes() int64 {
	return d.prios[d.levels-1].bytes
}

// HoLWait returns the per-priority head-of-line waiting times at now,
// padded with zeros for empty queues. Used by the HoL-delay informative
// request variant (App. A.2.3).
func (d *DestQueue) HoLWait(now sim.Time) [NumPriorities]sim.Duration {
	var w [NumPriorities]sim.Duration
	lv := d.prios[:d.levels]
	for p := range lv {
		if lv[p].bytes > 0 {
			w[p] = now.Sub(lv[p].front.Enqueued)
		}
	}
	return w
}

// WeightedHoL computes the paper's weighted head-of-line delay
// (App. A.2.3): (1-α)·(HoL₀+HoL₁)/2 + α·HoL₂, with α small so mice-bearing
// pairs are scheduled promptly while elephants still register demand.
func (d *DestQueue) WeightedHoL(now sim.Time, alpha float64) float64 {
	w := d.HoLWait(now)
	return (1-alpha)*(float64(w[0])+float64(w[1]))/2 + alpha*float64(w[2])
}
