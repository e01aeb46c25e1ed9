package fabric

import (
	"fmt"

	"negotiator/internal/flows"
	"negotiator/internal/queue"
	"negotiator/internal/sim"
)

// Node is one ToR's data-plane state: the queues bytes wait in and the
// loss records awaiting failure detection. Control-plane state (scheduling
// mailboxes, matches, relay plans) stays with the control plane, keyed by
// the same ToR index.
//
// A node has three queue classes — Direct and Lanes (QueueClass) and
// Relay (RelayClass). Each is a PAGED slab (queue.Slab) plus the indexes
// one set of choke points keeps exact: the occupancy index, the
// aggregate bytes, the owning shard's active-node bit and the page
// release candidates (see class). Slabs materialize lazily at two
// granularities: a fresh node owns no queue memory at all and each class
// allocates its page table on the first push into it; the pages
// themselves (fixed-width chunks of queue.PageSize destinations)
// materialize from the core's page pools on the first push that touches
// them. A node's footprint therefore scales with the destinations its
// traffic actually reaches, not with topology width — the rung that
// opens the 65,536-ToR tier. Every push happens in a serial phase
// (arrival admission, loss requeue, the engines' serial merges), so
// materialization never races with the parallel phases' reads, and an
// unmaterialized class or page reads as empty/zero everywhere (nil
// page, zero aggregate, empty occupancy index).
//
// Pages whose byte counter stays at zero long enough are recycled back
// to the pool by the core's serial merge (see Core.mergeRound): the take
// choke points record empty-page candidates with the page's touch
// version, and the release honours a candidate only if the page has
// stayed empty and untouched since — so churning pages are never
// released and steady state stays allocation-free.
//
// Engines may READ the slabs freely through the classes' nil-page-safe
// readers (Bytes, HeadDst, HeadReady, WeightedHoL, ...), but every
// MUTATION must go through the classes' Push/Take/Drain methods — the
// occupancy invariant engines assert under CheckInvariants
// (Core.CheckOccupancy).
type Node struct {
	// Direct holds data per final destination: the NegotiaToR VOQs, the
	// baseline's direct queues, the hybrid's elephant queues.
	Direct QueueClass
	// Lanes is the optional secondary VOQ set: per-intermediate VLB spray
	// lanes for the baseline, per-destination mice queues for the hybrid.
	Lanes QueueClass
	// Relay holds in-transit data per final destination (second-hop
	// virtual output queues).
	Relay RelayClass
	// CumInjected is the optional cumulative injected-bytes table per
	// destination (stateful matcher view).
	CumInjected []int64
	// SprayPtr is a rotating destination pointer for slot-time spray
	// disciplines.
	SprayPtr int
	// Losses are bytes destroyed by failures, awaiting detection and
	// source requeue.
	Losses []Loss

	// sh is the owning shard — its active-node sets, its page-release
	// queue and its relay-destination index; id is the node's ToR index
	// and bit its shard-local index (id - sh.Lo). Every mutation of a node
	// happens in a serial phase or in its own shard's parallel step, so
	// the shard-local structures never race.
	sh      *Shard
	id, bit int32
	// spec remembers the topology size, class configuration and recycling
	// pools the lazy slabs materialize from (shared by every node of a
	// core).
	spec *nodeSpec
}

// nodeSpec is the shared recipe lazy materialization follows: the
// per-class slab sizes and options of Config, captured once per core,
// and the core's recycling pools (see queue.SegPool and queue.PagePool
// for why they may be unsynchronised).
type nodeSpec struct {
	n           int
	priority    bool
	lanes       bool
	relay       bool
	cumInjected bool
	segs        *queue.SegPool
	dests       *queue.PagePool[queue.DestQueue]
	fifos       *queue.PagePool[queue.FIFO]
}

// Queue-class tags: a class's shard active set, its page-release
// candidates and its invariant messages are keyed by them.
const (
	classDirect uint8 = iota
	classLanes
	classRelay
)

var className = [...]string{"direct", "lane", "relay"}

// pageRef is one empty-page release candidate: which node/class/page went
// empty, the page's touch version at that moment, and (stamped by the
// serial merge) the round it was recorded.
type pageRef struct {
	tor   int32
	page  int32
	class uint8
	ver   uint32
	round int64
}

// pageRelq is a shard's pending-release queue: refs append during the
// shard's own take phases (or the serial phases), and the core's serial
// merge stamps, ages and applies them (see Core.mergeRound).
type pageRelq struct {
	refs    []pageRef
	head    int
	stamped int
}

// RequeueClass selects how Core.RequeueDetectedLosses returns a detected
// loss to the recording node's queues — each control plane records losses
// in the class whose queue set its discipline actually serves.
type RequeueClass uint8

const (
	// RequeueDirect rewinds the flow's sent cursor and re-enqueues into
	// the recording node's direct VOQ for Dst — the NegotiaToR semantics
	// (and the zero value, so plain RecordLoss keeps them).
	RequeueDirect RequeueClass = iota
	// RequeueLane rewinds the sent cursor and re-enqueues into lane Via
	// (a VLB spray lane, the hybrid's mice queue): disciplines whose
	// sources never serve the direct set must not strand bytes there.
	RequeueLane
	// RequeueRelay re-enqueues the bytes into the recording node's relay
	// FIFO for Dst without rewinding the flow: second-hop bytes were
	// already noted sent at their first hop, and relay delivery does not
	// note them again.
	RequeueRelay
)

// Loss books one run of failure-destroyed bytes: flow, destination, flow
// offset, byte count, destruction time and how to requeue on detection.
type Loss struct {
	F     *flows.Flow
	Dst   int
	Off   int64
	N     int64
	At    sim.Time
	Class RequeueClass
	Via   int32 // lane index for RequeueLane
}

func newNode(spec *nodeSpec) *Node {
	nd := &Node{spec: spec}
	nd.Direct.nd, nd.Direct.tag = nd, classDirect
	nd.Lanes.nd, nd.Lanes.tag = nd, classLanes
	nd.Relay.nd, nd.Relay.tag = nd, classRelay
	return nd
}

// configured reports whether the core's configuration carries the class
// tagged tag (whether or not it has materialized yet).
func (nd *Node) configured(tag uint8) bool {
	switch tag {
	case classLanes:
		return nd.spec.lanes
	case classRelay:
		return nd.spec.relay
	}
	return true
}

// class is what every queue class keeps: its slab and the indexes that
// must mirror it exactly — the occupancy index and the aggregate bytes,
// and, through the owning node, the shard's active-node bit and the
// page-release candidates. added and removed are the only writers of the
// indexes and the page counter; the classes' push and take methods call
// them after moving bytes.
type class[Q queue.Queue] struct {
	// Slab holds the queues. Engines read it freely; every mutation goes
	// through the class's methods.
	Slab queue.Slab[Q]
	// Occ indexes the non-empty queues; per-round sweeps iterate it in
	// ascending destination order, making round cost O(active), not O(N).
	Occ OccSet
	// Total is the class's aggregate queued bytes: an engine skips a whole
	// node's round work with one O(1) read instead of scanning Occ.
	Total int64
	nd    *Node
	tag   uint8
}

// added books n > 0 bytes just pushed into dst's queue: the page
// counter, the occupancy bit, and the shard's active bit on the
// aggregate's 0 -> nonzero transition.
func (c *class[Q]) added(dst int, n int64) {
	c.Slab.Add(dst, n)
	if c.Total == 0 {
		c.nd.sh.active(c.tag).Set(int(c.nd.bit))
	}
	c.Total += n
	c.Occ.Set(dst)
}

// removed books n > 0 bytes just taken from dst's queue; empty reports
// whether the queue went empty. A page whose counter hits zero becomes a
// release candidate at its current touch version.
func (c *class[Q]) removed(dst int, n int64, empty bool) {
	nd := c.nd
	if pb, ver := c.Slab.Add(dst, -n); pb == 0 {
		q := &nd.sh.relq
		q.refs = append(q.refs, pageRef{tor: nd.id, page: int32(queue.PageOf(dst)), class: c.tag, ver: ver})
	}
	if c.Total -= n; c.Total == 0 {
		nd.sh.active(c.tag).Clear(int(nd.bit))
	}
	if empty {
		c.Occ.Clear(dst)
	}
}

// check reports the first way the class's indexes disagree with its
// slab: a queue aggregate that differs from its recount (qb returns
// both), an occupancy bit without bytes or bytes without the bit (an
// absent page must carry no bit at all), a page counter that is not its
// queues' sum, an aggregate that is not the class's sum, or a shard
// active bit that does not mirror the aggregate. An unmaterialized class
// must read as empty everywhere. It costs O(N) per materialized class.
func (c *class[Q]) check(qb func(*Q) (bytes, recount int64)) error {
	nd, name := c.nd, className[c.tag]
	if !c.Slab.Materialized() {
		if c.Total != 0 || c.Occ.words != nil {
			return fmt.Errorf("fabric: tor %d unmaterialized %s slab with residue (bytes=%d)", nd.id, name, c.Total)
		}
	} else {
		var total int64
		for j := 0; j < nd.spec.n; j++ {
			var b int64
			if q := c.Slab.Probe(j); q != nil {
				var r int64
				if b, r = qb(q); b != r {
					return fmt.Errorf("fabric: tor %d %s[%d] aggregate %d != recount %d", nd.id, name, j, b, r)
				}
			} else if c.Occ.Has(j) {
				return fmt.Errorf("fabric: tor %d unmaterialized %s page %d with occupancy residue at dst %d", nd.id, name, queue.PageOf(j), j)
			}
			if c.Occ.Has(j) != (b > 0) {
				return fmt.Errorf("fabric: tor %d %s occupancy[%d] = %v, queue holds %d", nd.id, name, j, c.Occ.Has(j), b)
			}
			total += b
		}
		var err error
		c.Slab.ForEachPage(func(page, _ int, qs []Q, bytes int64) {
			var sum int64
			for k := range qs {
				b, _ := qb(&qs[k])
				sum += b
			}
			if sum != bytes && err == nil {
				err = fmt.Errorf("fabric: tor %d %s page %d counter %d, queues hold %d", nd.id, name, page, bytes, sum)
			}
		})
		if err != nil {
			return err
		}
		if total != c.Total {
			return fmt.Errorf("fabric: tor %d %s aggregate %d, queues hold %d", nd.id, name, c.Total, total)
		}
	}
	if has := nd.sh.active(c.tag).Has(int(nd.bit)); has != (c.Total > 0) {
		return fmt.Errorf("fabric: shard %d active-%s[%d] = %v, node holds %d", nd.sh.K, name, nd.id, has, c.Total)
	}
	return nil
}

// QueueClass is one per-destination VOQ class of a node (Direct or
// Lanes): a paged slab of PIAS queues with its indexes. Push, Take,
// TakeLowest and TakeHeadCell are its only mutation paths; its readers
// are nil-page-safe.
type QueueClass struct {
	class[queue.DestQueue]
}

// materialize allocates the page table and the occupancy index (and, for
// the direct class, the optional cumulative-injected table); callers
// check Slab.Materialized first. Per-destination queued bytes live in
// the pages themselves, so a touched node's footprint stays proportional
// to the destinations its traffic reaches, never to the fabric width.
func (c *QueueClass) materialize() {
	spec := c.nd.spec
	c.Slab = queue.NewDestSlab(spec.n, spec.priority)
	c.Occ = newOccSet(spec.n)
	if c.tag == classDirect && spec.cumInjected {
		c.nd.CumInjected = make([]int64, spec.n)
	}
}

// Push enqueues n bytes of f, whose first byte is at flow offset off,
// for dst at time at (PIAS places bytes by offset; a whole flow or group
// is Push(dst, f, f.Total(), 0, at)).
func (c *QueueClass) Push(dst int, f *flows.Flow, n, off int64, at sim.Time) {
	if n <= 0 {
		return
	}
	if !c.Slab.Materialized() {
		c.materialize()
	}
	c.Slab.Queue(dst, c.nd.spec.dests).PushBytesPool(c.nd.spec.segs, f, n, off, at)
	c.added(dst, n)
}

// restore re-enqueues one checkpointed segment verbatim into priority
// level prio with Push's bookkeeping, bypassing the PIAS offset split:
// the placement was decided at the original push and must be reproduced,
// not recomputed.
func (c *QueueClass) restore(dst, prio int, s queue.Segment) error {
	if !c.Slab.Materialized() {
		c.materialize()
	}
	if err := c.Slab.Queue(dst, c.nd.spec.dests).RestoreSegment(c.nd.spec.segs, prio, s); err != nil {
		return err
	}
	c.added(dst, s.Bytes)
	return nil
}

// Take removes up to max bytes from dst's queue (priorities in order,
// FIFO within each), returning the bytes taken.
func (c *QueueClass) Take(dst int, max int64, emit func(f *flows.Flow, n int64)) int64 {
	q := c.Slab.Probe(dst)
	if q == nil {
		return 0
	}
	taken := q.Take(max, emit)
	if taken > 0 {
		c.removed(dst, taken, q.Empty())
	}
	return taken
}

// TakeLowest removes up to max bytes from dst's lowest-priority
// (elephant) level only — the selective relay's first-hop source drain.
func (c *QueueClass) TakeLowest(dst int, max int64, emit func(f *flows.Flow, n int64)) int64 {
	q := c.Slab.Probe(dst)
	if q == nil {
		return 0
	}
	taken := q.TakeLowestOnly(max, emit)
	if taken > 0 {
		c.removed(dst, taken, q.Empty())
	}
	return taken
}

// TakeHeadCell removes up to max bytes for a single final destination
// from the head of dst's queue (see queue.DestQueue.TakeHeadCell),
// returning the destination served and the bytes taken (-1 and 0 when
// the queue is empty).
func (c *QueueClass) TakeHeadCell(dst int, max int64, emit func(f *flows.Flow, n int64)) (int, int64) {
	q := c.Slab.Probe(dst)
	if q == nil {
		return -1, 0
	}
	d, taken := q.TakeHeadCell(max, emit)
	if taken > 0 {
		c.removed(dst, taken, q.Empty())
	}
	return d, taken
}

// Bytes reports dst's queued bytes.
func (c *QueueClass) Bytes(dst int) int64 {
	if q := c.Slab.Probe(dst); q != nil {
		return q.Bytes()
	}
	return 0
}

// HeadDst returns the final destination of the next data dst's queue
// would serve, or -1 when it is empty.
func (c *QueueClass) HeadDst(dst int) int {
	if q := c.Slab.Probe(dst); q != nil {
		return q.HeadDst()
	}
	return -1
}

// LowestPriorityBytes reports the bytes queued at dst's lowest (elephant)
// priority.
func (c *QueueClass) LowestPriorityBytes(dst int) int64 {
	if q := c.Slab.Probe(dst); q != nil {
		return q.LowestPriorityBytes()
	}
	return 0
}

// WeightedHoL computes dst's weighted head-of-line delay (App. A.2.3);
// an absent page is a set of empty queues, whose HoL waits are all zero.
func (c *QueueClass) WeightedHoL(dst int, now sim.Time, alpha float64) float64 {
	if q := c.Slab.Probe(dst); q != nil {
		return q.WeightedHoL(now, alpha)
	}
	return 0
}

// RelayClass is a node's relay FIFO set: in-transit bytes per final
// destination. It keeps the classes' shared bookkeeping and adds its
// own: the shard's relay-destination index, the ready-time drain and the
// headroom under an aggregate cap.
type RelayClass struct {
	class[queue.FIFO]
}

// materialize allocates the page table and the occupancy index; callers
// check Slab.Materialized first.
func (r *RelayClass) materialize() {
	r.Slab = queue.NewFIFOSlab(r.nd.spec.n)
	r.Occ = newOccSet(r.nd.spec.n)
}

// Push enqueues one in-transit segment for final destination dst.
func (r *RelayClass) Push(dst int, s queue.Segment) {
	if s.Bytes <= 0 {
		return
	}
	if !r.Slab.Materialized() {
		r.materialize()
	}
	r.Slab.Queue(dst, r.nd.spec.fifos).PushPool(r.nd.spec.segs, s)
	if !r.Occ.Has(dst) {
		r.nd.sh.relDst.inc(r.nd.spec.n, dst)
	}
	r.added(dst, s.Bytes)
}

// Drain forwards up to max relay bytes for dst that have physically
// arrived by now, returning the bytes taken.
func (r *RelayClass) Drain(dst int, max int64, now sim.Time, emit func(f *flows.Flow, n int64)) int64 {
	q := r.Slab.Probe(dst)
	if q == nil {
		return 0
	}
	taken := q.TakeReady(max, now, emit)
	if taken > 0 {
		r.removed(dst, taken, q.Empty())
		if q.Empty() {
			r.nd.sh.relDst.dec(dst)
		}
	}
	return taken
}

// Bytes reports the relay backlog for dst — the read a spray source uses
// to check an intermediate's VOQ headroom.
func (r *RelayClass) Bytes(dst int) int64 {
	if q := r.Slab.Probe(dst); q != nil {
		return q.Bytes()
	}
	return 0
}

// HeadReady reports whether the relay FIFO for dst has data that has
// physically arrived by now.
func (r *RelayClass) HeadReady(dst int, now sim.Time) bool {
	q := r.Slab.Probe(dst)
	return q != nil && q.HeadReady(now)
}

// Headroom returns how many more relay bytes the node accepts under the
// given aggregate cap.
func (r *RelayClass) Headroom(cap int64) int64 { return cap - r.Total }

// Materialize eagerly allocates every class the node's configuration
// enables — page tables AND every page — as pre-paging construction did.
// Tests use it to prove lazy and eager fabrics produce byte-identical
// results.
func (nd *Node) Materialize() {
	for _, c := range []*QueueClass{&nd.Direct, &nd.Lanes} {
		if !nd.configured(c.tag) {
			continue
		}
		if !c.Slab.Materialized() {
			c.materialize()
		}
		c.Slab.MaterializeAll(nd.spec.dests)
	}
	if r := &nd.Relay; nd.spec.relay {
		if !r.Slab.Materialized() {
			r.materialize()
		}
		r.Slab.MaterializeAll(nd.spec.fifos)
	}
}

// NextDirectOrRelay returns the smallest destination strictly greater
// than after with direct backlog or queued relay data, or -1 — the
// ascending sweep order of the predefined transmission phase. Either
// class may be unmaterialized.
func (nd *Node) NextDirectOrRelay(after int) int {
	return nextUnion(&nd.Direct.Occ, &nd.Relay.Occ, after)
}

// verify reports the first way the node's classes disagree with their
// queues (see class.check), or a cumulative-injected table that outlives
// the direct slab it materializes with.
func (nd *Node) verify() error {
	if !nd.Direct.Slab.Materialized() && nd.CumInjected != nil {
		return fmt.Errorf("fabric: tor %d cumulative-injected table without a direct slab", nd.id)
	}
	if err := nd.Direct.check(destQueueBytes); err != nil {
		return err
	}
	if err := nd.Lanes.check(destQueueBytes); err != nil {
		return err
	}
	return nd.Relay.check(fifoBytes)
}

// destQueueBytes and fifoBytes read a queue's aggregate for class.check
// with its recount; a FIFO's byte counter is its only figure.
func destQueueBytes(q *queue.DestQueue) (bytes, recount int64) { return q.Bytes(), q.Recount() }
func fifoBytes(q *queue.FIFO) (bytes, recount int64)           { return q.Bytes(), q.Bytes() }
