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
// Queue sets are PAGED slabs (queue.DestSlab / queue.FIFOSlab) indexed
// by the per-class occupancy sets. They materialize lazily at two
// granularities: a fresh node owns no queue memory at all and each class
// (Direct with its index, Lanes, Relay) allocates its page table on the
// first push into it; the
// pages themselves (fixed-width chunks of queue.PageSize destinations)
// materialize from the core's page pool on the first push that touches
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
// Engines may READ materialized slabs freely but must tolerate nil pages
// on nodes (and destinations) they merely probe — use the nil-page-safe
// accessors below (RelayQueuedBytes, DirectQueuedBytes, RelayHeadReady,
// LaneHeadDst, DirectWeightedHoL, ...). Every MUTATION must go through
// the Push*/Take*/Drain* choke points, which keep the
// aggregates, the page counters and the indexes exact — the occupancy
// invariant engines assert under CheckInvariants (Core.CheckOccupancy).
type Node struct {
	// Direct holds data per final destination: the NegotiaToR VOQs, the
	// baseline's direct queues, the hybrid's elephant queues.
	Direct queue.DestSlab
	// Lanes is the optional secondary VOQ set: per-intermediate VLB spray
	// lanes for the baseline, per-destination mice queues for the hybrid.
	Lanes queue.DestSlab
	// Relay holds in-transit data per final destination (second-hop
	// virtual output queues); RelayBytes is its single aggregate counter,
	// maintained exclusively by PushRelay/DrainRelay below so no engine
	// tallies it in two places.
	Relay      queue.FIFOSlab
	RelayBytes int64
	// DirectBytes and LanesBytes are the per-class aggregate byte
	// counters (RelayBytes' counterparts), maintained by the choke
	// points: an engine skips a whole node's per-port round work with one
	// O(1) read instead of scanning its occupancy words.
	DirectBytes int64
	LanesBytes  int64
	// DirectOcc, LanesOcc and RelayOcc index the non-empty entries of the
	// corresponding queue set; per-round sweeps iterate them in ascending
	// destination order, making round cost O(active), not O(N).
	DirectOcc, LanesOcc, RelayOcc OccSet
	// CumInjected is the optional cumulative injected-bytes table per
	// destination (stateful matcher view).
	CumInjected []int64
	// SprayPtr is a rotating destination pointer for slot-time spray
	// disciplines.
	SprayPtr int
	// Losses are bytes destroyed by failures, awaiting detection and
	// source requeue.
	Losses []Loss

	// actDirect/actLanes/actRelay point at the owning shard's active-node
	// sets, with actBit the node's shard-local bit. The choke points flip
	// the bit exactly on the per-class aggregate's 0<->nonzero transitions.
	actDirect, actLanes, actRelay *OccSet
	actBit                        int

	// id is the node's ToR index and relq its owning shard's
	// pending-release queue: take choke points record empty-page
	// candidates there (shard-local, so parallel phases never contend)
	// and the core's serial merge ages and applies them.
	id   int32
	relq *pageRelq
	// relDst points at the owning shard's relay-destination index: the
	// set of destinations ANY of the shard's nodes holds relay backlog
	// for, refcounted so the last node to drain a destination clears its
	// bit. PushRelay/DrainRelay maintain it on the same 0<->nonzero queue
	// transitions that flip RelayOcc; pushes are serial-phase-only and
	// drains happen in the owning shard's own parallel step, so the index
	// never races.
	relDst *relayDstIndex

	// spec remembers the topology size and class configuration the lazy
	// slabs materialize to (shared by every node of a core).
	spec *nodeSpec
	// pool recycles segment arrays fabric-wide (the core's; see
	// queue.SegPool for why it may be unsynchronised). pages recycles
	// released queue pages the same way (materialization happens only in
	// serial phases, release only in the serial merge).
	pool  *queue.SegPool
	pages *queue.PagePool
}

// nodeSpec is the shared recipe lazy materialization follows: the
// per-class slab sizes and options of Config, captured once per core.
type nodeSpec struct {
	n           int
	priority    bool
	lanes       bool
	relay       bool
	cumInjected bool
}

// Queue-class tags for page-release candidates.
const (
	classDirect uint8 = iota
	classLanes
	classRelay
)

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

func newNode(spec *nodeSpec, pool *queue.SegPool, pages *queue.PagePool) *Node {
	return &Node{spec: spec, pool: pool, pages: pages}
}

// noteEmptyPage records a release candidate with the page's touch
// version. Outside a core (bare-node tests) there is no queue and pages
// simply stay materialized.
func (nd *Node) noteEmptyPage(class uint8, page int, ver uint32) {
	if nd.relq == nil {
		return
	}
	nd.relq.refs = append(nd.relq.refs, pageRef{tor: nd.id, page: int32(page), class: class, ver: ver})
}

// materializeDirect allocates the direct page table with its occupancy
// index and (when configured) the cumulative-injected table. Called from
// the push choke points on first use; pushes happen only in serial
// phases, so growth never races with parallel reads. Per-destination
// queued bytes live in the pages themselves (DestSlab.Bytes), so a
// touched node's footprint stays proportional to the destinations its
// traffic reaches, never to the fabric width.
func (nd *Node) materializeDirect() {
	nd.Direct = queue.NewDestSlab(nd.spec.n, nd.spec.priority)
	nd.DirectOcc = newOccSet(nd.spec.n)
	if nd.spec.cumInjected {
		nd.CumInjected = make([]int64, nd.spec.n)
	}
}

// materializeLanes allocates the secondary page table and its index.
func (nd *Node) materializeLanes() {
	nd.Lanes = queue.NewDestSlab(nd.spec.n, nd.spec.priority)
	nd.LanesOcc = newOccSet(nd.spec.n)
}

// materializeRelay allocates the relay page table and its index.
func (nd *Node) materializeRelay() {
	nd.Relay = queue.NewFIFOSlab(nd.spec.n)
	nd.RelayOcc = newOccSet(nd.spec.n)
}

// Materialize eagerly allocates every class the node's configuration
// enables — page tables AND every page — as pre-paging construction did.
// Tests use it to prove lazy and eager fabrics produce byte-identical
// results.
func (nd *Node) Materialize() {
	if !nd.Direct.Materialized() {
		nd.materializeDirect()
	}
	nd.Direct.MaterializeAll(nd.pages)
	if nd.spec.lanes {
		if !nd.Lanes.Materialized() {
			nd.materializeLanes()
		}
		nd.Lanes.MaterializeAll(nd.pages)
	}
	if nd.spec.relay {
		if !nd.Relay.Materialized() {
			nd.materializeRelay()
		}
		nd.Relay.MaterializeAll(nd.pages)
	}
}

// RelayEnabled reports whether the node's configuration carries relay
// FIFOs (whether or not they have materialized yet).
func (nd *Node) RelayEnabled() bool { return nd.spec.relay }

// PushDirect enqueues all bytes of flow f (all members, for a group) for
// destination dst at time now.
func (nd *Node) PushDirect(dst int, f *flows.Flow, at sim.Time) {
	nd.PushDirectBytes(dst, f, f.Total(), 0, at)
}

// PushDirectBytes enqueues n bytes of f (first byte at flow offset off)
// for dst, maintaining the page counter and the occupancy index.
func (nd *Node) PushDirectBytes(dst int, f *flows.Flow, n, off int64, at sim.Time) {
	if n <= 0 {
		return
	}
	if !nd.Direct.Materialized() {
		nd.materializeDirect()
	}
	nd.Direct.Queue(dst, nd.pages).PushBytesPool(nd.pool, f, n, off, at)
	nd.Direct.Add(dst, n)
	if nd.DirectBytes == 0 && nd.actDirect != nil {
		nd.actDirect.Set(nd.actBit)
	}
	nd.DirectBytes += n
	nd.DirectOcc.Set(dst)
}

// TakeDirect removes up to max bytes from the dst VOQ (priorities in
// order, FIFO within each), returning the bytes taken.
func (nd *Node) TakeDirect(dst int, max int64, emit func(f *flows.Flow, n int64)) int64 {
	q := nd.Direct.Probe(dst)
	if q == nil {
		return 0
	}
	taken := q.Take(max, emit)
	if taken > 0 {
		nd.afterTakeDirect(dst, taken)
	}
	return taken
}

// TakeDirectLowest removes up to max bytes from the dst VOQ's
// lowest-priority (elephant) class only — the selective relay's first-hop
// source drain.
func (nd *Node) TakeDirectLowest(dst int, max int64, emit func(f *flows.Flow, n int64)) int64 {
	q := nd.Direct.Probe(dst)
	if q == nil {
		return 0
	}
	taken := q.TakeLowestOnly(max, emit)
	if taken > 0 {
		nd.afterTakeDirect(dst, taken)
	}
	return taken
}

// afterTakeDirect folds a direct take into the aggregates, the page
// counter and the occupancy indexes, and records an empty-page candidate
// when the page's counter hits zero.
func (nd *Node) afterTakeDirect(dst int, taken int64) {
	if pb, ver := nd.Direct.Add(dst, -taken); pb == 0 {
		nd.noteEmptyPage(classDirect, queue.PageOf(dst), ver)
	}
	if nd.DirectBytes -= taken; nd.DirectBytes == 0 && nd.actDirect != nil {
		nd.actDirect.Clear(nd.actBit)
	}
	if nd.Direct.Bytes(dst) == 0 {
		nd.DirectOcc.Clear(dst)
	}
}

// PushLane enqueues all bytes of flow f (all members, for a group) into
// lane dst at time now.
func (nd *Node) PushLane(dst int, f *flows.Flow, at sim.Time) {
	nd.PushLaneBytes(dst, f, f.Total(), 0, at)
}

// PushLaneBytes enqueues n bytes of f (offset off) into lane dst.
func (nd *Node) PushLaneBytes(dst int, f *flows.Flow, n, off int64, at sim.Time) {
	if n <= 0 {
		return
	}
	if !nd.Lanes.Materialized() {
		nd.materializeLanes()
	}
	nd.Lanes.Queue(dst, nd.pages).PushBytesPool(nd.pool, f, n, off, at)
	nd.Lanes.Add(dst, n)
	if nd.LanesBytes == 0 && nd.actLanes != nil {
		nd.actLanes.Set(nd.actBit)
	}
	nd.LanesBytes += n
	nd.LanesOcc.Set(dst)
}

// TakeLane removes up to max bytes from lane dst.
func (nd *Node) TakeLane(dst int, max int64, emit func(f *flows.Flow, n int64)) int64 {
	q := nd.Lanes.Probe(dst)
	if q == nil {
		return 0
	}
	taken := q.Take(max, emit)
	if taken > 0 {
		nd.afterTakeLane(dst, taken, q.Empty())
	}
	return taken
}

// TakeLaneHeadCell removes up to max bytes for a single destination from
// lane dst's head (see queue.DestQueue.TakeHeadCell), returning the
// destination served and the bytes taken.
func (nd *Node) TakeLaneHeadCell(dst int, max int64, emit func(f *flows.Flow, n int64)) (int, int64) {
	q := nd.Lanes.Probe(dst)
	if q == nil {
		return -1, 0
	}
	d, taken := q.TakeHeadCell(max, emit)
	if taken > 0 {
		nd.afterTakeLane(dst, taken, q.Empty())
	}
	return d, taken
}

// afterTakeLane folds a lane take into the aggregate, the page counter
// and the occupancy index.
func (nd *Node) afterTakeLane(dst int, taken int64, nowEmpty bool) {
	if pb, ver := nd.Lanes.Add(dst, -taken); pb == 0 {
		nd.noteEmptyPage(classLanes, queue.PageOf(dst), ver)
	}
	if nd.LanesBytes -= taken; nd.LanesBytes == 0 && nd.actLanes != nil {
		nd.actLanes.Clear(nd.actBit)
	}
	if nowEmpty {
		nd.LanesOcc.Clear(dst)
	}
}

// PushRelay enqueues one in-transit segment for final destination dst and
// maintains the aggregate relay counter, the page counter and the
// occupancy index.
func (nd *Node) PushRelay(dst int, s queue.Segment) {
	if s.Bytes <= 0 {
		return
	}
	if !nd.Relay.Materialized() {
		nd.materializeRelay()
	}
	nd.Relay.Get(dst, nd.pages).PushPool(nd.pool, s)
	nd.Relay.Add(dst, s.Bytes)
	if nd.RelayBytes == 0 && nd.actRelay != nil {
		nd.actRelay.Set(nd.actBit)
	}
	nd.RelayBytes += s.Bytes
	if !nd.RelayOcc.Has(dst) {
		nd.RelayOcc.Set(dst)
		if nd.relDst != nil {
			nd.relDst.inc(nd.spec.n, dst)
		}
	}
}

// DrainRelay forwards up to max relay bytes for dst that have physically
// arrived by now, maintaining the aggregate counter. It returns the bytes
// taken.
func (nd *Node) DrainRelay(dst int, max int64, now sim.Time, emit func(f *flows.Flow, n int64)) int64 {
	q := nd.Relay.Probe(dst)
	if q == nil {
		return 0
	}
	taken := q.TakeReady(max, now, emit)
	if taken > 0 {
		if pb, ver := nd.Relay.Add(dst, -taken); pb == 0 {
			nd.noteEmptyPage(classRelay, queue.PageOf(dst), ver)
		}
		if nd.RelayBytes -= taken; nd.RelayBytes == 0 && nd.actRelay != nil {
			nd.actRelay.Clear(nd.actBit)
		}
		if q.Empty() {
			nd.RelayOcc.Clear(dst)
			if nd.relDst != nil {
				nd.relDst.dec(dst)
			}
		}
	}
	return taken
}

// NextDirectOrRelay returns the smallest destination strictly greater
// than after with direct backlog or queued relay data, or -1 — the
// ascending sweep order of the predefined transmission phase.
func (nd *Node) NextDirectOrRelay(after int) int {
	if !nd.Relay.Materialized() {
		return nd.DirectOcc.Next(after)
	}
	return nextUnion(&nd.DirectOcc, &nd.RelayOcc, after)
}

// RelayHeadroom returns how many more relay bytes the node accepts under
// the given aggregate cap.
func (nd *Node) RelayHeadroom(cap int64) int64 { return cap - nd.RelayBytes }

// RelayQueuedBytes reports the relay backlog for dst, zero when the relay
// slab (or dst's page) has not materialized — the nil-page-safe read
// engines use to probe OTHER nodes (a spray source checking an
// intermediate's VOQ headroom).
func (nd *Node) RelayQueuedBytes(dst int) int64 { return nd.Relay.Bytes(dst) }

// RelayHeadReady reports whether the relay FIFO for dst has data that has
// physically arrived by now (false for unmaterialized slabs or pages).
func (nd *Node) RelayHeadReady(dst int, now sim.Time) bool {
	q := nd.Relay.Probe(dst)
	return q != nil && q.HeadReady(now)
}

// DirectQueuedBytes reports the direct backlog for dst, zero when the
// direct slab (or dst's page) has not materialized — the nil-page-safe
// read matcher demand views and spray scans use.
func (nd *Node) DirectQueuedBytes(dst int) int64 { return nd.Direct.Bytes(dst) }

// DirectLowestPriorityBytes reports the bytes queued at dst's lowest
// (elephant) priority, zero for unmaterialized slabs or pages.
func (nd *Node) DirectLowestPriorityBytes(dst int) int64 {
	q := nd.Direct.Probe(dst)
	if q == nil {
		return 0
	}
	return q.LowestPriorityBytes()
}

// DirectWeightedHoL computes the weighted head-of-line delay for dst
// (App. A.2.3), zero for unmaterialized slabs or pages (an absent page
// is a set of empty queues, whose HoL waits are all zero).
func (nd *Node) DirectWeightedHoL(dst int, now sim.Time, alpha float64) float64 {
	q := nd.Direct.Probe(dst)
	if q == nil {
		return 0
	}
	return q.WeightedHoL(now, alpha)
}

// LaneHeadDst returns the destination of the next data lane dst would
// serve, or -1 when the lane is empty (or its page absent).
func (nd *Node) LaneHeadDst(dst int) int {
	q := nd.Lanes.Probe(dst)
	if q == nil {
		return -1
	}
	return q.HeadDst()
}

// CheckRelayCounter asserts the aggregate counter matches the FIFO
// contents (per-round invariant of relay-carrying control planes).
func (nd *Node) CheckRelayCounter() {
	if !nd.Relay.Materialized() {
		return
	}
	var sum int64
	nd.Relay.ForEachPage(func(page, base int, fs []queue.FIFO, bytes int64) {
		for j := range fs {
			sum += fs[j].Bytes()
		}
	})
	if sum != nd.RelayBytes {
		panic(fmt.Sprintf("fabric: relay accounting drift: FIFOs hold %d, counter says %d", sum, nd.RelayBytes))
	}
}

// checkOccupancy asserts the per-queue, per-page and per-class aggregate
// counters and all three occupancy indexes exactly mirror queue contents
// — including that unmaterialized classes report empty/zero everywhere
// (nil slab, zero aggregate) and that unmaterialized PAGES carry no
// residue: an absent page must have no occupancy bits and no page
// counter anywhere in its destination range.
func (nd *Node) checkOccupancy(tor int) {
	if !nd.Direct.Materialized() {
		if nd.DirectBytes != 0 || nd.DirectOcc.words != nil || nd.CumInjected != nil {
			panic(fmt.Sprintf("fabric: tor %d unmaterialized direct slab with residue (bytes=%d)", tor, nd.DirectBytes))
		}
	}
	if !nd.Lanes.Materialized() {
		if nd.LanesBytes != 0 || nd.LanesOcc.words != nil {
			panic(fmt.Sprintf("fabric: tor %d unmaterialized lane slab with residue (bytes=%d)", tor, nd.LanesBytes))
		}
	}
	if !nd.Relay.Materialized() {
		if nd.RelayBytes != 0 || nd.RelayOcc.words != nil {
			panic(fmt.Sprintf("fabric: tor %d unmaterialized relay slab with residue (bytes=%d)", tor, nd.RelayBytes))
		}
	}
	if nd.Direct.Materialized() {
		var direct int64
		for j := 0; j < nd.spec.n; j++ {
			q := nd.Direct.Probe(j)
			var b int64
			if q != nil {
				b = q.Bytes()
				if r := q.Recount(); r != b {
					panic(fmt.Sprintf("fabric: tor %d direct[%d] aggregate %d != recount %d", tor, j, b, r))
				}
			} else if nd.DirectOcc.Has(j) {
				panic(fmt.Sprintf("fabric: tor %d unmaterialized direct page %d with occupancy residue at dst %d", tor, queue.PageOf(j), j))
			}
			if nd.DirectOcc.Has(j) != (b > 0) {
				panic(fmt.Sprintf("fabric: tor %d direct occupancy[%d] = %v, queue holds %d", tor, j, nd.DirectOcc.Has(j), b))
			}
			direct += b
		}
		nd.Direct.ForEachPage(func(page, base int, qs []queue.DestQueue, bytes int64) {
			var sum int64
			for k := range qs {
				sum += qs[k].Bytes()
			}
			if sum != bytes {
				panic(fmt.Sprintf("fabric: tor %d direct page %d counter %d, queues hold %d", tor, page, bytes, sum))
			}
		})
		if direct != nd.DirectBytes {
			panic(fmt.Sprintf("fabric: tor %d DirectBytes = %d, queues hold %d", tor, nd.DirectBytes, direct))
		}
	}
	if nd.Lanes.Materialized() {
		var lanes int64
		for j := 0; j < nd.spec.n; j++ {
			q := nd.Lanes.Probe(j)
			var b int64
			if q != nil {
				b = q.Bytes()
				if r := q.Recount(); r != b {
					panic(fmt.Sprintf("fabric: tor %d lane[%d] aggregate %d != recount %d", tor, j, b, r))
				}
			}
			if nd.LanesOcc.Has(j) != (b > 0) {
				panic(fmt.Sprintf("fabric: tor %d lane occupancy[%d] = %v, queue holds %d", tor, j, nd.LanesOcc.Has(j), b))
			}
			lanes += b
		}
		nd.Lanes.ForEachPage(func(page, base int, qs []queue.DestQueue, bytes int64) {
			var sum int64
			for k := range qs {
				sum += qs[k].Bytes()
			}
			if sum != bytes {
				panic(fmt.Sprintf("fabric: tor %d lane page %d counter %d, queues hold %d", tor, page, bytes, sum))
			}
		})
		if lanes != nd.LanesBytes {
			panic(fmt.Sprintf("fabric: tor %d LanesBytes = %d, queues hold %d", tor, nd.LanesBytes, lanes))
		}
	}
	if nd.Relay.Materialized() {
		for j := 0; j < nd.spec.n; j++ {
			q := nd.Relay.Probe(j)
			empty := q == nil || q.Empty()
			if nd.RelayOcc.Has(j) != !empty {
				panic(fmt.Sprintf("fabric: tor %d relay occupancy[%d] = %v, queue holds %d", tor, j, nd.RelayOcc.Has(j), nd.Relay.Bytes(j)))
			}
		}
		nd.Relay.ForEachPage(func(page, base int, fs []queue.FIFO, bytes int64) {
			var sum int64
			for k := range fs {
				sum += fs[k].Bytes()
			}
			if sum != bytes {
				panic(fmt.Sprintf("fabric: tor %d relay page %d counter %d, FIFOs hold %d", tor, page, bytes, sum))
			}
		})
	}
}
