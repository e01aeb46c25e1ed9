package fabric

import (
	"negotiator/internal/flows"
	"negotiator/internal/metrics"
	"negotiator/internal/sim"
)

// Shard owns the metric accumulators of one contiguous ToR range
// [Lo, Hi). A control plane's phase steps book deliveries and losses
// through the shard owning the flow's source (in-shard, race-free), or
// defer them into their own per-shard records and apply through
// Core.Deliver from the serial merge. Accumulators merge
// order-independently (sorted percentiles, per-ToR sums), so results are
// identical at any worker count.
type Shard struct {
	c      *Core
	K      int
	Lo, Hi int

	// ActiveDirect, ActiveLanes and ActiveRelay index the shard's nodes
	// with a non-zero class aggregate (bit i-Lo set iff node i holds bytes
	// of that class). They are the node-level analogue of the per-node
	// destination occupancy sets: a slot/epoch loop iterates the shard's
	// active nodes directly instead of probing all Hi-Lo aggregates.
	// Maintained by the class choke points (class.added/removed); every
	// mutation of node i happens either in a serial phase or in
	// shard-of-i's own parallel step, so the shard-local words never race.
	ActiveDirect OccSet
	ActiveLanes  OccSet
	ActiveRelay  OccSet

	// Per-shard accumulators. FCT and Goodput merge at snapshot time
	// (Core.MergedFCT/MergedGoodput); Delivered, LostDelta, LossRecs,
	// Tagged and Freed are deltas folded by the core after every round.
	FCT       metrics.FCTStats
	Goodput   *metrics.Goodput
	Delivered int64
	LostDelta int64
	LossRecs  int64
	Tagged    []*flows.Flow
	// Freed collects untagged flows that completed this round; the merge
	// hands them to the core's recycling pool (tagged flows follow after
	// their tag accounting). A completed flow has no live queue segments
	// or loss records, so recycling is safe.
	Freed []*flows.Flow

	// relq queues the shard's empty-page release candidates (recorded by
	// the class take choke points, applied by the core's serial merge —
	// see Core.mergeRound).
	relq pageRelq

	// relDst is the shard's relay-destination index (see relayDstIndex):
	// maintained by the relay class's choke points, consumed by slot planes that
	// invert the relay-drain walk from sources to backlogged destinations.
	relDst relayDstIndex
}

// active returns the shard's active-node set of a queue class.
func (sh *Shard) active(class uint8) *OccSet {
	switch class {
	case classDirect:
		return &sh.ActiveDirect
	case classLanes:
		return &sh.ActiveLanes
	}
	return &sh.ActiveRelay
}

// RelayDsts exposes the shard's relay-destination index: the set of
// destinations any of the shard's nodes holds relay backlog for, plus its
// member count. The set is empty (nil-safe to iterate) until the shard's
// first relay push. Callers may iterate it only from the shard's own
// parallel step or a serial phase, and must finish iterating before
// draining (drains mutate the index).
func (sh *Shard) RelayDsts() (*OccSet, int) {
	return &sh.relDst.occ, sh.relDst.count
}

// Deliver accounts one run of payload bytes arriving at dst: shard
// delivery/goodput accumulation, flow completion with FCT recording and
// tag deferral, plus the optional receiver-buffer model and delivery
// observer (both sequential-only by the control planes' worker clamping).
func (sh *Shard) Deliver(f *flows.Flow, dst int, n int64, at sim.Time) {
	sh.Delivered += n
	sh.Goodput.Deliver(dst, n)
	if m := f.Deliver(n, at); m > 0 {
		// One FCT sample per completed member: group delivery is FIFO, so
		// the m members whose (i+1)·Size boundary this run crossed all
		// finish now, exactly as m separate flows would.
		fct := at.Sub(f.Arrival)
		for i := 0; i < m; i++ {
			sh.FCT.Record(f.Size, fct)
		}
		if f.Done() {
			if f.Tag != 0 {
				sh.Tagged = append(sh.Tagged, f)
			} else {
				sh.Freed = append(sh.Freed, f)
			}
		}
	}
	if sh.c.RxBuffers != nil {
		sh.c.RxBuffers[dst].Add(at, n)
	}
	if sh.c.OnDeliver != nil {
		sh.c.OnDeliver(dst, at, n)
	}
}

// RecordLoss books n bytes of f (starting at flow offset off) destroyed
// by a failed link on a transmission from nd toward dst, awaiting
// detection and source requeue. The loss list is owned by the
// transmitting node, hence by the calling shard.
func (sh *Shard) RecordLoss(nd *Node, f *flows.Flow, dst int, off, n int64, at sim.Time) {
	sh.RecordLossClass(nd, f, dst, off, n, at, RequeueDirect, -1)
}

// RecordLossClass is RecordLoss with an explicit requeue class: via names
// the lane index for RequeueLane losses (ignored otherwise).
func (sh *Shard) RecordLossClass(nd *Node, f *flows.Flow, dst int, off, n int64, at sim.Time, class RequeueClass, via int) {
	sh.LostDelta += n
	sh.LossRecs++
	nd.Losses = append(nd.Losses, Loss{F: f, Dst: dst, Off: off, N: n, At: at, Class: class, Via: int32(via)})
}

// Deliver applies one delivery's accounting from serial context (a
// control plane's post-barrier merge), routing it to the shard owning the
// destination ToR — order-independent, since per-shard accumulators merge
// commutatively.
func (c *Core) Deliver(f *flows.Flow, dst int, n int64, at sim.Time) {
	c.Shards[c.ShardOf[dst]].Deliver(f, dst, n, at)
}
