package negotiator

import (
	"slices"

	"negotiator/internal/fabric"
	"negotiator/internal/flows"
	"negotiator/internal/match"
	"negotiator/internal/queue"
	"negotiator/internal/sim"
)

// engineShard owns the control-plane execution context of one contiguous
// ToR range [lo, hi): a scratch-private matcher handle, cross-shard
// message outboxes, and the transmission emitter state with its prebuilt
// closures. Metric accumulation and delivery/loss accounting go through
// the wrapped fabric core shard (fs). An epoch's phases run over all
// shards between barriers (see Engine.Round); everything a phase writes
// is either owned by this shard (its ToRs' queues, mailboxes and matches;
// its accumulators) or deferred into an outbox that a later phase merges
// in shard order.
//
// Determinism at any worker count follows from three properties:
//
//   - Shards are contiguous ascending ToR ranges and each phase walks its
//     range in ascending order, so concatenating per-shard emissions in
//     shard order reproduces exactly the ToR-ascending order a sequential
//     epoch produces — mailbox contents are identical, byte for byte.
//   - Per-shard FCT/goodput/ledger accumulators merge order-independently
//     (sorted percentiles, sums, max).
//   - Matcher per-ToR state (rings, matrices) is partitioned by the same
//     ToR ranges, and shard handles share it while owning private scratch
//     (see match.Sharded).
type engineShard struct {
	e      *Engine
	k      int
	lo, hi int // ToR range [lo, hi)

	// fs is the fabric core shard carrying this range's FCT/goodput
	// accumulators and delivery/loss accounting.
	fs *fabric.Shard

	// matcher is this shard's handle: a scratch-private fork when running
	// parallel, the engine's matcher itself when sequential or batch.
	matcher match.Matcher

	// Per-shard accept/grant counters, folded into the match ratio at the
	// end of each epoch's control phases.
	accepts int64
	grants  int64

	// inflight counts scheduling messages delivered into this shard's
	// ToRs' mailbox generations and not yet consumed (requests and grants
	// ride the stageLag-deep pipeline). mergeStep raises it, acceptStep
	// and emitStep lower it — all shard-local, so the engine's IdleHorizon
	// may sum the counters racelessly between rounds: zero everywhere
	// means no control message will surface in any future epoch.
	inflight int64

	// Outboxes for cross-shard scheduling messages, bucketed by receiving
	// shard. Phase B fills them; phase C's receiving shard drains bucket
	// [k] of every sender in shard order and resets it. Buckets retain
	// capacity across epochs, so the steady state never allocates.
	reqOut   [][]match.Request
	grantOut [][]match.Grant

	// Occupancy indexes over this shard's ToR range (bit i-lo), the
	// engine-side analogue of the fabric shard's active sets: reqPend[g]
	// and grantPend[g] mark ToRs whose generation-g mailbox is non-empty
	// (set by mergeStep, cleared when phases A/B consume the slot), and
	// matched mirrors tor.hasMatches. Each phase walks only members, so a
	// quiet epoch costs O(active + range/4096) instead of a dense O(range)
	// sweep per phase — the last width-proportional per-round term.
	reqPend   []fabric.OccSet
	grantPend []fabric.OccSet
	matched   fabric.OccSet

	reqScratch []match.Request // batch path: this shard's request snapshot

	// Transmission emitter state shared by the prebuilt closures below.
	// Valid only during one queue drain.
	txNode       *fabric.Node // transmitting ToR's node (loss records)
	txDst        int
	txLost       bool
	txPos        int64    // scheduled-phase byte position (slot timing)
	txAt         sim.Time // predefined-phase fixed arrival time
	txPhaseStart sim.Time
	txInter      *fabric.Node // relay first hop: receiving intermediate

	feedbackFn func(match.Grant, bool)
	grantEmit  func(match.Grant)
	reqEmit    func(match.Request)
	batchEmit  func(match.Request)
	schedEmit  func(*flows.Flow, int64)
	pbEmit     func(*flows.Flow, int64)
	relayEmit  func(*flows.Flow, int64)
}

// initEmitters builds the closures the per-epoch path reuses. All per-call
// context travels through shard fields, so the steady-state epoch performs
// no heap allocation.
//
// The closures rely on two invariants every Matcher maintains:
// Requests(src, ...) emits requests with Src == src, and Grants(dst, ...)
// emits grants with Dst == dst.
func (sh *engineShard) initEmitters() {
	e := sh.e
	sh.feedbackFn = func(g match.Grant, ok bool) { sh.matcher.Feedback(g, ok) }
	// GRANT transport: the grant message travels g.Dst -> g.Src in this
	// epoch's predefined phase, via the outbox bucket of g.Src's shard.
	sh.grantEmit = func(g match.Grant) {
		sh.grants++
		// Grants over known-failed ports are suppressed at the source of
		// truth: the destination will not use a dead ingress.
		if e.known.Down(g.Src, g.Dst, g.Port) {
			return
		}
		if !e.msgPathOK(g.Dst, g.Src, e.Rounds()) {
			return
		}
		r := e.ShardOf[g.Src]
		sh.grantOut[r] = append(sh.grantOut[r], g)
	}
	// REQUEST transport: the request message travels r.Src -> r.Dst.
	sh.reqEmit = func(r match.Request) {
		if !e.msgPathOK(r.Src, r.Dst, e.Rounds()) {
			return
		}
		d := e.ShardOf[r.Dst]
		sh.reqOut[d] = append(sh.reqOut[d], r)
	}
	sh.batchEmit = func(r match.Request) { sh.reqScratch = append(sh.reqScratch, r) }
	// Scheduled-phase delivery: bytes land slot by slot after the
	// predefined phase.
	sh.schedEmit = func(f *flows.Flow, n int64) {
		// A flow group's contiguous run is split at member boundaries so
		// each member's last byte carries the arrival time of the slot it
		// actually lands in — the boundary-crossing FCT is then exactly
		// what n separate flows would record. Single flows take one pass.
		for n > 0 {
			take := n
			if f.Count > 1 {
				if rem := f.Size - f.Sent()%f.Size; rem < take {
					take = rem
				}
			}
			off := f.Sent()
			f.NoteSent(take)
			sh.txPos += take
			at := sh.slotArrival()
			if sh.txLost {
				sh.fs.RecordLoss(sh.txNode, f, sh.txDst, off, take, at)
			} else {
				sh.fs.Deliver(f, sh.txDst, take, at)
			}
			n -= take
		}
	}
	// Predefined-phase (piggyback) delivery: fixed slot arrival time.
	sh.pbEmit = func(f *flows.Flow, n int64) {
		off := f.Sent()
		f.NoteSent(n)
		if sh.txLost {
			sh.fs.RecordLoss(sh.txNode, f, sh.txDst, off, n, sh.txAt)
			return
		}
		sh.fs.Deliver(f, sh.txDst, n, sh.txAt)
	}
	// Relay first hop (sequential-only feature): bytes move into the
	// intermediate's relay queue and stay "sent but not delivered" until
	// the second hop completes, so NoteSent happens at the final hop only.
	sh.relayEmit = func(f *flows.Flow, n int64) {
		sh.txPos += n
		at := sh.slotArrival()
		if sh.txLost {
			off := f.Sent()
			f.NoteSent(n)
			sh.fs.RecordLoss(sh.txNode, f, sh.txDst, off, n, at)
			return
		}
		sh.txInter.Relay.Push(sh.txDst, queue.Segment{Flow: f, Bytes: n, Enqueued: at})
	}
}

// slotArrival returns the arrival time of a scheduled-phase byte run
// ending at the current txPos: the end of the slot it finishes in, plus
// propagation.
func (sh *engineShard) slotArrival() sim.Time {
	e := sh.e
	endSlot := (sh.txPos + e.payload - 1) / e.payload
	return sh.txPhaseStart.Add(sim.Duration(endSlot) * e.timing.ScheduledSlot).Add(e.timing.PropDelay)
}

// acceptStep is phase A: grants received during the previous epoch yield
// this epoch's matches for this shard's ToRs, followed by the
// known-failure filter. Feedback reaches the matcher's shared state only
// at elements unique to a (dst, src) pair — src local to this shard — so
// concurrent shards never write the same element.
func (sh *engineShard) acceptStep() {
	e := sh.e
	prev := e.curGen
	// Expire last epoch's matches first: the rows of ToRs with no grants
	// this epoch must read all -1, and Accepts rewrites its row in full,
	// so a ToR in both sets just pays one redundant O(S) clear. Expiry
	// touches no matcher state, so hoisting it out of the grant walk
	// cannot reorder anything the matcher observes.
	for bit := sh.matched.Next(-1); bit >= 0; bit = sh.matched.Next(bit) {
		t := e.tors[sh.lo+bit]
		for p := range t.matches {
			t.matches[p] = -1
		}
		t.hasMatches = false
		sh.matched.Clear(bit)
	}
	pend := &sh.grantPend[prev]
	for bit := pend.Next(-1); bit >= 0; bit = pend.Next(bit) {
		pend.Clear(bit)
		i := sh.lo + bit
		t := e.tors[i]
		in := t.grantIn[prev]
		sh.matcher.Accepts(i, &e.views[i], in, t.matches, sh.feedbackFn)
		sh.inflight -= int64(len(in))
		t.grantIn[prev] = in[:0]
		any := false
		for _, d := range t.matches {
			if d >= 0 {
				sh.accepts++
				any = true
			}
		}
		t.hasMatches = any
		if any {
			sh.matched.Set(bit)
		}
	}
	// Known failures exclude links from transmission at use time. The
	// flag (and matched bit) stays up even when the filter empties a row
	// — the scheduled phase's port walk just finds nothing, exactly as
	// the dense sweep behaved.
	if !e.known.Healthy() {
		for bit := sh.matched.Next(-1); bit >= 0; bit = sh.matched.Next(bit) {
			i := sh.lo + bit
			t := e.tors[i]
			for p, dj := range t.matches {
				if dj >= 0 && !e.known.PathOK(i, int(dj), p) {
					t.matches[p] = -1
					sh.accepts--
				}
			}
		}
	}
}

// emitStep is phase B: requests received during the previous epoch yield
// grants (GRANT), and current queue state yields requests (REQUEST), both
// emitted into per-shard outboxes for the phase-C exchange.
func (sh *engineShard) emitStep() {
	e := sh.e
	prev := e.curGen
	pend := &sh.reqPend[prev]
	for bit := pend.Next(-1); bit >= 0; bit = pend.Next(bit) {
		pend.Clear(bit)
		j := sh.lo + bit
		t := e.tors[j]
		in := t.reqIn[prev]
		sh.matcher.Grants(j, in, sh.grantEmit)
		sh.inflight -= int64(len(in))
		t.reqIn[prev] = in[:0]
	}
	sh.requestSweep(sh.reqEmit)
}

// requestSweep runs the REQUEST step over this shard's sources into emit.
// When the matcher tolerates skipping zero-demand sources (and no relay
// demand hides outside the direct VOQs), the sweep walks the shard's
// non-empty-node occupancy set — O(active sources) — instead of the dense
// range; the occupancy bit is exactly "some direct VOQ holds bytes", a
// superset of "some VOQ exceeds the request threshold", so emissions are
// identical to the dense walk, in the same ascending order.
func (sh *engineShard) requestSweep(emit func(match.Request)) {
	e := sh.e
	if e.sparseReq {
		occ := &sh.fs.ActiveDirect
		for bit := occ.Next(-1); bit >= 0; bit = occ.Next(bit) {
			i := sh.lo + bit
			sh.matcher.Requests(i, &e.views[i], e.curEpochStart, e.threshold, emit)
		}
		return
	}
	for i := sh.lo; i < sh.hi; i++ {
		sh.matcher.Requests(i, &e.views[i], e.curEpochStart, e.threshold, emit)
	}
}

// mergeStep is the cross-shard mailbox exchange of phase C: this shard
// drains its bucket of every sender's outbox in shard order, which
// appends messages to its ToRs' mailboxes in exactly the ToR-ascending
// order a sequential epoch would.
func (sh *engineShard) mergeStep() {
	e := sh.e
	cur := e.curGen
	for _, src := range e.shards {
		gout := src.grantOut[sh.k]
		for _, g := range gout {
			t := e.tors[g.Src]
			t.grantIn[cur] = append(t.grantIn[cur], g)
			sh.grantPend[cur].Set(int(g.Src) - sh.lo)
		}
		sh.inflight += int64(len(gout))
		src.grantOut[sh.k] = gout[:0]
		rout := src.reqOut[sh.k]
		for _, r := range rout {
			t := e.tors[r.Dst]
			t.reqIn[cur] = append(t.reqIn[cur], r)
			sh.reqPend[cur].Set(int(r.Dst) - sh.lo)
		}
		sh.inflight += int64(len(rout))
		src.reqOut[sh.k] = rout[:0]
	}
}

// mergeTransmitStep is phase C: the mailbox exchange, then the shard-local
// predefined and scheduled transmission phases.
func (sh *engineShard) mergeTransmitStep() {
	e := sh.e
	sh.mergeStep()
	if e.cfg.Piggyback {
		sh.predefinedPhase(e.curEpochStart)
	}
	sh.scheduledPhase(e.curEpochStart)
}

// batchPrepStep replaces phases A and B for batch (iterative) matchers:
// this epoch's matches were computed MatchDelay epochs ago and are copied
// from the future ring, then the shard snapshots its ToRs' requests for
// the serial whole-fabric Match (run on the original matcher; only the
// Requests step runs on the shard handles).
//
// Only the slot's TOUCHED rows (the sources Match granted; everything
// else is all -1) are copied and reset — O((matched + touched)·S): last
// epoch's matched rows are expired first (per-ToR state only, so the two
// walks need no interleaving), then the slot's touched rows overwrite in
// full. ToRs in both just pay one redundant O(S) clear; nothing visits
// the idle remainder of the range.
func (sh *engineShard) batchPrepStep() {
	e := sh.e
	depth := len(e.future)
	slot := int(e.Rounds()) % depth
	for bit := sh.matched.Next(-1); bit >= 0; bit = sh.matched.Next(bit) {
		t := e.tors[sh.lo+bit]
		for p := range t.matches {
			t.matches[p] = -1
		}
		t.hasMatches = false
		sh.matched.Clear(bit)
	}
	touched := e.futureTouched[slot]
	ti, _ := slices.BinarySearch(touched, int32(sh.lo))
	for ; ti < len(touched) && int(touched[ti]) < sh.hi; ti++ {
		i := int(touched[ti])
		t := e.tors[i]
		row := e.future[slot][i]
		copy(t.matches, row)
		for p := range row {
			row[p] = -1
		}
		any := false
		for _, d := range t.matches {
			if d >= 0 {
				any = true
				break
			}
		}
		t.hasMatches = any
		if any {
			sh.matched.Set(i - sh.lo)
		}
	}
	if !e.known.Healthy() {
		for bit := sh.matched.Next(-1); bit >= 0; bit = sh.matched.Next(bit) {
			i := sh.lo + bit
			t := e.tors[i]
			for p, dj := range t.matches {
				if dj >= 0 && !e.known.PathOK(i, int(dj), p) {
					t.matches[p] = -1
				}
			}
		}
	}
	sh.reqScratch = sh.reqScratch[:0]
	sh.requestSweep(sh.batchEmit)
}

// predefinedPhase transmits piggybacked data over the round-robin
// all-to-all connections (§3.4.1) for this shard's sources: every pair
// moves up to one small payload, bypassing the scheduling delay. The
// sweep iterates the occupancy indexes (direct ∪ relay, ascending) so a
// mostly-idle ToR pays O(active destinations), not O(N).
func (sh *engineShard) predefinedPhase(epochStart sim.Time) {
	e := sh.e
	if e.piggyBytes <= 0 {
		return
	}
	rot := e.rotation(e.Rounds())
	slotDur := e.timing.PredefinedSlot
	// A source transmits here only if it holds direct or relay bytes, so
	// the walk follows the fabric shard's node-level active sets — the
	// drains below clear a set bit only at the current position, which an
	// ascending Next never revisits.
	ad, ar := &sh.fs.ActiveDirect, &sh.fs.ActiveRelay
	for bit := ad.NextUnion(ar, -1); bit >= 0; bit = ad.NextUnion(ar, bit) {
		i := sh.lo + bit
		nd := e.Nodes[i]
		for j := nd.NextDirectOrRelay(-1); j >= 0; j = nd.NextDirectOrRelay(j) {
			if j == i {
				continue
			}
			hasDirect := nd.Direct.Bytes(j) > 0
			hasRelay := nd.Relay.HeadReady(j, epochStart)
			if !hasDirect && !hasRelay {
				continue
			}
			slot, port := e.top.PredefinedSlotPort(i, j, rot)
			if e.known.Down(i, j, port) {
				continue // knowingly dead link: hold the data
			}
			sh.txNode, sh.txDst = nd, j
			sh.txLost = e.actual.Down(i, j, port)
			sh.txAt = epochStart.Add(sim.Duration(slot+1) * slotDur).Add(e.timing.PropDelay)
			budget := e.piggyBytes
			if hasDirect {
				budget -= nd.Direct.Take(j, budget, sh.pbEmit)
			}
			if budget > 0 && hasRelay {
				// Relay bytes piggyback too once they are at the
				// intermediate: from there they are ordinary one-hop data.
				nd.Relay.Drain(j, budget, epochStart, sh.pbEmit)
			}
		}
	}
}

// scheduledPhase transmits data over the matched connections for this
// shard's sources: each matched port sends from its per-destination queue
// until the phase ends or the queue empties (§3.3.2). Direct data goes
// first, then relay forwarding (second hop), then selective-relay
// first-hop data (Appendix A.2.2; sequential-only).
func (sh *engineShard) scheduledPhase(epochStart sim.Time) {
	e := sh.e
	phaseStart := epochStart.Add(e.timing.PredefinedLen(e.predefSlots))
	capacity := e.payload * int64(e.timing.ScheduledSlots)
	// matched mirrors tor.hasMatches, so only ToRs holding a live match
	// row pay the O(S) port walk — the epoch's last dense range sweep.
	for bit := sh.matched.Next(-1); bit >= 0; bit = sh.matched.Next(bit) {
		i := sh.lo + bit
		t := e.tors[i]
		nd := e.Nodes[i]
		for p, dj := range t.matches {
			if dj < 0 {
				continue
			}
			j := int(dj)
			sh.txNode, sh.txDst = nd, j
			sh.txLost = e.actual.Down(i, j, p)
			sh.txPos = 0
			sh.txPhaseStart = phaseStart
			sent := nd.Direct.Take(j, capacity, sh.schedEmit)
			if nd.Relay.Slab.Materialized() && sent < capacity {
				// Second hop: forward data relayed through us that has
				// physically arrived by the start of this epoch.
				sent += nd.Relay.Drain(j, capacity-sent, epochStart, sh.schedEmit)
			}
			if e.relay != nil && sent < capacity {
				// First hop: ship planned relay data to intermediate j.
				sh.relayFirstHop(i, j, capacity-sent)
			}
		}
	}
}
