// Package hybrid is the third control plane over the shared fabric core
// (internal/fabric), and the existence proof that the core extraction
// pays for itself: a complete engine in one file.
//
// It pushes the paper's §3.4.1 mice-bypass idea to its limit. Mice flows
// (< 10 KB) never touch the scheduler: they ride the traffic-oblivious
// round-robin all-to-all schedule — one piggyback payload per connected
// pair per epoch, exactly the predefined-phase connectivity NegotiaToR
// already pays for — so their FCT is bounded by the round-robin period
// with zero scheduling delay. Elephant flows never ride the round-robin:
// they go through on-demand NegotiaToR Matching (request → grant →
// accept, idealised to resolve within the epoch rather than pipelined
// over stageLag epochs — an instant-control-plane upper bound for what
// strict traffic segregation can buy) and transmit in the scheduled
// phase.
//
// The split reuses the core's two VOQ sets per node: Lanes[dst] holds
// mice, Direct[dst] holds elephants, so the matcher's queue view sees
// elephant demand only and mice never wait behind a negotiation.
package hybrid

import (
	"fmt"

	"negotiator/internal/fabric"
	"negotiator/internal/failure"
	"negotiator/internal/flows"
	"negotiator/internal/match"
	"negotiator/internal/metrics"
	"negotiator/internal/negotiator"
	"negotiator/internal/sim"
	"negotiator/internal/topo"
)

// Engine is the hybrid control plane over the embedded fabric core: mice
// on the oblivious round-robin schedule, elephants on on-demand
// negotiation.
type Engine struct {
	*fabric.Core
	cfg         negotiator.Config
	top         topo.Topology
	timing      negotiator.Timing
	n, s        int
	predefSlots int
	epochLn     sim.Duration
	payload     int64 // scheduled-phase payload per slot
	piggyBytes  int64 // predefined-phase payload per pair

	matcher    match.Matcher
	tors       []torCtl // per ToR, by value: take &tors[i]
	views      []torView
	shards     []*hyShard
	epochStart sim.Time

	// Core-owned failure snapshots (stable pointers, advanced by the core
	// before each Round; nil without a plan).
	actual, known *failure.State

	stepRequest  func(k int)
	stepGrant    func(k int)
	stepTransmit func(k int)
}

// torCtl is one ToR's control state: single-generation mailboxes (the
// idealised negotiation resolves within the epoch) and this epoch's
// matches per port.
type torCtl struct {
	reqIn   []match.Request
	grantIn []match.Grant
	matches []int32
	// hasMatches is false only when matches is all -1 (see the NegotiaToR
	// engine's tor.hasMatches): idle ToRs skip the O(S) clear and the
	// elephant port walk.
	hasMatches bool
}

// torView exposes elephant demand only to the matcher.
type torView struct {
	e *Engine
	i int
}

func (v *torView) QueuedBytes(dst int) int64 { return v.e.Nodes[v.i].Direct.Bytes(dst) }
func (v *torView) WeightedHoL(dst int, alpha float64) float64 {
	return v.e.Nodes[v.i].Direct.WeightedHoL(dst, v.e.Now(), alpha)
}

// NextDemand iterates the elephant-VOQ occupancy index: the matcher's
// request sweep is O(active destinations).
func (v *torView) NextDemand(after int) int {
	return v.e.Nodes[v.i].Direct.Occ.Next(after)
}

// hyShard is one contiguous ToR range's execution context: the matcher
// handle, cross-shard message outboxes (bucketed by receiving shard,
// merged in shard order — the ToR-ascending order a sequential epoch
// produces) and the prebuilt transmission emitters.
type hyShard struct {
	e               *Engine
	k               int
	lo, hi          int
	fs              *fabric.Shard
	matcher         match.Matcher
	accepts, grants int64
	reqOut          [][]match.Request
	grantOut        [][]match.Grant

	txDst     int
	txPos     int64
	txAt      sim.Time
	txNode    *fabric.Node
	txLost    bool // current connection's link down but undetected
	schedEmit func(*flows.Flow, int64)
	miceEmit  func(*flows.Flow, int64)
	grantEmit func(match.Grant)
	reqEmit   func(match.Request)
}

// New builds the hybrid engine from a NegotiaToR Config. The epoch
// geometry reuses its Timing (predefined round-robin phase + scheduled
// phase), and mice are the paper's flows under metrics.MiceFlowBytes.
// Elephants always negotiate with the base NegotiaToR Matching, so a
// custom NewMatcher and the selective relay are rejected; Piggyback and
// RequestThresholdPkts are ignored, since mice always ride the
// round-robin and elephants always request.
//
// Failures expose both traffic classes: mice riding a known-down
// predefined pair are held for a later rotation, elephants lose the
// match's port; links down but not yet detected destroy the bytes sent
// across them, requeued on detection (mice back into their mice queue,
// elephants into their VOQ). The idealised same-epoch
// request/grant/accept exchange itself is assumed reliable — only the
// data plane degrades, an upper bound matching the engine's
// instant-control-plane idealisation. OnDeliver and TrackReceiverBuffers
// force sequential execution, as on the NegotiaToR plane.
func New(cfg negotiator.Config) (*Engine, error) {
	if cfg.Topology == nil {
		return nil, fmt.Errorf("hybrid: nil topology")
	}
	if cfg.NewMatcher != nil {
		return nil, fmt.Errorf("hybrid: the hybrid engine uses NegotiaToR Matching; scheduler variants apply to the NegotiaToR fabric")
	}
	if cfg.Relay {
		return nil, fmt.Errorf("hybrid: selective relay is a NegotiaToR thin-clos extension")
	}
	if cfg.Timing == (negotiator.Timing{}) {
		cfg.Timing = negotiator.DefaultTiming()
	}
	if err := cfg.Timing.Validate(cfg.Topology); err != nil {
		return nil, err
	}
	e := &Engine{
		cfg:         cfg,
		top:         cfg.Topology,
		timing:      cfg.Timing,
		n:           cfg.Topology.N(),
		s:           cfg.Topology.Ports(),
		predefSlots: cfg.Topology.PredefinedSlots(),
	}
	e.epochLn = e.timing.EpochLen(e.predefSlots)
	e.payload = e.timing.DataPayloadBytes()
	e.piggyBytes = e.timing.PiggybackBytes()
	rng := sim.NewRNG(cfg.Seed)
	e.matcher = match.NewNegotiator(e.top, rng.Split(1))
	workers := cfg.Workers
	if cfg.OnDeliver != nil || cfg.TrackReceiverBuffers {
		workers = 1 // globally ordered delivery observation
	}
	fab, err := fabric.New(fabric.Config{
		Topology:             cfg.Topology,
		HostRate:             cfg.HostRate,
		Workers:              workers,
		RNG:                  rng,
		PriorityQueues:       cfg.PriorityQueues,
		Lanes:                true, // Lanes[dst] = mice VOQs
		OnDeliver:            cfg.OnDeliver,
		TrackReceiverBuffers: cfg.TrackReceiverBuffers,
		Failures:             cfg.Failures,
		DisableEventSkip:     cfg.DisableEventSkip,
		CheckInvariants:      cfg.CheckInvariants,
	})
	if err != nil {
		return nil, err
	}
	e.Core = fab
	fab.Bind(e, e.admit)
	e.actual = fab.ActualFailures()
	e.known = fab.KnownFailures()

	// Control state, views and match rows are three flat arrays, so their
	// allocations do not grow with the ToR count. Mailboxes grow on demand
	// (capacity retained via in[:0]), so a ToR's footprint follows
	// received traffic instead of pre-paying n-1 slots — the same O(N²)
	// construction floor the fabric's lazy node slabs remove.
	e.tors = make([]torCtl, e.n)
	e.views = make([]torView, e.n)
	matches := make([]int32, e.n*e.s)
	for k := range matches {
		matches[k] = -1
	}
	for i := range e.tors {
		lo, hi := i*e.s, (i+1)*e.s
		e.tors[i].matches = matches[lo:hi:hi]
		e.views[i] = torView{e: e, i: i}
	}
	var handles []match.Matcher
	if fab.Workers > 1 {
		handles = e.matcher.(match.Sharded).Fork(fab.Workers)
	}
	e.shards = make([]*hyShard, fab.Workers)
	for k := range e.shards {
		fs := fab.Shards[k]
		sh := &hyShard{e: e, k: k, lo: fs.Lo, hi: fs.Hi, fs: fs, matcher: e.matcher}
		if handles != nil {
			sh.matcher = handles[k]
		}
		sh.reqOut = make([][]match.Request, fab.Workers)
		sh.grantOut = make([][]match.Grant, fab.Workers)
		for r := range sh.reqOut {
			sh.reqOut[r] = make([]match.Request, 0, (fs.Hi-fs.Lo)+1)
			sh.grantOut[r] = make([]match.Grant, 0, (fs.Hi-fs.Lo)+1)
		}
		sh.initEmitters()
		e.shards[k] = sh
	}
	e.stepRequest = func(k int) { e.shards[k].requestStep() }
	e.stepGrant = func(k int) { e.shards[k].grantStep() }
	e.stepTransmit = func(k int) { e.shards[k].transmitStep() }
	return e, nil
}

// admit routes an arrival by class: mice to the round-robin queues,
// elephants to the negotiated queues.
func (e *Engine) admit(f *flows.Flow, at sim.Time) {
	nd := &e.Nodes[f.Src]
	if f.Size < metrics.MiceFlowBytes {
		nd.Lanes.Push(f.Dst, f, f.Total(), 0, at)
		return
	}
	nd.Direct.Push(f.Dst, f, f.Total(), 0, at)
}

func (e *Engine) Name() string           { return "hybrid" }
func (e *Engine) RoundLen() sim.Duration { return e.epochLn }

// Round implements fabric.ControlPlane: one epoch as three barrier
// phases — REQUEST emission, GRANT over merged requests, ACCEPT over
// merged grants followed by transmission (mice on the predefined
// round-robin, elephants on the matched scheduled connections).
func (e *Engine) Round() {
	e.epochStart = e.Now()
	e.Inject(e.epochStart)
	e.ParDo(e.stepRequest)
	e.ParDo(e.stepGrant)
	e.ParDo(e.stepTransmit)
	var accepts, grants int64
	for _, sh := range e.shards {
		accepts += sh.accepts
		grants += sh.grants
		sh.accepts, sh.grants = 0, 0
	}
	e.MatchRatio.Observe(accepts, grants)
}

// IdleHorizon implements fabric.IdlePlane: the idealised negotiation
// produces and consumes its mailboxes within a single Round, the matcher
// draws randomness only at construction, and the lazily-cleared match rows
// of the last busy epoch are wiped at the next executed epoch exactly as
// they would be under ticking — so with no byte queued anywhere (the
// core's precondition) every future epoch is a no-op until new bytes
// arrive.
func (e *Engine) IdleHorizon() sim.Time { return fabric.HorizonInfinite }

// initEmitters prebuilds the per-shard closures so the steady-state epoch
// performs no heap allocation.
func (sh *hyShard) initEmitters() {
	e := sh.e
	sh.reqEmit = func(r match.Request) {
		d := e.ShardOf[r.Dst]
		sh.reqOut[d] = append(sh.reqOut[d], r)
	}
	sh.grantEmit = func(g match.Grant) {
		sh.grants++
		r := e.ShardOf[g.Src]
		sh.grantOut[r] = append(sh.grantOut[r], g)
	}
	// Scheduled-phase (elephant) delivery: slot-timed like NegotiaToR.
	// With the connection's link down but undetected, the bytes are
	// destroyed in flight and booked for requeue into the elephant VOQ.
	sh.schedEmit = func(f *flows.Flow, n int64) {
		// Flow-group runs split at member boundaries so each member's last
		// byte carries its own slot's arrival time (see the negotiator
		// plane's schedEmit); single flows take one pass.
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
			endSlot := (sh.txPos + e.payload - 1) / e.payload
			at := sh.txAt.Add(sim.Duration(endSlot) * e.timing.ScheduledSlot).Add(e.timing.PropDelay)
			if sh.txLost {
				sh.fs.RecordLossClass(sh.txNode, f, sh.txDst, off, take, at, fabric.RequeueDirect, -1)
			} else {
				sh.fs.Deliver(f, sh.txDst, take, at)
			}
			n -= take
		}
	}
	// Predefined-phase (mice) delivery: fixed slot arrival time; losses
	// requeue into the mice queue (lane) they were taken from.
	sh.miceEmit = func(f *flows.Flow, n int64) {
		off := f.Sent()
		f.NoteSent(n)
		if sh.txLost {
			sh.fs.RecordLossClass(sh.txNode, f, sh.txDst, off, n, sh.txAt, fabric.RequeueLane, sh.txDst)
			return
		}
		sh.fs.Deliver(f, sh.txDst, n, sh.txAt)
	}
}

// requestStep emits a request for every destination with elephant
// backlog, bucketed by the destination's shard. The sweep walks the
// shard's non-empty elephant-VOQ occupancy set — a source outside it has
// no demand, and the base matcher's Requests on such a source is a no-op —
// so the phase is O(active sources), in the same ascending order as a
// dense walk.
func (sh *hyShard) requestStep() {
	e := sh.e
	occ := &sh.fs.ActiveDirect
	for bit := occ.Next(-1); bit >= 0; bit = occ.Next(bit) {
		i := sh.lo + bit
		sh.matcher.Requests(i, &e.views[i], e.epochStart, 0, sh.reqEmit)
	}
}

// grantStep merges this shard's request buckets (sender order = shard
// order = ToR-ascending) and runs the GRANT step at each of its ToRs.
func (sh *hyShard) grantStep() {
	e := sh.e
	for _, src := range e.shards {
		out := src.reqOut[sh.k]
		for _, r := range out {
			t := &e.tors[r.Dst]
			t.reqIn = append(t.reqIn, r)
		}
		src.reqOut[sh.k] = out[:0]
	}
	for j := sh.lo; j < sh.hi; j++ {
		t := &e.tors[j]
		if len(t.reqIn) == 0 {
			continue
		}
		sh.matcher.Grants(j, t.reqIn, sh.grantEmit)
		t.reqIn = t.reqIn[:0]
	}
}

// transmitStep merges the grant buckets, runs ACCEPT, and transmits: the
// mice sweep over the predefined round-robin connections, then the
// elephant drain over the matched scheduled connections.
func (sh *hyShard) transmitStep() {
	e := sh.e
	for _, src := range e.shards {
		out := src.grantOut[sh.k]
		for _, g := range out {
			t := &e.tors[g.Src]
			t.grantIn = append(t.grantIn, g)
		}
		src.grantOut[sh.k] = out[:0]
	}
	rot := int(e.Rounds() % (1 << 30))
	slotDur := e.timing.PredefinedSlot
	phaseStart := e.epochStart.Add(e.timing.PredefinedLen(e.predefSlots))
	capacity := e.payload * int64(e.timing.ScheduledSlots)
	for i := sh.lo; i < sh.hi; i++ {
		t := &e.tors[i]
		if len(t.grantIn) > 0 {
			sh.matcher.Accepts(i, &e.views[i], t.grantIn, t.matches, nil)
			t.grantIn = t.grantIn[:0]
			any := false
			for _, d := range t.matches {
				if d >= 0 {
					sh.accepts++
					any = true
				}
			}
			t.hasMatches = any
		} else if t.hasMatches {
			for p := range t.matches {
				t.matches[p] = -1
			}
			t.hasMatches = false
		}
		nd := &e.Nodes[i]
		// Mice ride the round-robin: one piggyback payload per connected
		// pair, delivery fixed by the pair's predefined slot. The sweep
		// iterates the mice-queue occupancy index (ascending, exactly the
		// non-empty lanes), so idle pairs cost nothing.
		sh.txNode = nd
		sh.txLost = false
		// One O(1) aggregate read skips the occupancy-index word scan
		// entirely for ToRs holding no mice at all.
		if e.piggyBytes > 0 && nd.Lanes.Total != 0 {
			for j := nd.Lanes.Occ.Next(-1); j >= 0; j = nd.Lanes.Occ.Next(j) {
				if j == i {
					continue
				}
				slot, port := e.top.PredefinedSlotPort(i, j, rot)
				// A pair whose predefined link the fabric knows is down
				// holds its mice for a later rotation (a different port);
				// an undetected failure transmits into the void.
				if e.known.Down(i, j, port) {
					continue
				}
				sh.txDst = j
				sh.txAt = e.epochStart.Add(sim.Duration(slot+1) * slotDur).Add(e.timing.PropDelay)
				sh.txLost = e.actual.Down(i, j, port)
				nd.Lanes.Take(j, e.piggyBytes, sh.miceEmit)
			}
		}
		// Elephants use the negotiated connections.
		if t.hasMatches {
			for p, dj := range t.matches {
				if dj < 0 {
					continue
				}
				if e.known.Down(i, int(dj), p) {
					continue // match rides a link known down: forfeited
				}
				sh.txDst = int(dj)
				sh.txPos = 0
				sh.txAt = phaseStart
				sh.txLost = e.actual.Down(i, int(dj), p)
				nd.Direct.Take(int(dj), capacity, sh.schedEmit)
			}
		}
	}
}

// Compile-time interface checks.
var (
	_ fabric.ControlPlane = (*Engine)(nil)
	_ fabric.IdlePlane    = (*Engine)(nil)
)
