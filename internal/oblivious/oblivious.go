// Package oblivious implements the state-of-the-art traffic-oblivious
// reconfigurable DCN baseline the paper compares against (§2, §4.1),
// following Sirius: the fabric reconfigures every timeslot through a
// predefined round-robin schedule, providing all-to-all connectivity
// regardless of traffic, and adapts traffic to the network with Valiant
// load balancing — data is sprayed to an intermediate ToR and relayed to
// its destination, taking two hops.
//
// Fresh data is split across per-intermediate spray lanes at arrival
// (uniform VLB, pre-assigned as Sirius sprays cells); each slot carries one
// cell: relay (second-hop) traffic for the connected peer first — it must
// not accumulate — else the head cell of the peer's spray lane, which
// stalls when its destination's relay VOQ at the peer is full (the bounded
// buffers + backpressure standing in for Sirius's congestion control).
// That stall-driven slot waste, on top of the doubled traffic volume, is
// what caps this design's goodput under heavy load (paper §2). Mice-flow
// priority queues apply at sources only (the paper notes PIAS does not
// apply to data at intermediate nodes). The RotorLB-style opportunistic
// discipline (relay > direct > slot-time spray) is kept as an ablation
// (Config.OpportunisticDirect).
//
// The engine is the round-robin/VLB control plane over the shared fabric
// core (internal/fabric): the core owns queues, workload, ledger, metrics
// and the slot-synchronous run loop; this package owns only the
// per-timeslot service decisions (one decision per port per timeslot).
package oblivious

import (
	"fmt"
	"math/bits"

	"negotiator/internal/fabric"
	"negotiator/internal/failure"
	"negotiator/internal/flows"
	"negotiator/internal/queue"
	"negotiator/internal/sim"
	"negotiator/internal/topo"
)

// Timing describes the baseline's slot structure: every slot pays a
// reconfiguration guardband (the fabric retunes each slot).
type Timing struct {
	// Guardband is the per-slot reconfiguration delay (10 ns).
	Guardband sim.Duration
	// Slot is the total slot duration including the guardband (60 ns, the
	// same optical hardware budget as NegotiaToR's predefined slot).
	Slot sim.Duration
	// HeaderBytes is the per-cell header (10 B).
	HeaderBytes int64
	// PropDelay is the one-way propagation delay (2 µs).
	PropDelay sim.Duration
	// LinkRate is the per-port line rate (100 Gbps with 2x speedup).
	LinkRate sim.Rate
}

// DefaultTiming returns the evaluation's baseline slot settings.
func DefaultTiming() Timing {
	return Timing{
		Guardband:   10,
		Slot:        60,
		HeaderBytes: 10,
		PropDelay:   2 * sim.Microsecond,
		LinkRate:    sim.Gbps(100),
	}
}

// CellBytes is the payload one slot carries on one port.
func (t Timing) CellBytes() int64 {
	n := t.LinkRate.BytesIn(t.Slot-t.Guardband) - t.HeaderBytes
	if n < 0 {
		return 0
	}
	return n
}

// Validate checks consistency.
func (t Timing) Validate() error {
	if t.Slot <= t.Guardband || t.CellBytes() <= 0 {
		return fmt.Errorf("oblivious: slot %v too short (guardband %v)", t.Slot, t.Guardband)
	}
	if t.PropDelay < 0 {
		return fmt.Errorf("oblivious: negative propagation delay")
	}
	return nil
}

// Config assembles the baseline fabric.
type Config struct {
	// Topology supplies the round-robin schedule. The baseline's
	// relay-enabled round-robin performs identically on both flat
	// topologies (paper §4.1), so either works.
	Topology topo.Topology
	// Timing is the slot structure; zero means DefaultTiming.
	Timing Timing
	// HostRate is the per-ToR host aggregate (400 Gbps; zero means that
	// default).
	HostRate sim.Rate
	// PriorityQueues enables source-side PIAS prioritisation.
	PriorityQueues bool
	// OpportunisticDirect switches the service discipline from Sirius's
	// uniform VLB spray (default: every byte takes two hops unless its
	// random intermediate happens to be its destination) to the
	// RotorLB-style relay > direct > indirect order. The paper's baseline
	// follows Sirius; the opportunistic variant is kept for ablations.
	OpportunisticDirect bool
	// Seed drives the spray randomness.
	Seed int64
	// Failures optionally injects link failures (owned and advanced by the
	// fabric core): known-down links are excluded from service — relay,
	// lane and spray alike, since every transmission in slot (i, s) rides
	// the same physical fibre pair — while links that are down but not yet
	// detected silently destroy the bytes sent across them, to be requeued
	// at the source once the detection delay elapses. Lane-discipline
	// losses requeue into the lane they came from (the source never serves
	// its direct set), relay second hops back into the relay FIFO.
	Failures *failure.Plan
	// CheckInvariants enables byte-conservation assertions.
	CheckInvariants bool
	// DisableEventSkip forces the run loop to tick every timeslot even
	// when the fabric is provably idle. Results are byte-identical either
	// way; the knob exists for A/B benchmarks and equivalence tests.
	DisableEventSkip bool
	// OnDeliver observes final-destination deliveries.
	OnDeliver func(dst int, at sim.Time, n int64)
	// OnTransit observes first-hop (intermediate) arrivals, the "light
	// grey dots" of the paper's Figure 18.
	OnTransit func(intermediate int, at sim.Time, n int64)
	// Workers is the intra-run shard parallelism: the ToRs split into
	// Workers contiguous shards, and each timeslot executes as
	// barrier-synchronized phases — shard-local relay drains, then
	// shard-local lane/spray service against the drained VOQ occupancy
	// snapshot, then a serial merge that applies relay pushes and delivery
	// accounting in shard (= ToR) order. Results are identical at any
	// value (0 or 1 = sequential); the count is capped at the ToR count.
	//
	// Sharding fixes the backpressure semantics at any worker count: a
	// source's VOQ-headroom check reads the slot-start occupancy after all
	// second-hop drains but before this slot's pushes — same-slot pushes
	// from other sources are invisible, mirroring the physical reality
	// that occupancy feedback is at least a propagation delay stale. A
	// VOQ may therefore briefly exceed its cap by up to one cell per
	// connected source per slot. Observer callbacks fire from the serial
	// merge in a fixed order (drain deliveries, transits, serve
	// deliveries, each in ToR order), identical at any worker count.
	Workers int
}

// Engine is the traffic-oblivious control plane over the embedded fabric
// core. Per-ToR data-plane state maps onto fabric.Node: Direct holds
// fresh data per final destination (the slot-time-spray disciplines),
// Lanes holds fresh data per pre-assigned intermediate (the default
// Sirius discipline), Relay holds the bounded second-hop VOQs. A core
// round is one timeslot; the epoch the core reports and RunEpochs steps
// is one full round-robin cycle (EpochRounds).
type Engine struct {
	*fabric.Core
	cfg    Config
	top    topo.Topology
	timing Timing
	n, s   int
	slots  int // round-robin cycle length in slots
	cell   int64
	lanes  bool

	// relayCap bounds each (intermediate, destination) relay VOQ: 64 cells
	// (~39 KB), deep enough that elephants spread across the fabric block
	// mice at intermediates — the paper's criticism of relay-based designs
	// — while shallow enough that full VOQs stall spraying sources, the
	// congestion that caps the oblivious design's goodput under heavy load
	// (§2). chunkCells is the lane-assignment granularity in cells (4):
	// Sirius sprays per cell; chunking trades a little spray uniformity for
	// segment-bookkeeping memory. Tests may set either after New.
	relayCap   int64
	chunkCells int

	// Core-owned failure snapshots (stable pointers, advanced by the core
	// before each Round; nil without a plan). Known state gates service,
	// actual state destroys bits.
	actual, known *failure.State

	// relayed counts bytes that took a first hop (transit volume).
	relayed int64

	// Sharded slot execution (see Config.Workers): per-slot context set
	// serially, phase steps run over the shards via the core's gang, and
	// the shards' deferred effect records are applied in shard order by
	// the serial merge.
	shards     []*obShard
	stepDrain  func(k int)
	stepServe  func(k int)
	slotT      int      // round-robin slot within the cycle
	slotRot    int      // rule rotation (full cycles elapsed)
	slotStart  sim.Time // current slot's start
	slotArrive sim.Time // current slot's delivery time (slot end + prop)

	// peers and sources are the current slot's schedule, resolved once per
	// slot: peers.Row(i, row) puts the ToR that port s of ToR i connects to
	// in row[s], and sources inverts it (an idle port maps i to i).
	peers, sources topo.Schedule
	// maskWords is the length of a ToR's port mask: one word per 64 ports.
	maskWords int
	// anyPeer holds every ToR: the occupancy the slot-time-spray serve
	// gathers, since that discipline can spray any queue over any live
	// connection (empty under the lane discipline).
	anyPeer fabric.OccSet
}

// obShard owns one contiguous ToR range of the slot pipeline. Phases A
// (relay drains) and B (lane/spray service) only mutate shard-local ToR
// state — queue takes at this shard's sources — and defer every
// cross-shard effect (relay pushes into intermediates, delivery accounting
// on flows owned elsewhere) into per-shard record lists the serial merge
// applies in shard order, which equals ToR-ascending order because shards
// are contiguous ascending ranges.
type obShard struct {
	e      *Engine
	k      int
	lo, hi int
	fs     *fabric.Shard

	// usedStamp marks connections phase A consumed ((tor-lo)*s + port,
	// stamped with slotNo+1 so no per-slot clearing is needed).
	usedStamp []int64

	// Deferred effect records. Drain (phase A) and serve (phase B)
	// deliveries are kept apart so the merge can apply all drains before
	// all serves — the same order a sequential slot produces — regardless
	// of where shard boundaries fall. Transits aggregate one record per
	// pushing connection (the granularity OnTransit always had), while
	// pushes keep one record per flow segment for the FIFO contents.
	drainDelivs []obDeliv
	serveDelivs []obDeliv
	pushes      []obPush
	transits    []obTransit

	// drainMarks is drainSparse's candidate set over the shard's ToRs
	// (bit tor-lo): ascending iteration yields the holder walk's service
	// order without a sort, and the walk clears every bit it visits, so
	// the set is empty again between slots.
	drainMarks fabric.OccSet
	// row holds the far ends of one ToR's S ports this slot (see
	// Engine.peers), filled for each ToR a walk visits.
	row []int

	// Emitter context + prebuilt closures (no per-take closure allocs).
	// txLost marks the current connection's actual link state down
	// (undetected): the emitters then book the bytes as destroyed instead
	// of delivered/pushed — lossClass picking the requeue set the
	// discipline serves (lanes vs direct), txVia the lane index.
	txDst     int
	txInter   int
	txNode    *fabric.Node
	txLost    bool
	txVia     int
	lossClass fabric.RequeueClass
	drainEmit func(*flows.Flow, int64) // relay second hop: no NoteSent
	sentEmit  func(*flows.Flow, int64) // direct delivery: NoteSent + record
	pushEmit  func(*flows.Flow, int64) // first hop: NoteSent + push record
}

// obDeliv defers one delivery's accounting to the serial merge.
type obDeliv struct {
	f   *flows.Flow
	dst int
	n   int64
	at  sim.Time
}

// obPush defers one first-hop relay push to the serial merge.
type obPush struct {
	f          *flows.Flow
	inter, dst int
	n          int64
	at         sim.Time
}

// obTransit defers one connection's OnTransit observation (bytes summed
// over the connection's segments) to the serial merge.
type obTransit struct {
	inter int
	n     int64
	at    sim.Time
}

// New builds the baseline engine.
func New(cfg Config) (*Engine, error) {
	if cfg.Topology == nil {
		return nil, fmt.Errorf("oblivious: nil topology")
	}
	if cfg.Timing == (Timing{}) {
		cfg.Timing = DefaultTiming()
	}
	if err := cfg.Timing.Validate(); err != nil {
		return nil, err
	}
	e := &Engine{
		cfg:    cfg,
		top:    cfg.Topology,
		timing: cfg.Timing,
		n:      cfg.Topology.N(),
		s:      cfg.Topology.Ports(),
		slots:  cfg.Topology.PredefinedSlots(),
		cell:   cfg.Timing.CellBytes(),
		lanes:  !cfg.OpportunisticDirect,
	}
	e.relayCap = 64 * e.cell
	e.chunkCells = 4
	e.maskWords = (e.s + 63) >> 6
	if !e.lanes {
		e.anyPeer = fabric.NewOccSet(e.n)
		for j := 0; j < e.n; j++ {
			e.anyPeer.Set(j)
		}
	}
	fab, err := fabric.New(fabric.Config{
		Topology:         cfg.Topology,
		HostRate:         cfg.HostRate,
		Workers:          cfg.Workers,
		RNG:              sim.NewRNG(cfg.Seed),
		PriorityQueues:   cfg.PriorityQueues,
		Lanes:            e.lanes,
		Relay:            true,
		OnDeliver:        cfg.OnDeliver,
		Failures:         cfg.Failures,
		DisableEventSkip: cfg.DisableEventSkip,
		CheckInvariants:  cfg.CheckInvariants,
	})
	if err != nil {
		return nil, err
	}
	e.Core = fab
	fab.Bind(e, e.admit)
	e.actual = fab.ActualFailures()
	e.known = fab.KnownFailures()
	e.initShards()
	return e, nil
}

// admit is the core's arrival-admission hook. Under the default Sirius
// discipline a flow is sprayed across intermediates in fixed-size chunks,
// each assigned a uniformly random intermediate at arrival as Sirius
// sprays cells — randomness matters: deterministic assignment correlates
// across sources and melts hot intermediates. The slot-time-spray
// ablations enqueue per final destination instead.
func (e *Engine) admit(f *flows.Flow, at sim.Time) {
	nd := &e.Nodes[f.Src]
	if e.lanes {
		chunk := int64(e.chunkCells) * e.cell
		total := f.Total()
		for off := int64(0); off < total; off += chunk {
			n := total - off
			if n > chunk {
				n = chunk
			}
			k := e.RNG.Intn(e.n - 1)
			if k >= f.Src {
				k++
			}
			nd.Lanes.Push(k, f, n, off, at)
		}
		return
	}
	nd.Direct.Push(f.Dst, f, f.Total(), 0, at)
}

// initShards builds the shard contexts and their prebuilt emitters.
func (e *Engine) initShards() {
	e.shards = make([]*obShard, e.Workers)
	for k := 0; k < e.Workers; k++ {
		fs := e.Shards[k]
		tors := fs.Hi - fs.Lo
		sh := &obShard{e: e, k: k, lo: fs.Lo, hi: fs.Hi, fs: fs, usedStamp: make([]int64, tors*e.s),
			drainMarks: fabric.NewOccSet(tors), row: make([]int, e.s), txVia: -1}
		// Losses requeue into the queue set the discipline actually
		// serves: lanes under Sirius spray, direct under the ablations.
		sh.lossClass = fabric.RequeueDirect
		if e.lanes {
			sh.lossClass = fabric.RequeueLane
		}
		sh.drainEmit = func(f *flows.Flow, n int64) {
			if sh.txLost {
				// Second hop destroyed: back into the relay FIFO on
				// detection, no sent-cursor rewind (see RequeueRelay).
				sh.fs.RecordLossClass(sh.txNode, f, sh.txDst, 0, n, e.slotArrive, fabric.RequeueRelay, -1)
				return
			}
			sh.drainDelivs = append(sh.drainDelivs, obDeliv{f: f, dst: sh.txDst, n: n, at: e.slotArrive})
		}
		sh.sentEmit = func(f *flows.Flow, n int64) {
			off := f.Sent()
			f.NoteSent(n)
			if sh.txLost {
				sh.fs.RecordLossClass(sh.txNode, f, sh.txDst, off, n, e.slotArrive, sh.lossClass, sh.txVia)
				return
			}
			sh.serveDelivs = append(sh.serveDelivs, obDeliv{f: f, dst: sh.txDst, n: n, at: e.slotArrive})
		}
		sh.pushEmit = func(f *flows.Flow, n int64) {
			off := f.Sent()
			f.NoteSent(n)
			if sh.txLost {
				sh.fs.RecordLossClass(sh.txNode, f, sh.txDst, off, n, e.slotArrive, sh.lossClass, sh.txVia)
				return
			}
			sh.pushes = append(sh.pushes, obPush{f: f, inter: sh.txInter, dst: sh.txDst, n: n, at: e.slotArrive})
		}
		e.shards[k] = sh
	}
	e.stepDrain = func(k int) { e.shards[k].drainStep() }
	e.stepServe = func(k int) { e.shards[k].serveStep() }
}

// Name identifies the control plane.
func (e *Engine) Name() string { return "oblivious" }

// RoundLen implements fabric.ControlPlane: one round is one timeslot.
func (e *Engine) RoundLen() sim.Duration { return e.timing.Slot }

// EpochRounds implements fabric.EpochPlane: the baseline's epoch analogue
// is one all-to-all sweep of the predefined schedule, a full round-robin
// cycle of timeslots.
func (e *Engine) EpochRounds() int { return e.slots }

// Round implements fabric.ControlPlane: one timeslot through the
// barrier-synchronized shard phases:
//
//	serial   arrival injection, slot context and schedule
//	phase A  second-hop relay drains — each shard drains its own ToRs'
//	         ready relay VOQs toward this slot's peers, marking the
//	         connections it consumed
//	phase B  lane/spray service on the remaining connections, with
//	         VOQ-headroom checks against the post-drain occupancy
//	         snapshot; takes mutate only shard-local queues, and all
//	         cross-shard effects (relay pushes, delivery accounting on
//	         flows owned elsewhere) are deferred as records
//	serial   deterministic merge — pushes and deliveries applied in
//	         shard (= ToR-ascending) order, so FIFO contents, flow
//	         completions and observer callbacks are identical at any
//	         worker count
func (e *Engine) Round() {
	slotStart := e.Now()
	e.Inject(slotStart)
	slotNo := e.Rounds()
	e.slotT = int(slotNo) % e.slots
	e.slotRot = int(slotNo) / e.slots // rotate the rule every full cycle
	e.slotStart = slotStart
	e.slotArrive = slotStart.Add(e.timing.Slot).Add(e.timing.PropDelay)
	e.top.SlotSchedule(e.slotT, e.slotRot, &e.peers, &e.sources)

	e.ParDo(e.stepDrain)
	e.ParDo(e.stepServe)

	// Separate sweeps per record class (drain deliveries, pushes, serve
	// deliveries), each in shard order: the apply order — and with it the
	// FIFO contents, flow completions and observer callbacks — must not
	// depend on where shard boundaries fall. A sequential slot produces
	// exactly this order: all drains in ToR order, then all serves.
	for _, sh := range e.shards {
		for _, d := range sh.drainDelivs {
			e.Deliver(d.f, d.dst, d.n, d.at)
		}
		sh.drainDelivs = sh.drainDelivs[:0]
	}
	for _, sh := range e.shards {
		for _, p := range sh.pushes {
			e.Nodes[p.inter].Relay.Push(p.dst, queue.Segment{Flow: p.f, Bytes: p.n, Enqueued: p.at})
			e.relayed += p.n
		}
		sh.pushes = sh.pushes[:0]
		for _, tr := range sh.transits {
			e.cfg.OnTransit(tr.inter, tr.at, tr.n)
		}
		sh.transits = sh.transits[:0]
	}
	for _, sh := range e.shards {
		for _, d := range sh.serveDelivs {
			e.Deliver(d.f, d.dst, d.n, d.at)
		}
		sh.serveDelivs = sh.serveDelivs[:0]
	}
}

// IdleHorizon implements fabric.IdlePlane: the round-robin schedule keeps
// no cross-slot control state outside the node queues — the slot index and
// rotation derive from the round counter, the spray RNG draws only at
// admission, and an empty fabric's slot touches nothing — so with no byte
// queued anywhere (the core's precondition) every future slot is a no-op
// until new bytes arrive.
func (e *Engine) IdleHorizon() sim.Time { return fabric.HorizonInfinite }

// drainStep is phase A for one shard: second-hop relay traffic destined to
// each connected peer, for this shard's ToRs. Relay traffic must not
// accumulate, so a connection carrying it is consumed for the slot.
//
// Two walks find the ToRs to drain, with byte-identical results; both hand
// each one to drainPorts. The holder walk visits every node with relay
// backlog. VLB spraying makes nearly every node a relay holder even when
// only a handful of flows are live — 256 flows sprayed across 65,536
// intermediates leave backlog everywhere — so that walk is O(width) in
// exactly the sparse regime that must not pay it. The number of relay
// DESTINATIONS tracks live flows, not width, and drainSparse walks those
// instead; it touches each candidate connection to mark its source before
// the visit. So the inverted walk runs only when it is the cheaper one:
// with fewer than half as many relay destinations as relay holders. Under
// dense spray at 128 ToRs both sets hold about N members and the holder
// walk runs; at 256 active ToRs of 4096 and more, a few hundred
// destinations face thousands of holders.
func (sh *obShard) drainStep() {
	slotNo := sh.e.Rounds()
	if dsts, nd := sh.fs.RelayDsts(); 2*nd < sh.fs.ActiveRelay.Count() {
		sh.drainSparse(dsts, slotNo)
		return
	}
	sh.drainHolders(slotNo)
}

// drainHolders is drainStep's holder walk: the shard's relay occupancy set
// leads straight to the nodes holding relay backlog, so the walk is
// O(relay-active nodes · S) with no dense scan at all; draining a node
// empty clears its own bit, which is safe mid-iteration (Next only looks
// ahead).
func (sh *obShard) drainHolders(slotNo int64) {
	occ := &sh.fs.ActiveRelay
	for bit := occ.Next(-1); bit >= 0; bit = occ.Next(bit) {
		sh.drainPorts(sh.lo+bit, slotNo)
	}
}

// drainSparse is drainStep's destination-inverted walk. Within one slot the
// predefined schedule is a permutation per port, so for every backlogged
// destination j and port s there is at most one source i whose port s
// reaches j — the slot's sources schedule names it. Marking each in-shard
// candidate and then visiting the marks in ascending order reproduces the
// holder walk's (i ascending, s ascending) service order, so the drains,
// the deferred records and the usedStamp marks are byte-identical to that
// walk: every port through which the holder walk would drain leads to a
// relay destination, so its source is marked, and a marked ToR that holds
// nothing for a port's peer drops that port from drainPorts' mask as it
// would there. Every mark is placed before any drain runs, so destination
// bits clearing as VOQs empty cannot perturb the walk, and the visit
// clears each mark, so no per-slot reset is needed. Cost: O(relay-
// destinations · S) marks and at most as many ToRs visited, each over its
// S ports — independent of fabric width.
func (sh *obShard) drainSparse(dsts *fabric.OccSet, slotNo int64) {
	e := sh.e
	marks := &sh.drainMarks
	for j := dsts.Next(-1); j >= 0; j = dsts.Next(j) {
		e.sources.Row(j, sh.row)
		for _, i := range sh.row {
			if i != j && i >= sh.lo && i < sh.hi {
				marks.Set(i - sh.lo)
			}
		}
	}
	for di := marks.Next(-1); di >= 0; di = marks.Next(di) {
		marks.Clear(di)
		// A candidate may never have held relay bytes, its occupancy
		// index unmaterialized: the zero aggregate answers for it.
		if e.Nodes[sh.lo+di].Relay.Total > 0 {
			sh.drainPorts(sh.lo+di, slotNo)
		}
	}
}

// drainPorts drains ToR i, which holds relay bytes, over every port whose
// peer it holds relay bytes for, in ascending port order: one cell of the
// relay VOQ for the peer per port, which consumes the connection for the
// slot. The port mask comes from the occupancy index, so only those ports
// read a queue. A link the fabric knows is down is excluded from service
// (the slot is not scheduled, so serve keeps it gated too); a link that is
// down but undetected transmits into the void. Draining port s can clear
// only its own peer's occupancy bit, which no other port of i reads this
// slot, so a mask built before the drains stays exact.
func (sh *obShard) drainPorts(i int, slotNo int64) {
	e := sh.e
	src := &e.Nodes[i]
	row := sh.row
	e.peers.Row(i, row)
	for w := 0; w < e.maskWords; w++ {
		for m := portMask(&src.Relay.Occ, i, row, w); m != 0; m &= m - 1 {
			s := w<<6 | bits.TrailingZeros64(m)
			j := row[s]
			if e.known.Down(i, j, s) || !src.Relay.HeadReady(j, e.slotStart) {
				continue
			}
			sh.txDst = j
			sh.txNode = src
			sh.txLost = e.actual.Down(i, j, s)
			src.Relay.Drain(j, e.cell, e.slotStart, sh.drainEmit)
			sh.usedStamp[(i-sh.lo)*e.s+s] = slotNo + 1
		}
	}
}

// portMask returns word w of ToR i's port mask for the slot (ports 64w to
// 64w+63), given the far ends of its ports in row: a port's bit is set
// when its connection is live — its peer is not i itself — and occ holds
// the peer. Most connections of a busy node face a peer it holds nothing
// for, and which ones do changes from slot to slot, so a branch per port
// on that bit would be mispredicted at random; the bits combine
// arithmetically instead, and the callers visit only the set bits.
func portMask(occ *fabric.OccSet, i int, row []int, w int) uint64 {
	lo := w << 6
	var m uint64
	for k, j := range row[lo:min(lo+64, len(row))] {
		self := uint64(j ^ i) // zero only on an idle connection
		m |= (occ.Bit(j) & ((self | -self) >> 63)) << (uint(k) & 63)
	}
	return m
}

// freePorts returns word w of ToR i's mask of the ports phase A did not
// consume this slot (a usedStamp other than stamp), without a branch per
// port.
func (sh *obShard) freePorts(i, w int, stamp int64) uint64 {
	s := sh.e.s
	used := sh.usedStamp[(i-sh.lo)*s : (i-sh.lo+1)*s]
	lo := w << 6
	var m uint64
	for k, u := range used[lo:min(lo+64, s)] {
		x := uint64(u ^ stamp)
		m |= ((x | -x) >> 63) << (uint(k) & 63)
	}
	return m
}

// serveStep is phase B for one shard: fresh-data service on the
// connections phase A left free.
func (sh *obShard) serveStep() {
	e := sh.e
	stamp := e.Rounds() + 1
	// The occupancy set of the class this discipline serves walks straight
	// to the nodes holding fresh data — the O(active)-nodes counterpart of
	// the drain-phase walk. Each node's port mask keeps the free, live
	// ports and, under the lane discipline, those whose lane holds bytes,
	// as drainPorts does for relay FIFOs: most lanes of a node are empty
	// in any one slot, and an empty PIAS lane's head read touches three
	// cache lines of its page. Every visited node has bytes in its class,
	// so its occupancy index exists. The slot-time-spray ablation can
	// spray any queue over any live port and keeps its own occupancy walk
	// in serve.
	occ := &sh.fs.ActiveDirect
	if e.lanes {
		occ = &sh.fs.ActiveLanes
	}
	for bit := occ.Next(-1); bit >= 0; bit = occ.Next(bit) {
		i := sh.lo + bit
		src := &e.Nodes[i]
		held := &e.anyPeer
		if e.lanes {
			held = &src.Lanes.Occ
		}
		row := sh.row
		e.peers.Row(i, row)
		for w := 0; w < e.maskWords; w++ {
			for m := sh.freePorts(i, w, stamp) & portMask(held, i, row, w); m != 0; m &= m - 1 {
				s := w<<6 | bits.TrailingZeros64(m)
				j := row[s]
				// Every transmission of slot (i, s) rides the same fibre
				// pair, so the known-failure gate and the actual-loss flag
				// apply to the connection as a whole (see drainPorts).
				if e.known.Down(i, j, s) {
					continue
				}
				sh.txNode = src
				sh.txLost = e.actual.Down(i, j, s)
				if e.lanes {
					sh.serveLanes(src, i, j)
				} else {
					sh.serve(src, i, j)
				}
			}
		}
	}
}

// serveLanes fills one slot under the default Sirius discipline: the head
// cell of the pre-assigned spray lane for the connected peer j. Fresh data
// was split across lanes at arrival, so a slot can only carry lane j's
// data; if the head cell's destination VOQ at j is full — judged against
// the post-drain slot-start occupancy, see Config.Workers — the slot is
// wasted: the backpressure that, together with the doubled traffic volume,
// caps the oblivious design's goodput under heavy load (paper §2).
func (sh *obShard) serveLanes(src *fabric.Node, i, j int) {
	e := sh.e
	d := src.Lanes.HeadDst(j)
	if d < 0 {
		return // idle slot
	}
	if d == j {
		// The pre-assigned intermediate is the destination: one hop.
		sh.txDst = j
		sh.txVia = j
		src.Lanes.TakeHeadCell(j, e.cell, sh.sentEmit)
		return
	}
	headroom := e.relayCap - e.Nodes[j].Relay.Bytes(d)
	if headroom <= 0 {
		return // VOQ full: the lane head stalls and the slot is wasted
	}
	max := e.cell
	if max > headroom {
		max = headroom
	}
	sh.txInter, sh.txDst = j, d
	sh.txVia = j
	_, n := src.Lanes.TakeHeadCell(j, max, sh.pushEmit)
	if !sh.txLost {
		sh.noteTransit(j, n) // destroyed cells never reach the intermediate
	}
}

// serve fills the slot for the slot-time-spray discipline
// (the OpportunisticDirect ablation): one cell per slot chosen
// as [direct-to-j] > spray-from-any-queue, with the spray target decided
// at slot time rather than pre-assigned (relay service already ran in
// phase A).
func (sh *obShard) serve(src *fabric.Node, i, j int) {
	e := sh.e
	if src.Direct.Bytes(j) > 0 {
		// Direct traffic to j (source-side priority queues apply).
		sh.txDst = j
		src.Direct.Take(j, e.cell, sh.sentEmit)
		return
	}
	// First hop: spray one fresh cell via j, bounded by j's relay headroom
	// (idealised backpressure standing in for Sirius's congestion
	// control). Data already destined to j delivers in one hop.
	//
	// The occupancy index replaces the dense SprayPtr walk: candidates are
	// visited in the same cyclic order starting at SprayPtr, and the
	// pointer lands one past the served destination — or stays put after a
	// fruitless full scan — exactly where the dense walk left it, so the
	// spray sequence is byte-identical at O(active) cost.
	inter := &e.Nodes[j]
	start := src.SprayPtr
	d := src.Direct.Occ.Next(start - 1)
	wrapped := false
	for {
		if d < 0 {
			if wrapped {
				return
			}
			wrapped = true
			d = src.Direct.Occ.Next(-1)
			if d < 0 {
				return
			}
		}
		if wrapped && d >= start {
			return
		}
		if d != i {
			if d == j {
				sh.txDst = j
				src.Direct.Take(d, e.cell, sh.sentEmit)
				src.SprayPtr = d + 1
				if src.SprayPtr >= e.n {
					src.SprayPtr = 0
				}
				return
			}
			if headroom := e.relayCap - inter.Relay.Bytes(d); headroom > 0 {
				max := e.cell
				if max > headroom {
					max = headroom
				}
				sh.txInter, sh.txDst = j, d
				n := src.Direct.Take(d, max, sh.pushEmit)
				if !sh.txLost {
					sh.noteTransit(j, n)
				}
				src.SprayPtr = d + 1
				if src.SprayPtr >= e.n {
					src.SprayPtr = 0
				}
				return
			}
			// That VOQ is full; try another destination's data.
		}
		d = src.Direct.Occ.Next(d)
	}
}

// noteTransit records one connection's transit observation when an
// observer is attached (one call per pushing connection, bytes summed —
// the granularity the sequential engine always delivered).
func (sh *obShard) noteTransit(inter int, n int64) {
	if n > 0 && sh.e.cfg.OnTransit != nil {
		sh.transits = append(sh.transits, obTransit{inter: inter, n: n, at: sh.e.slotArrive})
	}
}

// Compile-time interface checks.
var (
	_ fabric.ControlPlane = (*Engine)(nil)
	_ fabric.IdlePlane    = (*Engine)(nil)
	_ fabric.EpochPlane   = (*Engine)(nil)
)
