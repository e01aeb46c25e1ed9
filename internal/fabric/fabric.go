// Package fabric is the control-plane-agnostic core shared by every
// engine: it owns the physical substrate and the bookkeeping that is
// identical no matter how transmissions are decided — topology, per-ToR
// node state (three queue classes — direct VOQs, spray lanes, relay FIFOs
// — each a paged queue.Slab behind one set of choke points, and
// failure-loss records), the workload pump, the flow ledger and
// tagged-event accounting, the
// shard/gang scaffolding with per-shard metric accumulators and their
// deterministic serial merge, and the round-synchronous run loop.
//
// A control plane — NegotiaToR's on-demand negotiation, the
// traffic-oblivious round-robin/VLB baseline, the mice/elephant hybrid —
// plugs in through the small ControlPlane interface: it decides, per
// round, which bytes move where, reading slot-start snapshots and writing
// through the core's shard-local accounting (Shard.Deliver,
// Shard.RecordLoss) and the node queue classes (Node.Direct, Node.Lanes,
// Node.Relay), whose choke points keep every queue index exact.
// Everything a new baseline or scenario needs beyond its decision rule
// already lives here, which is what makes an additional engine a
// single-file change.
//
// The determinism contract carries over from the engines the core was
// extracted from: shards are contiguous ascending ToR ranges executed
// between barriers, per-shard accumulators merge order-independently, and
// any cross-shard effect is deferred into per-shard buffers applied in
// shard (= ToR-ascending) order.
package fabric

import (
	"fmt"
	"runtime"

	"negotiator/internal/failure"
	"negotiator/internal/flows"
	"negotiator/internal/metrics"
	"negotiator/internal/par"
	"negotiator/internal/queue"
	"negotiator/internal/sim"
	"negotiator/internal/topo"
	"negotiator/internal/workload"
)

// ControlPlane is one scheduling discipline driving the shared core: the
// decide-and-transmit hook the run loop invokes once per round. Round
// executes one scheduling round (a NegotiaToR epoch, one baseline
// timeslot, ...) starting at the core's current time: it pumps arrivals
// (Core.Inject at the point in the round its semantics require), runs its
// phases over the shards via Core.ParDo, and books every effect through
// the core's shard-local accounting. The core then folds the per-shard
// deltas, advances time by RoundLen and increments the round counter.
type ControlPlane interface {
	// Name identifies the control plane in output and CLIs.
	Name() string
	// RoundLen is the simulated duration of one round.
	RoundLen() sim.Duration
	// Round executes one round at Core.Now.
	Round()
}

// RoundChecker is optionally implemented by control planes with
// per-round invariants of their own (match conflict-freedom, mailbox
// indexes). Under Config.CheckInvariants the core calls it after each
// round's serial merge and its own conservation and occupancy checks.
type RoundChecker interface {
	CheckRound()
}

// EpochPlane is optionally implemented by control planes whose epoch —
// the unit RunEpochs steps and Results reports — spans several rounds
// (the oblivious plane's round-robin cycle of timeslots). Planes without
// it have one round per epoch.
type EpochPlane interface {
	EpochRounds() int
}

// Results summarises a run in the control plane's epoch units.
type Results struct {
	FCT     *metrics.FCTStats
	Goodput *metrics.Goodput
	// MatchRatio is the per-epoch accept/grant series the negotiating
	// planes observe; it stays empty on the oblivious plane.
	MatchRatio *metrics.Ratio
	Tags       map[int]*TagStat
	Duration   sim.Duration
	EpochLen   sim.Duration
	Epochs     int64
	Injected   int64
	Delivered  int64
	LostBytes  int64 // bytes destroyed by failures (before requeue), cumulative
	// PeakReceiverBuffer is the largest receiver-side ToR-to-host backlog
	// across all ToRs; zero unless TrackReceiverBuffers is set.
	PeakReceiverBuffer int64
}

// TagStat tracks one tagged application event (e.g. an incast): its
// start, the completion time of its last flow, and flow counts.
type TagStat struct {
	Start sim.Time
	End   sim.Time
	Flows int
	Done  int
}

// Config assembles a core. Workers is the EFFECTIVE shard parallelism:
// control planes resolve their own clamping rules (sequential-only
// features, matcher shardability) before building the core. The node
// options choose queue classes only; see Node for what a node holds.
type Config struct {
	// Topology is the optical fabric layout (required).
	Topology topo.Topology
	// HostRate is the per-ToR host aggregate bandwidth, the drain rate of
	// the receiver buffers; zero means 400 Gbps.
	HostRate sim.Rate
	// Workers is the effective shard count (clamped to the ToR count;
	// values < 1 mean sequential).
	Workers int
	// RNG is the randomness stream, shared with the control plane that
	// built it so its own draws interleave with the core's (ownership
	// passes to the core); nil means a zero-seeded stream.
	RNG *sim.RNG
	// PriorityQueues enables PIAS-style multi-level queues in every
	// DestQueue the core allocates.
	PriorityQueues bool
	// Lanes allocates the per-ToR secondary VOQ set (VLB spray lanes,
	// hybrid mice queues).
	Lanes bool
	// Relay allocates the per-ToR in-transit relay FIFOs.
	Relay bool
	// OnDeliver, when set, observes every payload delivery at its
	// destination.
	OnDeliver func(dst int, at sim.Time, n int64)
	// TrackReceiverBuffers models receiver-side ToR-to-host drain buffers
	// and reports their peak occupancy.
	TrackReceiverBuffers bool
	// Failures optionally injects link failures: the core owns the actual
	// and known link-state snapshots, advances them by event-transition
	// cursor at each round start, and requeues detected losses before the
	// control plane's phases run. Planes read the snapshots through
	// ActualFailures/KnownFailures — known state excludes links from
	// scheduling, actual state destroys bits at transmission choke points.
	Failures *failure.Plan
	// DisableEventSkip forces the run loop to tick every round even when
	// the fabric is provably idle and the plane implements IdlePlane —
	// the cross-check knob skip-on == skip-off equality tests flip.
	DisableEventSkip bool
	// CheckInvariants runs CheckConservation, CheckOccupancy and the
	// plane's RoundChecker after every round (tests; O(N²) per round).
	CheckInvariants bool
}

// Core is the shared fabric substrate. Exported fields are the stable
// surface control planes program against; the run loop, workload pump and
// merge bookkeeping stay internal.
type Core struct {
	Top  topo.Topology
	N, S int
	// Nodes holds every ToR's node by value, indexed by ToR: one
	// allocation at any fabric size. Take &Nodes[i]; never copy a Node.
	Nodes []Node
	// Shards are the contiguous ToR ranges with their metric
	// accumulators; ShardOf maps a ToR to its owning shard.
	Shards  []*Shard
	ShardOf []int32
	Workers int
	// Ledger tracks fabric-wide byte conservation; Lost accumulates
	// failure-destroyed bytes (before requeue) for reporting.
	Ledger flows.Ledger
	Lost   int64
	// Tags tracks tagged application events.
	Tags map[int]*TagStat
	// RNG is the core randomness stream (spray decisions, matcher seeds).
	RNG *sim.RNG
	// RxBuffers are the optional receiver-side drain buffers (per dst).
	RxBuffers []metrics.DrainBuffer
	// OnDeliver is the optional delivery observer (applied by
	// Shard.Deliver; sequential-only by the control planes' clamping).
	OnDeliver func(dst int, at sim.Time, n int64)
	// MatchRatio is the per-epoch accept/grant series. The negotiating
	// planes observe into it once per epoch; the core checkpoints it with
	// the other metrics.
	MatchRatio metrics.Ratio

	// fct caches MergedFCT's view. Shard sample counts only grow, so the
	// view is current while its count equals theirs; Restore drops it.
	fct *metrics.FCTStats

	plane       ControlPlane
	check       RoundChecker
	checkInv    bool
	roundLen    sim.Duration
	epochRounds int
	gang        *par.Gang
	now         sim.Time
	rounds      int64

	// Event-skip state: the plane's optional idle capability, the
	// configuration override, and the fast-forwarded round count (see
	// skip.go).
	idle          IdlePlane
	skipOff       bool
	skippedRounds int64

	work        workload.Generator
	pending     workload.Arrival
	havePending bool
	genDone     bool
	flowSeq     int64
	// nextCalls counts Generator.Next invocations since SetWorkload.
	// Generators are deterministic from construction but opaque, so
	// checkpoints store this count and restore replays exactly that many
	// draws on an identically constructed generator (see snapshot.go).
	nextCalls int64
	admit     func(f *flows.Flow, at sim.Time)

	// Failure subsystem: the plan, the two cursor-maintained snapshots
	// (actual link state, and the detection-lagged state the fabric
	// knows), and the cumulative requeued-byte counter. Quiet epochs cost
	// one O(1) cursor probe each, not a dense state rebuild.
	failPlan  *failure.Plan
	actualCur *failure.Cursor
	knownCur  *failure.Cursor
	requeued  int64

	// pendingLosses counts loss records outstanding across all nodes
	// (folded from the per-shard deltas), so failure-free rounds skip the
	// requeue walk entirely.
	pendingLosses int64
	// flowPool recycles completed flow records for the arrival pump: churn
	// workloads stop paying one allocation per flow once completions keep
	// pace with arrivals. segPool does the same for queue segment arrays
	// (growth happens only in serial phases; see queue.SegPool).
	flowPool []*flows.Flow
	segPool  queue.SegPool
	// destPages and fifoPages recycle released queue pages (see
	// queue.PagePool); like segPool they are unsynchronised — pages are
	// taken at push-time materialization (serial phases) and returned by
	// the serial merge.
	destPages queue.PagePool[queue.DestQueue]
	fifoPages queue.PagePool[queue.FIFO]
}

// New builds a core. Bind must be called with the control plane before
// the run loop is used.
func New(cfg Config) (*Core, error) {
	if cfg.Topology == nil {
		return nil, fmt.Errorf("fabric: nil topology")
	}
	if cfg.HostRate == 0 {
		cfg.HostRate = sim.Gbps(400)
	}
	c := &Core{
		Top:       cfg.Topology,
		N:         cfg.Topology.N(),
		S:         cfg.Topology.Ports(),
		Tags:      make(map[int]*TagStat),
		RNG:       cfg.RNG,
		OnDeliver: cfg.OnDeliver,
	}
	if c.RNG == nil {
		c.RNG = sim.NewRNG(0)
	}
	// Nodes are lazy: construction allocates only the node array and the
	// shared slab spec; queue slabs and occupancy indexes materialize per
	// node (per class) on first push, so a mostly-idle 4096-ToR fabric
	// costs O(active nodes), not O(N²) FIFOs.
	spec := &nodeSpec{
		n:        c.N,
		priority: cfg.PriorityQueues,
		lanes:    cfg.Lanes,
		relay:    cfg.Relay,
		segs:     &c.segPool,
		dests:    &c.destPages,
		fifos:    &c.fifoPages,
	}
	c.Nodes = make([]Node, c.N)
	c.Workers = cfg.Workers
	if c.Workers < 1 {
		c.Workers = 1
	}
	if c.Workers > c.N {
		c.Workers = c.N
	}
	c.ShardOf = make([]int32, c.N)
	c.Shards = make([]*Shard, c.Workers)
	for k := 0; k < c.Workers; k++ {
		lo, hi := par.Split(c.N, c.Workers, k)
		sh := &Shard{c: c, K: k, Lo: lo, Hi: hi, Goodput: metrics.NewGoodput(c.N)}
		sh.ActiveDirect = newOccSet(hi - lo)
		sh.ActiveLanes = newOccSet(hi - lo)
		sh.ActiveRelay = newOccSet(hi - lo)
		c.Shards[k] = sh
		for i := lo; i < hi; i++ {
			c.ShardOf[i] = int32(k)
			c.Nodes[i].init(spec, sh, i, i-lo)
		}
	}
	c.skipOff = cfg.DisableEventSkip
	c.checkInv = cfg.CheckInvariants
	if c.Workers > 1 {
		c.gang = par.NewGang(c.Workers)
		// Cores have no Close; release the gang's background workers when
		// the core becomes unreachable (the gang holds no core reference,
		// so the cleanup can fire).
		runtime.AddCleanup(c, func(g *par.Gang) { g.Close() }, c.gang)
	}
	if cfg.TrackReceiverBuffers {
		c.RxBuffers = make([]metrics.DrainBuffer, c.N)
		for i := range c.RxBuffers {
			c.RxBuffers[i] = metrics.NewDrainBuffer(cfg.HostRate)
		}
	}
	if cfg.Failures != nil {
		c.failPlan = cfg.Failures
		c.actualCur = failure.NewCursor(cfg.Failures, c.N, c.S)
		c.knownCur = failure.NewCursor(cfg.Failures, c.N, c.S)
	}
	return c, nil
}

// Failures returns the active failure plan, nil without fault injection.
func (c *Core) Failures() *failure.Plan { return c.failPlan }

// ActualFailures returns the live actual link-state snapshot (nil without
// a plan). The pointer is stable for the core's lifetime; the core
// advances it once per round, before the control plane's phases.
func (c *Core) ActualFailures() *failure.State {
	if c.actualCur == nil {
		return nil
	}
	return c.actualCur.State()
}

// KnownFailures returns the detection-lagged link-state snapshot the
// fabric schedules against (nil without a plan). Stable pointer, like
// ActualFailures.
func (c *Core) KnownFailures() *failure.State {
	if c.knownCur == nil {
		return nil
	}
	return c.knownCur.State()
}

// Requeued returns the cumulative bytes returned to source queues by
// detected-loss requeue.
func (c *Core) Requeued() int64 { return c.requeued }

// advanceFailures moves both snapshots to the round start (known state
// lagging by the plan's detection delay) and requeues every loss whose
// detection delay has elapsed. Rounds with no transitions and no
// outstanding losses do O(1) work.
func (c *Core) advanceFailures(t sim.Time) {
	c.actualCur.AdvanceTo(t)
	c.knownCur.AdvanceTo(t.Add(-c.failPlan.DetectDelay))
	c.RequeueDetectedLosses(t, c.failPlan.DetectDelay)
}

// Bind attaches the control plane and its arrival-admission hook (which
// places an injected flow into the source node's queues). RoundLen and
// EpochRounds are captured once: a plane's round and epoch durations are
// fixed for the run.
func (c *Core) Bind(plane ControlPlane, admit func(f *flows.Flow, at sim.Time)) {
	c.plane = plane
	c.roundLen = plane.RoundLen()
	c.admit = admit
	c.check, _ = plane.(RoundChecker)
	c.idle, _ = plane.(IdlePlane)
	c.epochRounds = 1
	if ep, ok := plane.(EpochPlane); ok {
		c.epochRounds = ep.EpochRounds()
	}
}

// SetWorkload attaches (or replaces) the arrival stream; replacing one
// mid-run restarts the pump on the new generator, dropping any arrival
// still buffered from the previous one.
func (c *Core) SetWorkload(g workload.Generator) {
	c.work = g
	c.genDone = false
	c.havePending = false
	c.nextCalls = 0
}

// Workload returns the attached arrival stream (nil before SetWorkload).
func (c *Core) Workload() workload.Generator { return c.work }

// Now returns the current simulated time (start of the next round).
func (c *Core) Now() sim.Time { return c.now }

// Rounds returns the number of completed rounds.
func (c *Core) Rounds() int64 { return c.rounds }

// WorkloadDone reports whether the arrival generator is exhausted.
func (c *Core) WorkloadDone() bool { return c.genDone }

// ParDo runs one barrier phase: fn(k) for every shard k, concurrently on
// the gang when parallel, inline in shard order when sequential.
func (c *Core) ParDo(fn func(k int)) {
	if c.gang != nil {
		c.gang.Do(fn)
		return
	}
	for k := range c.Shards {
		fn(k)
	}
}

// RunRound executes one scheduling round: failure-state advance and
// detected-loss requeue (when a plan is configured), the control plane's
// phases, then the deterministic serial merge of per-shard deltas, the
// optional invariant checks, and the time/round-counter advance.
func (c *Core) RunRound() {
	if c.failPlan != nil {
		c.advanceFailures(c.now)
	}
	c.plane.Round()
	c.mergeRound()
	if c.checkInv {
		c.CheckConservation()
		c.CheckOccupancy()
		if c.check != nil {
			c.check.CheckRound()
		}
	}
	c.rounds++
	c.now = c.now.Add(c.roundLen)
}

// Run advances the simulation until at least d of simulated time has
// elapsed (whole rounds). Provably-idle spans are fast-forwarded when the
// plane supports it (see skip.go); the remaining-round budget bounds each
// jump, so the final Now and round count match the ticking loop exactly.
func (c *Core) Run(d sim.Duration) {
	end := sim.Time(d)
	rl := int64(c.roundLen)
	for c.now < end {
		if c.skipQuiet((int64(end)-int64(c.now)+rl-1)/rl) > 0 {
			continue
		}
		c.RunRound()
	}
}

// RunRounds advances exactly k rounds (skipped rounds count).
func (c *Core) RunRounds(k int) {
	for done := int64(0); done < int64(k); {
		if s := c.skipQuiet(int64(k) - done); s > 0 {
			done += s
			continue
		}
		c.RunRound()
		done++
	}
}

// RunEpochs advances exactly k plane epochs (see EpochPlane).
func (c *Core) RunEpochs(k int) { c.RunRounds(k * c.epochRounds) }

// Drain keeps running until all injected traffic is delivered or
// maxRounds pass, returning true if fully drained. The workload must be
// exhausted first. The final check matches the loop's condition: an
// arrival still buffered in the pump (or a non-exhausted generator) means
// traffic remains even when the ledger reads zero.
func (c *Core) Drain(maxRounds int) bool {
	for i := int64(0); i < int64(maxRounds); {
		if c.Ledger.Queued() == 0 && c.genDone && !c.havePending {
			return true
		}
		if s := c.skipQuiet(int64(maxRounds) - i); s > 0 {
			i += s
			continue
		}
		c.RunRound()
		i++
	}
	return c.Ledger.Queued() == 0 && c.genDone && !c.havePending
}

// mergeRound folds the per-shard deltas in shard order. Every fold is
// commutative (sums, max), so the result is worker-count-independent.
func (c *Core) mergeRound() {
	for _, sh := range c.Shards {
		c.Ledger.Delivered += sh.Delivered
		sh.Delivered = 0
		c.Ledger.Lost += sh.LostDelta
		c.Lost += sh.LostDelta
		sh.LostDelta = 0
		c.pendingLosses += sh.LossRecs
		sh.LossRecs = 0
		for _, f := range sh.Tagged {
			ts := c.Tags[f.Tag]
			ts.Done += int(f.Members())
			if f.Completed() > ts.End {
				ts.End = f.Completed()
			}
		}
		c.flowPool = append(c.flowPool, sh.Tagged...)
		sh.Tagged = sh.Tagged[:0]
		c.flowPool = append(c.flowPool, sh.Freed...)
		sh.Freed = sh.Freed[:0]
		c.releasePages(sh)
	}
}

// pageReleaseAge is how many rounds an empty-page candidate must sit
// unrefuted before its page returns to the pool. The hysteresis keeps
// churning pages (emptied and refilled within a few rounds — the page's
// touch version moves, refuting the candidate) permanently materialized,
// so steady state never pays a release/re-materialize cycle; pages the
// workload has abandoned are reclaimed a few rounds after their last
// byte drains.
const pageReleaseAge = 8

// releasePages stamps the shard's new empty-page candidates with the
// current round, then applies every candidate old enough: the page is
// released only if it is still empty AND untouched since the candidate
// was recorded (queue.Slab.ReleaseIfEmpty). Runs in the serial
// merge, the only place pages may be taken from or returned to the
// unsynchronised pool besides serial-phase materialization.
func (c *Core) releasePages(sh *Shard) {
	q := &sh.relq
	for i := q.stamped; i < len(q.refs); i++ {
		q.refs[i].round = c.rounds
	}
	q.stamped = len(q.refs)
	for q.head < len(q.refs) && q.refs[q.head].round+pageReleaseAge <= c.rounds {
		ref := q.refs[q.head]
		q.refs[q.head] = pageRef{}
		q.head++
		nd := &c.Nodes[ref.tor]
		switch ref.class {
		case classDirect:
			nd.Direct.Slab.ReleaseIfEmpty(int(ref.page), ref.ver, &c.destPages)
		case classLanes:
			nd.Lanes.Slab.ReleaseIfEmpty(int(ref.page), ref.ver, &c.destPages)
		case classRelay:
			nd.Relay.Slab.ReleaseIfEmpty(int(ref.page), ref.ver, &c.fifoPages)
		}
	}
	if q.head > 64 && q.head*2 >= len(q.refs) {
		n := copy(q.refs, q.refs[q.head:])
		q.refs = q.refs[:n]
		q.stamped -= q.head
		q.head = 0
	}
}

// newFlow pops a recycled flow record or allocates a fresh one. Completed
// flows reach the pool through the round merge; Inject overwrites every
// field at reuse, so recycling is invisible to the simulation.
func (c *Core) newFlow() *flows.Flow {
	if k := len(c.flowPool) - 1; k >= 0 {
		f := c.flowPool[k]
		c.flowPool[k] = nil
		c.flowPool = c.flowPool[:k]
		return f
	}
	return &flows.Flow{}
}

// Inject moves all arrivals at or before t through the control plane's
// admission hook into the source queues. Control planes call it at the
// point of their round where arrivals become visible. An arrival without
// bytes (a size below 1) is drawn and dropped: no flow exists to carry,
// finish or count, and no plane's admission sees it.
func (c *Core) Inject(t sim.Time) {
	if c.work == nil {
		c.genDone = true
		return
	}
	for {
		if !c.havePending {
			c.nextCalls++
			a, ok := c.work.Next()
			if !ok {
				c.genDone = true
				return
			}
			c.pending, c.havePending = a, true
		}
		if c.pending.Time > t {
			return
		}
		a := c.pending
		c.havePending = false
		if a.Size < 1 {
			continue
		}
		c.flowSeq++
		f := c.newFlow()
		*f = flows.Flow{ID: c.flowSeq, Src: a.Src, Dst: a.Dst, Size: a.Size, Arrival: a.Time, Tag: a.Tag, Count: a.Count}
		c.admit(f, t)
		c.Ledger.Injected += f.Total()
		if a.Tag != 0 {
			ts := c.Tags[a.Tag]
			if ts == nil {
				ts = &TagStat{Start: a.Time}
				c.Tags[a.Tag] = ts
			}
			ts.Flows += int(f.Members())
			if a.Time < ts.Start {
				ts.Start = a.Time
			}
		}
	}
}

// RequeueDetectedLosses returns failure-destroyed bytes to the recording
// node's queues once the detection delay has elapsed, modelling
// upper-layer retransmission. The loss's requeue class picks the queue
// set (direct VOQ, spray/mice lane, relay FIFO — see RequeueClass).
// Failure-free rounds return immediately on the outstanding-loss counter
// instead of walking every node.
func (c *Core) RequeueDetectedLosses(now sim.Time, detect sim.Duration) {
	if c.pendingLosses == 0 {
		return
	}
	for i := range c.Nodes {
		nd := &c.Nodes[i]
		if len(nd.Losses) == 0 {
			continue
		}
		kept := nd.Losses[:0]
		for _, l := range nd.Losses {
			if l.At.Add(detect) <= now {
				switch l.Class {
				case RequeueDirect:
					l.F.Unsend(l.N)
					nd.Direct.Push(l.Dst, l.F, l.N, l.Off, now)
				case RequeueLane:
					l.F.Unsend(l.N)
					nd.Lanes.Push(int(l.Via), l.F, l.N, l.Off, now)
				case RequeueRelay:
					// Second-hop bytes were already noted sent at their
					// first hop and relay delivery never re-notes them, so
					// the flow's sent cursor stays put.
					nd.Relay.Push(l.Dst, queue.Segment{Flow: l.F, Bytes: l.N, Enqueued: now})
				}
				c.Ledger.Lost -= l.N
				c.requeued += l.N
				c.pendingLosses--
			} else {
				kept = append(kept, l)
			}
		}
		nd.Losses = kept
	}
}

// MergedFCT returns the per-shard FCT accumulators merged into one view.
// The merge shares the shards' sample blocks instead of copying them and
// is order-independent, so every statistic is identical at any worker
// count. The view, with the answers its queries cache (the all-flows
// percentile its radix select found, the sorted mice copy), is kept until
// a shard records a sample or Restore replaces the samples: Summary,
// MiceCDF and every Results caller share one merge, one select and one
// sort of the mice class. A view handed out earlier keeps its samples when
// a newer one replaces it. Callers must not record or merge into the view.
func (c *Core) MergedFCT() *metrics.FCTStats {
	n := 0
	for _, sh := range c.Shards {
		n += sh.FCT.Count()
	}
	if c.fct == nil || c.fct.Count() != n {
		c.fct = &metrics.FCTStats{}
		for _, sh := range c.Shards {
			c.fct.Merge(&sh.FCT)
		}
	}
	return c.fct
}

// Results snapshots the run's measurements, identical at any worker
// count. FCT is the cached, read-only MergedFCT view; goodput is merged
// afresh on every call.
func (c *Core) Results() Results {
	return Results{
		FCT:                c.MergedFCT(),
		Goodput:            c.MergedGoodput(),
		MatchRatio:         &c.MatchRatio,
		Tags:               c.Tags,
		Duration:           sim.Duration(c.now),
		EpochLen:           c.roundLen * sim.Duration(c.epochRounds),
		Epochs:             c.rounds / int64(c.epochRounds),
		Injected:           c.Ledger.Injected,
		Delivered:          c.Ledger.Delivered,
		LostBytes:          c.Lost,
		PeakReceiverBuffer: c.PeakReceiverBuffer(),
	}
}

// MergedGoodput snapshots the per-shard goodput accumulators.
func (c *Core) MergedGoodput() *metrics.Goodput {
	g := metrics.NewGoodput(c.N)
	for _, sh := range c.Shards {
		g.Merge(sh.Goodput)
	}
	return g
}

// PeakReceiverBuffer returns the largest receiver-side backlog across all
// ToRs (zero without TrackReceiverBuffers).
func (c *Core) PeakReceiverBuffer() int64 {
	var peak int64
	for _, b := range c.RxBuffers {
		if p := b.Peak(); p > peak {
			peak = p
		}
	}
	return peak
}

// QueuedInNodes sums every byte sitting in node queues (direct VOQs,
// lanes, relay FIFOs) — the fabric-side figure per-round conservation
// checks compare against the ledger.
func (c *Core) QueuedInNodes() int64 {
	var total int64
	for i := range c.Nodes {
		nd := &c.Nodes[i]
		nd.Direct.Slab.ForEachPage(func(_, _ int, qs []queue.DestQueue, _ int64) {
			for j := range qs {
				total += qs[j].Bytes()
			}
		})
		nd.Lanes.Slab.ForEachPage(func(_, _ int, qs []queue.DestQueue, _ int64) {
			for j := range qs {
				total += qs[j].Bytes()
			}
		})
		nd.Relay.Slab.ForEachPage(func(_, _ int, fs []queue.FIFO, _ int64) {
			for j := range fs {
				total += fs[j].Bytes()
			}
		})
	}
	return total
}

// CheckOccupancy asserts every node's class indexes — occupancy bits,
// per-queue and per-page counters, class aggregates, shard active bits —
// and every shard's relay-destination index exactly mirror the queue
// contents, the invariant the class choke points maintain, and that
// unmaterialized slabs report empty/zero everywhere. Engines run it per
// round under CheckInvariants; it costs O(N²), like the ledger check.
func (c *Core) CheckOccupancy() {
	if err := c.verifyOccupancy(); err != nil {
		panic(err.Error())
	}
}

// verifyOccupancy is CheckOccupancy's check, reporting the first failure.
func (c *Core) verifyOccupancy() error {
	for i := range c.Nodes {
		if err := c.Nodes[i].verify(); err != nil {
			return err
		}
	}
	// The relay-destination index must refcount exactly the relay
	// occupancy bits of the shard's nodes.
	for _, sh := range c.Shards {
		if sh.relDst.refs == nil {
			continue
		}
		var members int
		for d := 0; d < c.N; d++ {
			var cnt int32
			for i := sh.Lo; i < sh.Hi; i++ {
				if r := &c.Nodes[i].Relay; r.Slab.Materialized() && r.Occ.Has(d) {
					cnt++
				}
			}
			if sh.relDst.refs[d] != cnt {
				return fmt.Errorf("fabric: shard %d relay-dst refs[%d] = %d, %d nodes hold backlog", sh.K, d, sh.relDst.refs[d], cnt)
			}
			if sh.relDst.occ.Has(d) != (cnt > 0) {
				return fmt.Errorf("fabric: shard %d relay-dst occ[%d] = %v, refs %d", sh.K, d, sh.relDst.occ.Has(d), cnt)
			}
			if cnt > 0 {
				members++
			}
		}
		if members != sh.relDst.count {
			return fmt.Errorf("fabric: shard %d relay-dst count %d, index holds %d members", sh.K, sh.relDst.count, members)
		}
	}
	return nil
}

// CheckConservation asserts byte conservation: the plain ledger identity
// (injected == delivered + queued + Lost) and, beyond it, the failure
// identities — the outstanding loss records must sum to Ledger.Lost and
// match the pending-loss counter, and cumulative destroyed bytes must
// equal the ledger's live losses plus everything requeued — so injected
// == delivered + queued + Lost − requeued holds with Lost read as the
// cumulative destruction figure (Core.Lost). Without a failure plan every
// loss term is zero. RunRound runs it under CheckInvariants.
func (c *Core) CheckConservation() {
	if err := c.verifyConservation(); err != nil {
		panic(err)
	}
}

// verifyConservation is CheckConservation's check, reporting the first
// failure.
func (c *Core) verifyConservation() error {
	if err := c.Ledger.Check(c.QueuedInNodes()); err != nil {
		return err
	}
	var sum, recs int64
	for i := range c.Nodes {
		for _, l := range c.Nodes[i].Losses {
			sum += l.N
			recs++
		}
	}
	if sum != c.Ledger.Lost {
		return fmt.Errorf("fabric: outstanding loss records hold %d bytes, ledger says %d", sum, c.Ledger.Lost)
	}
	if recs != c.pendingLosses {
		return fmt.Errorf("fabric: %d outstanding loss records, counter says %d", recs, c.pendingLosses)
	}
	if c.Lost != c.Ledger.Lost+c.requeued {
		return fmt.Errorf("fabric: destroyed %d != live lost %d + requeued %d", c.Lost, c.Ledger.Lost, c.requeued)
	}
	return nil
}

// MaterializeAll eagerly allocates every node's configured slabs, exactly
// as pre-PR-5 construction did. Lazy-vs-eager equivalence tests call it;
// simulations never need to.
func (c *Core) MaterializeAll() {
	for i := range c.Nodes {
		c.Nodes[i].Materialize()
	}
}
