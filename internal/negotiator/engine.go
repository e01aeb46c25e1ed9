package negotiator

import (
	"fmt"
	"slices"

	"negotiator/internal/fabric"
	"negotiator/internal/failure"
	"negotiator/internal/flows"
	"negotiator/internal/match"
	"negotiator/internal/sim"
	"negotiator/internal/topo"
)

// Config assembles a NegotiaToR fabric. The hybrid plane builds from the
// same Config (see hybrid.New for the fields it rejects or ignores).
type Config struct {
	// Topology is the optical fabric layout (required).
	Topology topo.Topology
	// Timing is the epoch structure; zero value means DefaultTiming.
	Timing Timing
	// HostRate is the aggregate host bandwidth under one ToR (400 Gbps in
	// the paper; zero means that default), the receiver buffers' drain
	// rate.
	HostRate sim.Rate
	// Piggyback enables unscheduled data transmission in the predefined
	// phase (paper §3.4.1). On by default in the paper's evaluation.
	Piggyback bool
	// PriorityQueues enables PIAS-style mice-flow prioritisation at
	// sources (paper §3.4.2).
	PriorityQueues bool
	// RequestThresholdPkts is the request threshold in piggyback packets:
	// with piggybacking on, a pair requests a scheduled connection only
	// when its queue exceeds this many piggyback payloads (3 in §3.4.1).
	// Ignored when Piggyback is false (threshold zero).
	RequestThresholdPkts int
	// NewMatcher builds the scheduling policy; nil means the base
	// NegotiaToR Matching.
	NewMatcher func(t topo.Topology, timing Timing, rng *sim.RNG) match.Matcher
	// Relay enables the traffic-aware selective relay extension
	// (Appendix A.2.2, thin-clos only), which lets elephant-flow data take
	// a two-hop path when spare links exist.
	Relay bool
	// Failures optionally injects link failures (§4.3).
	Failures *failure.Plan
	// Seed drives all randomness (ring init, relay candidate rotation).
	Seed int64
	// CheckInvariants enables per-epoch conflict-freedom and byte
	// conservation assertions (used by tests; costs O(N²) per epoch).
	CheckInvariants bool
	// DisableEventSkip forces the run loop to tick every round even when
	// the fabric is provably idle. Results are byte-identical either way
	// (pinned by the golden fingerprints); the knob exists for A/B
	// benchmarks and the skip-equivalence tests.
	DisableEventSkip bool
	// DisableIncremental has no effect: every epoch runs a fresh REQUEST
	// sweep. The field remains only for callers that still set it.
	DisableIncremental bool
	// OnDeliver, when set, observes every payload delivery at its
	// destination (receiver-bandwidth micro-observations).
	OnDeliver func(dst int, at sim.Time, n int64)
	// TrackReceiverBuffers models the receiver-side ToR-to-host buffers of
	// §3.6.5 (the optical fabric can deliver at 2x the host drain rate)
	// and reports their peak occupancy in Results.
	TrackReceiverBuffers bool
	// Workers is the intra-run shard parallelism: the ToRs are split into
	// Workers contiguous shards that execute each epoch's pipeline stages
	// concurrently with barrier-synchronized phases (shard-local request
	// emission → cross-shard mailbox exchange → shard-local matching and
	// transmission → deterministic merge). Results are byte-identical at
	// any value. 0 or 1 means sequential; the count is capped at the ToR
	// count and silently reduced to 1 when a feature that requires global
	// sequential state is enabled (selective relay, receiver-buffer
	// tracking, OnDeliver observation, or a custom matcher that does not
	// implement match.Sharded) — see the core's Workers for the effective
	// value.
	Workers int
}

// tor holds one ToR's control-plane state: scheduling mailboxes, this
// epoch's matches, and the selective-relay plan. Its fixed-width slices
// are rows of the engine's flat arrays (see New and initRelay). The
// data-plane state (VOQs, relay FIFOs, loss records) lives in the shared
// fabric core's Nodes, keyed by the same index.
type tor struct {
	// Pipelined scheduling mailboxes: reqIn[g] holds requests received as
	// a destination, grantIn[g] grants received as a source; g cycles
	// through stageLag generations.
	reqIn   [][]match.Request
	grantIn [][]match.Grant
	matches []int32 // this epoch's scheduled matches, per port
	// hasMatches is false only when matches is all -1: the scheduled
	// phase and the per-epoch clears skip idle ToRs on this one flag, so
	// a sparse epoch costs O(matched ToRs · S) instead of O(N · S). The
	// flag may be conservatively true for an all--1 row; it must never be
	// false for a row holding a match.
	hasMatches bool

	relayPlan []relayPlan // per intermediate: first-hop plan this epoch (selective relay)
	planned   []int32     // intermediates planned last epoch, for O(planned) clearing
}

type relayPlan struct {
	finalDst int32
	quota    int64
}

// Engine is the NegotiaToR control plane over the shared fabric core: it
// decides, per epoch, which pairs connect (ACCEPT → GRANT/REQUEST over
// the pipelined in-band mailboxes) and drives the predefined and
// scheduled transmission phases, while the embedded core owns queues,
// workload, metrics, failure-loss bookkeeping, the round loop and the
// run's Results.
type Engine struct {
	*fabric.Core
	cfg     Config
	top     topo.Topology
	timing  Timing
	n, s    int
	epochLn sim.Duration

	predefSlots int
	stageLag    int
	threshold   int64
	payload     int64 // scheduled-phase payload per slot
	piggyBytes  int64

	tors    []tor // per ToR, by value: take &tors[i]
	matcher match.Matcher
	// arrivals is the matcher's ArrivalTracker, resolved once; nil when
	// the matcher does not count arrivals.
	arrivals match.ArrivalTracker
	// matcherIdleSafe (see match.RequestTraits), resolved once, gates both
	// the event-skip horizon and the O(active) request sweep.
	matcherIdleSafe bool
	// sparseReq: the per-shard REQUEST sweep may iterate the non-empty
	// direct-VOQ occupancy set instead of every source — sound only when
	// skipping a zero-demand source is a matcher no-op and no relay demand
	// hides outside the direct queues.
	sparseReq bool
	batch     match.BatchMatcher // non-nil for batch (iterative) matchers
	future    [][][]int32        // batch path: future[d][src][port], ring by epoch
	// futureTouched[d] lists, ascending, the sources whose future[d] rows
	// the batch Match wrote; all other rows are all -1. batchPrepStep
	// copies and resets only these rows.
	futureTouched [][]int32

	actual, known *failure.State
	relay         *relayState

	// scratch
	reqScratch []match.Request // batch path: stitched request snapshot

	// Sharded epoch execution (see shard.go). The fabric core owns the
	// shard ranges, gang and metric accumulators; each engineShard wraps
	// one core shard with the control-plane context (matcher handle,
	// outboxes, emitters). Cross-shard scheduling messages travel through
	// per-shard outboxes merged in shard order, which reproduces the exact
	// ToR-ascending mailbox order of a sequential epoch.
	shards        []*engineShard
	curEpochStart sim.Time // set serially each epoch, read by phase steps

	// Prebuilt phase-step closures, passed to the core's ParDo so the
	// steady-state epoch performs no heap allocation regardless of worker
	// count.
	stepAccept        func(k int)
	stepEmit          func(k int)
	stepMergeTransmit func(k int)
	stepBatchPrep     func(k int)

	// Allocation-free hot-path views: one per ToR, passed as *torView so
	// the QueueView interface conversion never allocates.
	views  []torView
	curGen int // mailbox generation filled this epoch
}

// New builds an engine. The zero Timing is replaced by DefaultTiming.
func New(cfg Config) (*Engine, error) {
	if cfg.Topology == nil {
		return nil, fmt.Errorf("negotiator: nil topology")
	}
	if cfg.Timing == (Timing{}) {
		cfg.Timing = DefaultTiming()
	}
	if cfg.RequestThresholdPkts == 0 {
		cfg.RequestThresholdPkts = 3
	}
	if err := cfg.Timing.Validate(cfg.Topology); err != nil {
		return nil, err
	}
	if cfg.Relay {
		if _, ok := cfg.Topology.(*topo.ThinClos); !ok {
			return nil, fmt.Errorf("negotiator: selective relay is a thin-clos extension (Appendix A.2.2)")
		}
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
	e.stageLag = e.timing.StageLag(e.predefSlots)
	e.payload = e.timing.DataPayloadBytes()
	e.piggyBytes = e.timing.PiggybackBytes()
	if cfg.Piggyback {
		e.threshold = int64(cfg.RequestThresholdPkts) * e.piggyBytes
	}

	// The engine's randomness stream is shared with the core (the matcher
	// split consumes one draw, exactly as before the core extraction).
	rng := sim.NewRNG(cfg.Seed)
	if cfg.NewMatcher != nil {
		e.matcher = cfg.NewMatcher(e.top, e.timing, rng.Split(1))
	} else {
		e.matcher = match.NewNegotiator(e.top, rng.Split(1))
	}
	e.matcherIdleSafe, _ = match.TraitsOf(e.matcher)
	e.arrivals, _ = e.matcher.(match.ArrivalTracker)
	e.sparseReq = e.matcherIdleSafe && !cfg.Relay
	if b, ok := e.matcher.(match.BatchMatcher); ok {
		e.batch = b
		depth := b.MatchDelay() + 1
		e.future = make([][][]int32, depth)
		rows := make([][]int32, depth*e.n)
		cells := unmatched(depth * e.n * e.s)
		for d := range e.future {
			e.future[d] = row(rows, d, e.n)
			for i := range e.future[d] {
				e.future[d][i] = row(cells, d*e.n+i, e.s)
			}
		}
		e.futureTouched = make([][]int32, depth)
	}

	fab, err := fabric.New(fabric.Config{
		Topology:             cfg.Topology,
		HostRate:             cfg.HostRate,
		Workers:              e.resolveWorkers(),
		RNG:                  rng,
		PriorityQueues:       cfg.PriorityQueues,
		Relay:                cfg.Relay,
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

	// Every ToR's control state comes from four flat arrays: the tor
	// headers, the two mailbox-generation headers and the match rows.
	// Mailboxes start empty and grow on demand, retaining capacity via
	// in[:0]: a ToR's mailbox footprint follows the traffic it actually
	// receives instead of pre-paying n-1 slots per generation (O(N²)
	// across the fabric — at 4096 ToRs that pre-size alone dwarfed the
	// queue slabs). Growth is one-time warm-up; the steady state stays
	// allocation-free.
	e.tors = make([]tor, e.n)
	reqIn := make([][]match.Request, e.n*e.stageLag)
	grantIn := make([][]match.Grant, e.n*e.stageLag)
	matches := unmatched(e.n * e.s)
	for i := range e.tors {
		t := &e.tors[i]
		t.reqIn = row(reqIn, i, e.stageLag)
		t.grantIn = row(grantIn, i, e.stageLag)
		t.matches = row(matches, i, e.s)
	}
	e.initHotPath()
	// The core owns failure state (cursor-advanced at each round start);
	// the engine caches the stable snapshot pointers for its hot paths.
	e.actual = fab.ActualFailures()
	e.known = fab.KnownFailures()
	if cfg.Relay {
		e.initRelay()
	}
	return e, nil
}

// row returns row i of a flat array of w-wide rows, capped at its end so
// that an append cannot run into row i+1.
func row[T any](flat []T, i, w int) []T { return flat[i*w : (i+1)*w : (i+1)*w] }

// unmatched returns n match entries, all -1 (no match).
func unmatched(n int) []int32 {
	m := make([]int32, n)
	for k := range m {
		m[k] = -1
	}
	return m
}

// admit is the core's arrival-admission hook: an injected flow lands in
// the source's per-destination VOQ, and a matcher that counts arrivals
// (the stateful variant) notes its bytes.
func (e *Engine) admit(f *flows.Flow, at sim.Time) {
	e.Nodes[f.Src].Direct.Push(f.Dst, f, f.Total(), 0, at)
	if e.arrivals != nil {
		e.arrivals.Arrived(f.Src, f.Dst, f.Total())
	}
}

// resolveWorkers clamps the configured shard parallelism: never more
// shards than ToRs, and sequential whenever a feature needs globally
// ordered mutation that the sharded phases cannot reproduce — the
// selective relay's cross-ToR queue pushes, the receiver-buffer drain
// model, per-delivery observation callbacks, and custom matchers without
// shard-private scratch (batch matchers are exempt: their Match runs
// serially and their per-ToR Requests step is read-only).
func (e *Engine) resolveWorkers() int {
	w := e.cfg.Workers
	if w < 1 {
		w = 1
	}
	if w > e.n {
		w = e.n
	}
	if e.cfg.Relay || e.cfg.TrackReceiverBuffers || e.cfg.OnDeliver != nil {
		w = 1
	}
	if w > 1 {
		if _, ok := e.matcher.(match.Sharded); !ok {
			w = 1
		}
	}
	return w
}

// initHotPath builds the preallocated per-ToR matcher views and the
// shard execution contexts (see shard.go), including every closure the
// per-epoch path reuses — all per-call context travels through engine and
// shard fields, so the steady-state epoch performs no heap allocation at
// any worker count: closures are built once here, and views are passed by
// pointer to avoid boxing.
func (e *Engine) initHotPath() {
	e.views = make([]torView, e.n)
	for i := range e.views {
		e.views[i] = torView{e: e, i: i}
	}
	e.shards = make([]*engineShard, e.Workers)

	// Matcher handles: the sequential engine uses the matcher directly;
	// parallel shards get scratch-private forks sharing the per-ToR ring
	// state. Batch matchers fork too — only their per-ToR Requests step
	// runs on the handles (Match stays serial on the original), and the
	// built-in batch matchers inherit both Fork and Requests unchanged
	// from the base Negotiator.
	var handles []match.Matcher
	if e.Workers > 1 {
		handles = e.matcher.(match.Sharded).Fork(e.Workers)
	}
	for k := 0; k < e.Workers; k++ {
		fs := e.Shards[k]
		sh := &engineShard{e: e, k: k, lo: fs.Lo, hi: fs.Hi, fs: fs}
		if handles != nil {
			sh.matcher = handles[k]
		} else {
			sh.matcher = e.matcher
		}
		sh.reqOut = make([][]match.Request, e.Workers)
		sh.grantOut = make([][]match.Grant, e.Workers)
		for r := range sh.reqOut {
			sh.reqOut[r] = make([]match.Request, 0, (fs.Hi-fs.Lo)+1)
			sh.grantOut[r] = make([]match.Grant, 0, (fs.Hi-fs.Lo)+1)
		}
		sh.reqPend = make([]fabric.OccSet, e.stageLag)
		sh.grantPend = make([]fabric.OccSet, e.stageLag)
		for g := 0; g < e.stageLag; g++ {
			sh.reqPend[g] = fabric.NewOccSet(fs.Hi - fs.Lo)
			sh.grantPend[g] = fabric.NewOccSet(fs.Hi - fs.Lo)
		}
		sh.matched = fabric.NewOccSet(fs.Hi - fs.Lo)
		sh.initEmitters()
		e.shards[k] = sh
	}

	// Phase-step closures, one per barrier phase, prebuilt so ParDo
	// never constructs a closure per epoch.
	e.stepAccept = func(k int) { e.shards[k].acceptStep() }
	e.stepEmit = func(k int) { e.shards[k].emitStep() }
	e.stepMergeTransmit = func(k int) { e.shards[k].mergeTransmitStep() }
	e.stepBatchPrep = func(k int) { e.shards[k].batchPrepStep() }
}

// Name identifies the control plane.
func (e *Engine) Name() string { return "negotiator" }

// RoundLen implements fabric.ControlPlane: one round is one epoch.
func (e *Engine) RoundLen() sim.Duration { return e.epochLn }

// Round implements fabric.ControlPlane: one epoch through the
// barrier-synchronized shard phases (paper Figure 4 per shard):
//
//	serial   failure bookkeeping, arrival injection
//	phase A  ACCEPT over last epoch's grants (+ known-failure filter)
//	phase B  GRANT + REQUEST emission into per-shard outboxes
//	phase C  cross-shard mailbox exchange (outboxes merged in shard
//	         order, reproducing ToR-ascending arrival order), then the
//	         predefined and scheduled transmission phases shard-locally
//
// The core follows with the deterministic serial merge (ledger deltas,
// tag completions) and the optional invariant checks. The batch
// (iterative) matchers replace A and B with one request-snapshot phase
// and a serial whole-fabric Match.
func (e *Engine) Round() {
	// Failure bookkeeping (snapshot advance, detected-loss requeue) has
	// already run: the core owns it, before any plane's Round.
	epochStart := e.Now()
	e.curEpochStart = epochStart
	e.Inject(epochStart)

	// Mailbox generation g is consumed exactly stageLag epochs after it
	// was filled; with a ring of stageLag slots that is the same slot the
	// current epoch refills, so consumption (phases A/B) precedes
	// production (phase C).
	e.curGen = int(e.Rounds()) % e.stageLag

	if e.relay != nil {
		e.planRelay() // sequential-only feature (workers == 1)
	}

	if e.batch != nil {
		e.batchControl()
		e.ParDo(e.stepMergeTransmit) // outboxes empty: pure transmission
	} else {
		e.controlPhases(e.stepMergeTransmit)
	}
}

// IdleHorizon implements fabric.IdlePlane: with no byte queued anywhere
// (the core's precondition), an epoch still does work only if control
// messages are in flight toward a future generation's mailboxes, a batch
// match is pending in the future ring, the relay extension is planning, or
// the matcher's REQUEST step has per-call side effects even on idle
// sources. When none of those hold, every future epoch is a no-op until
// new bytes arrive — report no self-scheduled work at all.
func (e *Engine) IdleHorizon() sim.Time {
	if e.relay != nil || !e.matcherIdleSafe {
		return e.Now()
	}
	for _, sh := range e.shards {
		if sh.inflight != 0 {
			return e.Now()
		}
	}
	for _, touched := range e.futureTouched {
		if len(touched) != 0 {
			return e.Now()
		}
	}
	return fabric.HorizonInfinite
}

// batchControl runs the batch-matcher control plane: the per-shard
// request snapshot, the shard-order stitch, and the serial whole-fabric
// Match into the future ring.
func (e *Engine) batchControl() {
	e.ParDo(e.stepBatchPrep)
	// The slot batchPrepStep just consumed is spent: its rows are all -1
	// again, so its touched list must read empty — both for the idle
	// horizon below (a stale non-empty list would block event-skip
	// forever) and for the slot's next read, should the ring not be
	// rewritten first.
	spent := int(e.Rounds()) % len(e.future)
	e.futureTouched[spent] = e.futureTouched[spent][:0]
	e.reqScratch = e.reqScratch[:0]
	for _, sh := range e.shards {
		e.reqScratch = append(e.reqScratch, sh.reqScratch...)
	}
	target := (int(e.Rounds()) + e.batch.MatchDelay()) % len(e.future)
	var stats match.BatchStats
	touched := e.batch.Match(e.reqScratch, e.future[target], &stats)
	// Keep a sorted private copy: the matcher's list is scratch reused by
	// the next Match, and batchPrepStep's shards merge-join it against
	// their ascending ToR ranges MatchDelay epochs from now.
	e.futureTouched[target] = append(e.futureTouched[target][:0], touched...)
	slices.Sort(e.futureTouched[target])
	e.MatchRatio.Observe(stats.Accepts, stats.Grants)
}

// controlPhases runs the non-batch control plane — phases A (ACCEPT) and
// B (GRANT/REQUEST emission), the given phase-C step (mailbox exchange,
// with or without transmission) — then folds the per-shard accept/grant
// counters into the match ratio.
func (e *Engine) controlPhases(phaseC func(k int)) {
	e.ParDo(e.stepAccept)
	e.ParDo(e.stepEmit)
	e.ParDo(phaseC)
	var accepts, grants int64
	for _, sh := range e.shards {
		accepts += sh.accepts
		grants += sh.grants
		sh.accepts, sh.grants = 0, 0
	}
	e.MatchRatio.Observe(accepts, grants)
}

// CheckRound implements fabric.RoundChecker, invoked under
// CheckInvariants after the core's conservation and occupancy checks: the
// epoch's matches must be conflict-free and reachable, and the shard
// occupancy indexes must mirror their shadow state exactly.
func (e *Engine) CheckRound() {
	rx := make(map[[2]int32]int32)
	for i := range e.tors {
		t := &e.tors[i]
		for p, dj := range t.matches {
			if dj < 0 {
				continue
			}
			key := [2]int32{dj, int32(p)}
			if prev, ok := rx[key]; ok {
				panic(fmt.Sprintf("negotiator: conflict: dst %d port %d matched by %d and %d", dj, p, prev, i))
			}
			rx[key] = int32(i)
			if !e.top.CanReach(i, p, int(dj)) {
				panic(fmt.Sprintf("negotiator: unreachable match %d-(%d)->%d", i, p, dj))
			}
		}
	}
	// The shard occupancy indexes must mirror their shadow state exactly:
	// the phase walks trust them to visit every ToR with pending mail or
	// a live match row, so a stale bit either repeats work or silently
	// strands a mailbox.
	for _, sh := range e.shards {
		for i := sh.lo; i < sh.hi; i++ {
			t := &e.tors[i]
			if sh.matched.Has(i-sh.lo) != t.hasMatches {
				panic(fmt.Sprintf("negotiator: shard %d matched[%d] = %v, hasMatches = %v", sh.k, i, sh.matched.Has(i-sh.lo), t.hasMatches))
			}
			for g := 0; g < e.stageLag; g++ {
				if sh.reqPend[g].Has(i-sh.lo) != (len(t.reqIn[g]) > 0) {
					panic(fmt.Sprintf("negotiator: shard %d reqPend[%d][%d] = %v, mailbox holds %d", sh.k, g, i, sh.reqPend[g].Has(i-sh.lo), len(t.reqIn[g])))
				}
				if sh.grantPend[g].Has(i-sh.lo) != (len(t.grantIn[g]) > 0) {
					panic(fmt.Sprintf("negotiator: shard %d grantPend[%d][%d] = %v, mailbox holds %d", sh.k, g, i, sh.grantPend[g].Has(i-sh.lo), len(t.grantIn[g])))
				}
			}
		}
	}
}

// Compile-time interface checks.
var (
	_ fabric.ControlPlane = (*Engine)(nil)
	_ fabric.RoundChecker = (*Engine)(nil)
	_ fabric.IdlePlane    = (*Engine)(nil)
)
