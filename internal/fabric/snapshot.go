package fabric

import (
	"fmt"
	"io"
	"math"
	"sort"

	"negotiator/internal/failure"
	"negotiator/internal/flows"
	"negotiator/internal/queue"
	"negotiator/internal/sim"
	"negotiator/internal/snap"
	"negotiator/internal/workload"
)

// StatefulPlane is the per-plane checkpoint hook: a control plane that
// carries state across rounds (match rings, mailboxes, spray/relay
// counters) serializes it here, and the core embeds the payload in its
// snapshot stream. Planes without the hook cannot be checkpointed.
type StatefulPlane interface {
	ControlPlane
	// PlaneState serializes the plane's persistent cross-round state.
	// Called only at a round boundary. An error (e.g. a scheduler policy
	// that does not support snapshots) aborts the checkpoint.
	PlaneState() ([]byte, error)
	// RestorePlaneState applies state captured by PlaneState to a freshly
	// constructed plane of the same configuration.
	RestorePlaneState(data []byte) error
}

// Section tags of the core snapshot stream (see internal/snap for the
// container format and the versioning policy).
const (
	secCore  = "CORE" // identity, clock, counters, pump, ledger, RNG
	secTags  = "TAGS" // tagged-event accounting
	secMetr  = "METR" // merged FCT samples, goodput, match ratio, receiver buffers
	secFail  = "FAIL" // failure cursor positions (only with a plan)
	secFlows = "FLOW" // live flow records
	secGrps  = "GRPS" // flow-group member counts (only when grouping is live)
	secNode  = "NODE" // one per node with queued segments or loss records
	secPlane = "PLNE" // the control plane's StatefulPlane payload
)

// Snapshot serializes the core's complete simulation state at a round
// boundary: clock and counters, the workload pump position, ledger and
// tag accounting, merged metrics, failure cursor positions, every live
// flow, every node's queued segments verbatim, and the control plane's
// own state. The stream is versioned and CRC-guarded (internal/snap).
//
// What is NOT captured: configuration. A snapshot is a resume token — the
// restoring process must rebuild the identical spec (topology, scheduler,
// failure plan, worker count is free to differ) and attach an identically
// constructed workload generator before Restore.
func (c *Core) Snapshot(w io.Writer) error {
	sp, ok := c.plane.(StatefulPlane)
	if !ok {
		return fmt.Errorf("fabric: control plane %q does not support checkpoints", c.plane.Name())
	}
	sw := snap.NewWriter(w)

	var e snap.Enc
	e.Str(c.plane.Name())
	e.Int(c.N)
	e.Int(c.S)
	e.I64(int64(c.roundLen))
	e.I64(int64(c.now))
	e.I64(c.rounds)
	e.I64(c.skippedRounds)
	e.I64(c.flowSeq)
	e.I64(c.nextCalls)
	e.Bool(c.genDone)
	e.Bool(c.havePending)
	if c.havePending {
		encodeArrival(&e, c.pending)
	}
	e.I64(c.Ledger.Injected)
	e.I64(c.Ledger.Delivered)
	e.I64(c.Ledger.Lost)
	e.I64(c.Lost)
	e.I64(c.requeued)
	e.I64(c.pendingLosses)
	for _, word := range c.RNG.State() {
		e.U64(word)
	}
	sw.Section(secCore, e.Bytes())

	sw.Section(secTags, c.encodeTags())
	sw.Section(secMetr, c.encodeMetrics())
	if c.failPlan != nil {
		var f snap.Enc
		f.I64(int64(c.actualCur.Now()))
		f.I64(int64(c.knownCur.Now()))
		sw.Section(secFail, f.Bytes())
	}
	live := c.liveFlows()
	sw.Section(secFlows, encodeFlows(live))
	if payload := encodeGroups(live, c.pending, c.havePending); payload != nil {
		sw.Section(secGrps, payload)
	}
	for i := range c.Nodes {
		if payload := c.Nodes[i].encodeState(i); payload != nil {
			sw.Section(secNode, payload)
		}
	}
	planeState, err := sp.PlaneState()
	if err != nil {
		return err
	}
	sw.Section(secPlane, planeState)
	return sw.Close()
}

// Restore applies a snapshot to a freshly built core. The caller must
// have Bound the same control plane configuration and attached an
// identically constructed workload generator (SetWorkload) first; Restore
// replays the generator to the checkpointed position. The stream and
// every section but NODE decode and validate before any core state
// mutates, and the plane state applies before the core's own, so only a
// bad NODE payload, or applied state that fails the final checks, is
// caught after the core has changed; any other corrupt, truncated or
// mismatched checkpoint leaves the core untouched. A plane payload that
// fails partway may leave the plane's own state changed. A failure past
// the workload replay has drawn the attached generator, which must be
// attached afresh before a retry. The final checks re-verify the rebuilt
// derived indexes and byte conservation (the CheckOccupancy and
// CheckConservation invariants) and return a violation as an error.
func (c *Core) Restore(r io.Reader) error {
	sp, ok := c.plane.(StatefulPlane)
	if !ok {
		return fmt.Errorf("fabric: control plane %q does not support checkpoints", c.plane.Name())
	}
	if c.now != 0 || c.rounds != 0 || c.Ledger.Injected != 0 {
		return fmt.Errorf("fabric: restore target must be a freshly built core (now=%v rounds=%d injected=%d)",
			c.now, c.rounds, c.Ledger.Injected)
	}
	s, err := snap.Load(r)
	if err != nil {
		return err
	}

	// Decode and validate everything read-only first; mutation starts only
	// after the checkpoint has proven structurally sound and compatible.
	core, err := c.decodeCore(s)
	if err != nil {
		return err
	}
	failSec, haveFail := s.Section(secFail)
	if haveFail != (c.failPlan != nil) {
		return fmt.Errorf("fabric: checkpoint failure-plan presence (%v) does not match core configuration (%v)",
			haveFail, c.failPlan != nil)
	}
	var aNow, kNow sim.Time
	if haveFail {
		if aNow, kNow, err = c.decodeFail(failSec, core.now); err != nil {
			return err
		}
	}
	// Flow-group counts must be in hand before flow records decode (the
	// progress bounds check is against the group's TOTAL bytes) and before
	// the workload replays (the buffered pending arrival is compared
	// including its count). An absent section means an ungrouped run — every
	// pre-group checkpoint restores as all-singles.
	var groups map[int64]int32
	if grpSec, ok := s.Section(secGrps); ok {
		var pendCount int32
		groups, pendCount, err = decodeGroups(grpSec)
		if err != nil {
			return err
		}
		if pendCount > 1 {
			if !core.havePending {
				return fmt.Errorf("fabric: checkpoint carries a pending-arrival group count without a pending arrival")
			}
			core.pending.Count = pendCount
		}
	}
	// Tags decode before flow records: a tagged flow must name an entry
	// of the table its completion will update.
	var tags map[int]*TagStat
	if sec, ok := s.Section(secTags); ok {
		if tags, err = decodeTags(sec); err != nil {
			return err
		}
	}
	flowSec, ok := s.Section(secFlows)
	if !ok {
		return fmt.Errorf("fabric: checkpoint missing %s section", secFlows)
	}
	byID, err := decodeFlows(flowSec, c.N, core.flowSeq, groups, tags)
	if err != nil {
		return err
	}
	applyMetrics := func() {}
	if sec, ok := s.Section(secMetr); ok {
		if applyMetrics, err = c.decodeMetrics(sec); err != nil {
			return err
		}
	}
	planeSec, ok := s.Section(secPlane)
	if !ok {
		return fmt.Errorf("fabric: checkpoint missing %s section", secPlane)
	}

	// Replay the workload pump to the checkpointed position before touching
	// anything else: a replay mismatch (wrong generator attached) must not
	// leave a half-restored core.
	if err := c.replayWorkload(core); err != nil {
		return err
	}
	// The plane's state is its own (no core field feeds it), so it applies
	// before the core's: a plane payload that fails to decode leaves the
	// core untouched.
	if err := sp.RestorePlaneState(planeSec); err != nil {
		return err
	}

	c.now = core.now
	c.rounds = core.rounds
	c.skippedRounds = core.skippedRounds
	c.flowSeq = core.flowSeq
	c.pending, c.havePending, c.genDone = core.pending, core.havePending, core.genDone
	c.nextCalls = core.nextCalls
	c.Ledger = core.ledger
	c.Lost = core.lost
	c.requeued = core.requeued
	c.pendingLosses = core.pendingLosses
	c.RNG.SetState(core.rng)

	for k, ts := range tags {
		c.Tags[k] = ts
	}
	applyMetrics()
	for _, payload := range s.Sections(secNode) {
		if err := c.decodeNode(payload, byID); err != nil {
			return err
		}
	}
	if err := c.checkFlowBytes(byID); err != nil {
		return err
	}
	// Cursors are pure functions of (plan, time): advancing the fresh
	// cursors to the checkpointed positions replays the exact transition
	// prefix, reproducing dense state, reference counts and the applied
	// index — mid-cycle flapping state included.
	if haveFail && aNow != failure.NeverAdvanced {
		c.actualCur.AdvanceTo(aNow)
		c.knownCur.AdvanceTo(kNow)
	}

	// The rebuilt derived state must satisfy the same invariants a live run
	// maintains: queued bytes a payload added or dropped break the ledger
	// identity even without a failure plan.
	if err := c.verifyOccupancy(); err != nil {
		return err
	}
	return c.verifyConservation()
}

// coreState is the decoded CORE section.
type coreState struct {
	now           sim.Time
	rounds        int64
	skippedRounds int64
	flowSeq       int64
	nextCalls     int64
	genDone       bool
	havePending   bool
	pending       workload.Arrival
	ledger        flows.Ledger
	lost          int64
	requeued      int64
	pendingLosses int64
	rng           [4]uint64
}

func (c *Core) decodeCore(s *snap.Snapshot) (*coreState, error) {
	payload, ok := s.Section(secCore)
	if !ok {
		return nil, fmt.Errorf("fabric: checkpoint missing %s section", secCore)
	}
	d := snap.NewDec(payload)
	if name := d.Str(); name != c.plane.Name() {
		return nil, fmt.Errorf("fabric: checkpoint was taken on control plane %q, core runs %q", name, c.plane.Name())
	}
	if n, ports := d.Int(), d.Int(); n != c.N || ports != c.S {
		return nil, fmt.Errorf("fabric: checkpoint topology %dx%d does not match core %dx%d", n, ports, c.N, c.S)
	}
	if rl := sim.Duration(d.I64()); rl != c.roundLen {
		return nil, fmt.Errorf("fabric: checkpoint round length %v does not match core %v", rl, c.roundLen)
	}
	st := &coreState{}
	st.now = sim.Time(d.I64())
	st.rounds = d.I64()
	st.skippedRounds = d.I64()
	st.flowSeq = d.I64()
	st.nextCalls = d.I64()
	st.genDone = d.Bool()
	st.havePending = d.Bool()
	if st.havePending {
		st.pending = decodeArrival(d)
	}
	st.ledger.Injected = d.I64()
	st.ledger.Delivered = d.I64()
	st.ledger.Lost = d.I64()
	st.lost = d.I64()
	st.requeued = d.I64()
	st.pendingLosses = d.I64()
	for i := range st.rng {
		st.rng[i] = d.U64()
	}
	if err := d.Finish(); err != nil {
		return nil, err
	}
	if err := st.checkClock(c.roundLen); err != nil {
		return nil, err
	}
	return st, nil
}

// checkClock holds the decoded clock and pump to what a run leaves at a
// round boundary: now is rounds whole rounds, skipped ones among them; a
// pump that has drawn buffers an arrival (the last draw, which the replay
// checks) or is exhausted; and the buffered arrival lies after the last
// round's start, up to which that round injected. A clock edited ahead of
// its rounds would have the first restored round inject every arrival up
// to it at once.
func (st *coreState) checkClock(roundLen sim.Duration) error {
	rl := int64(roundLen)
	switch {
	case st.rounds < 0 || st.skippedRounds < 0 || st.skippedRounds > st.rounds:
		return fmt.Errorf("fabric: checkpoint counts %d rounds, %d of them skipped", st.rounds, st.skippedRounds)
	case st.rounds > math.MaxInt64/rl || int64(st.now) != st.rounds*rl:
		return fmt.Errorf("fabric: checkpoint clock %d ns is not %d rounds of %v", int64(st.now), st.rounds, roundLen)
	case st.nextCalls < 0 || st.havePending && (st.genDone || st.nextCalls == 0) ||
		!st.genDone && !st.havePending && st.nextCalls != 0:
		return fmt.Errorf("fabric: checkpoint pump state (draws %d, buffered %v, exhausted %v) is not one a run leaves",
			st.nextCalls, st.havePending, st.genDone)
	case st.havePending && int64(st.pending.Time) <= int64(st.now)-rl:
		return fmt.Errorf("fabric: checkpoint buffers an arrival at %d ns, before the last round started (%d ns)",
			int64(st.pending.Time), int64(st.now)-rl)
	}
	return nil
}

// decodeFail decodes the failure cursor positions and holds them to what
// a run leaves: unadvanced, or the actual cursor at a round start before
// now and the known one the detection delay behind (the next round would
// move a cursor ahead of the clock backwards).
func (c *Core) decodeFail(payload []byte, now sim.Time) (aNow, kNow sim.Time, err error) {
	d := snap.NewDec(payload)
	aNow, kNow = sim.Time(d.I64()), sim.Time(d.I64())
	rl := int64(c.roundLen)
	never := aNow == failure.NeverAdvanced && kNow == failure.NeverAdvanced
	if err = d.Finish(); err == nil && !never && (aNow < 0 || int64(aNow) > int64(now)-rl ||
		int64(aNow)%rl != 0 || kNow != aNow.Add(-c.failPlan.DetectDelay)) {
		err = fmt.Errorf("fabric: checkpoint failure cursors at %d and %d ns are not a round start before %d ns and its detection lag",
			int64(aNow), int64(kNow), int64(now))
	}
	return aNow, kNow, err
}

// replayWorkload pulls the generator forward to the checkpointed pump
// position and cross-checks the final draw against the serialized pending
// arrival — catching a restore with the wrong (or wrongly seeded)
// generator attached — and every earlier draw against the clock.
func (c *Core) replayWorkload(st *coreState) error {
	if st.nextCalls == 0 {
		return nil
	}
	if c.work == nil {
		return fmt.Errorf("fabric: restore requires the original workload attached via SetWorkload (checkpoint had drawn %d arrivals)", st.nextCalls)
	}
	var (
		last   workload.Arrival
		lastOK bool
	)
	// A round starting at or before now - roundLen injected every draw but
	// the last, which bounds a corrupt count by the arrivals it covers.
	injected := st.now.Add(-c.roundLen)
	for i := int64(0); i < st.nextCalls; i++ {
		last, lastOK = c.work.Next()
		if i == st.nextCalls-1 {
			break
		}
		if !lastOK {
			return fmt.Errorf("fabric: workload exhausted after %d of %d checkpointed draws: wrong generator attached", i+1, st.nextCalls)
		}
		if last.Time > injected {
			return fmt.Errorf("fabric: workload draw %d of %d arrives at %d ns, after the last round started (%d ns): the checkpoint counts more draws than the run made",
				i+1, st.nextCalls, int64(last.Time), int64(injected))
		}
	}
	switch {
	case st.havePending:
		if !lastOK || last != st.pending {
			return fmt.Errorf("fabric: workload replay diverges from checkpoint (got %+v ok=%v, want buffered %+v): wrong generator attached",
				last, lastOK, st.pending)
		}
	case st.genDone:
		if lastOK {
			return fmt.Errorf("fabric: workload replay yields arrivals past the checkpointed end: wrong generator attached")
		}
	}
	return nil
}

func encodeArrival(e *snap.Enc, a workload.Arrival) {
	e.I64(int64(a.Time))
	e.Int(a.Src)
	e.Int(a.Dst)
	e.I64(a.Size)
	e.Int(a.Tag)
}

func decodeArrival(d *snap.Dec) workload.Arrival {
	return workload.Arrival{
		Time: sim.Time(d.I64()),
		Src:  d.Int(),
		Dst:  d.Int(),
		Size: d.I64(),
		Tag:  d.Int(),
	}
}

func (c *Core) encodeTags() []byte {
	keys := make([]int, 0, len(c.Tags))
	for k := range c.Tags {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	var e snap.Enc
	e.U32(uint32(len(keys)))
	for _, k := range keys {
		ts := c.Tags[k]
		e.Int(k)
		e.I64(int64(ts.Start))
		e.I64(int64(ts.End))
		e.Int(ts.Flows)
		e.Int(ts.Done)
	}
	return e.Bytes()
}

// decodeTags decodes the tagged-event table; Restore installs it only once
// every read-only check has passed.
func decodeTags(payload []byte) (map[int]*TagStat, error) {
	d := snap.NewDec(payload)
	n := d.Count(40) // key + start + end + flows + done
	tags := make(map[int]*TagStat, n)
	for i := 0; i < n; i++ {
		k := d.Int()
		ts := &TagStat{
			Start: sim.Time(d.I64()),
			End:   sim.Time(d.I64()),
			Flows: d.Int(),
			Done:  d.Int(),
		}
		tags[k] = ts
	}
	return tags, d.Finish()
}

// encodeMetrics captures the MERGED per-shard accumulators. Restore
// concentrates them into shard 0: shard merges are commutative sums and
// every FCT order statistic is a function of the sample multiset, not of
// its order, so queried results are identical at any worker count on
// either side of the checkpoint. The samples are written in recording
// order, shard by shard, never in the sorted order a mice query built.
func (c *Core) encodeMetrics() []byte {
	var e snap.Enc
	fct := c.MergedFCT()
	all, mice := fct.Samples()
	e.U32(uint32(fct.Count()))
	for v := range all {
		e.I64(int64(v))
	}
	e.U32(uint32(fct.MiceCount()))
	for v := range mice {
		e.I64(int64(v))
	}
	perToR := c.MergedGoodput().PerToR()
	var cnt uint32
	for _, b := range perToR {
		if b != 0 {
			cnt++
		}
	}
	e.U32(cnt)
	for dst, b := range perToR {
		if b != 0 {
			e.U32(uint32(dst))
			e.I64(b)
		}
	}
	num, den := c.MatchRatio.Counts()
	e.U32(uint32(len(num)))
	for i := range num {
		e.I64(num[i])
		e.I64(den[i])
	}
	e.Bool(c.RxBuffers != nil)
	if c.RxBuffers != nil {
		var rx uint32
		for _, b := range c.RxBuffers {
			if last, backlog, peak := b.State(); last != 0 || backlog != 0 || peak != 0 {
				rx++
			}
		}
		e.U32(rx)
		for dst, b := range c.RxBuffers {
			if last, backlog, peak := b.State(); last != 0 || backlog != 0 || peak != 0 {
				e.U32(uint32(dst))
				e.I64(int64(last))
				e.I64(backlog)
				e.I64(peak)
			}
		}
	}
	return e.Bytes()
}

// decodeMetrics decodes and validates the merged metrics and returns the
// step that installs them, which Restore runs only once every read-only
// check has passed.
func (c *Core) decodeMetrics(payload []byte) (apply func(), err error) {
	d := snap.NewDec(payload)
	all := make([]sim.Duration, d.Count(8))
	for i := range all {
		all[i] = sim.Duration(d.I64())
	}
	mice := make([]sim.Duration, d.Count(8))
	for i := range mice {
		mice[i] = sim.Duration(d.I64())
	}
	perToR := make([]int64, c.N)
	gn := int(d.U32())
	for i := 0; i < gn; i++ {
		dst := int(d.U32())
		v := d.I64()
		if d.Err() != nil {
			break
		}
		if dst < 0 || dst >= c.N {
			return nil, fmt.Errorf("fabric: checkpoint goodput destination %d out of range", dst)
		}
		perToR[dst] = v
	}
	num := make([]int64, d.Count(16)) // one numerator and one denominator per epoch
	den := make([]int64, len(num))
	for i := range num {
		num[i], den[i] = d.I64(), d.I64()
	}
	haveRx := d.Bool()
	if haveRx != (c.RxBuffers != nil) {
		return nil, fmt.Errorf("fabric: checkpoint receiver-buffer presence (%v) does not match core configuration (%v)",
			haveRx, c.RxBuffers != nil)
	}
	type rxState struct {
		dst           int
		last          sim.Time
		backlog, peak int64
	}
	var rx []rxState
	if haveRx {
		rn := int(d.U32())
		for i := 0; i < rn; i++ {
			dst := int(d.U32())
			last, backlog, peak := sim.Time(d.I64()), d.I64(), d.I64()
			if d.Err() != nil {
				break
			}
			if dst < 0 || dst >= c.N {
				return nil, fmt.Errorf("fabric: checkpoint receiver buffer %d out of range", dst)
			}
			rx = append(rx, rxState{dst, last, backlog, peak})
		}
	}
	if err := d.Finish(); err != nil {
		return nil, err
	}
	return func() {
		for _, r := range rx {
			c.RxBuffers[r.dst].RestoreState(r.last, r.backlog, r.peak)
		}
		c.Shards[0].FCT.RestoreSamples(all, mice)
		c.fct = nil
		c.Shards[0].Goodput.RestorePerToR(perToR)
		c.MatchRatio.RestoreCounts(num, den)
	}, nil
}

// Where a node holds a flow's bytes (see eachHeld).
const (
	heldSource = iota // a direct or lane queue
	heldRelay         // a relay queue
	heldLost          // a loss record awaiting requeue
)

// eachHeld calls fn for every queued segment and outstanding loss record
// of every node, with where the node holds its bytes.
func (c *Core) eachHeld(fn func(f *flows.Flow, where int, n int64)) {
	for i := range c.Nodes {
		nd := &c.Nodes[i]
		for _, cls := range [2]*QueueClass{&nd.Direct, &nd.Lanes} {
			cls.Slab.ForEachPage(func(_, _ int, qs []queue.DestQueue, _ int64) {
				for j := range qs {
					qs[j].ForEachSegment(func(_ int, s queue.Segment) { fn(s.Flow, heldSource, s.Bytes) })
				}
			})
		}
		nd.Relay.Slab.ForEachPage(func(_, _ int, fs []queue.FIFO, _ int64) {
			for j := range fs {
				fs[j].ForEachSegment(func(s queue.Segment) { fn(s.Flow, heldRelay, s.Bytes) })
			}
		})
		for _, l := range nd.Losses {
			fn(l.F, heldLost, l.N)
		}
	}
}

// liveFlows collects every flow still referenced by the fabric — queued
// segments of all three classes plus outstanding loss records. Completed
// flows survive only as metric samples and are not serialized.
func (c *Core) liveFlows() []*flows.Flow {
	byID := make(map[int64]*flows.Flow)
	c.eachHeld(func(f *flows.Flow, _ int, _ int64) {
		if f != nil {
			byID[f.ID] = f
		}
	})
	out := make([]*flows.Flow, 0, len(byID))
	for _, f := range byID {
		out = append(out, f)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

func encodeFlows(live []*flows.Flow) []byte {
	var e snap.Enc
	e.U32(uint32(len(live)))
	for _, f := range live {
		e.I64(f.ID)
		e.Int(f.Src)
		e.Int(f.Dst)
		e.I64(f.Size)
		e.I64(int64(f.Arrival))
		e.Int(f.Tag)
		e.I64(f.Sent())
		e.I64(f.Delivered())
	}
	return e.Bytes()
}

// decodeFlows decodes the live flow records, rejecting any the fabric of
// n ToRs could not carry: an ID outside the issued range or repeated, a
// source or destination off the fabric (a relay push or requeue would
// index out of range), a nonzero tag with no entry in tags (its
// completion would update a missing tag), or progress beyond the flow's
// bytes.
func decodeFlows(payload []byte, n int, flowSeq int64, groups map[int64]int32, tags map[int]*TagStat) (map[int64]*flows.Flow, error) {
	d := snap.NewDec(payload)
	count := d.Count(64) // eight 8-byte fields per flow record
	byID := make(map[int64]*flows.Flow, count)
	for i := 0; i < count; i++ {
		f := &flows.Flow{
			ID:      d.I64(),
			Src:     d.Int(),
			Dst:     d.Int(),
			Size:    d.I64(),
			Arrival: sim.Time(d.I64()),
			Tag:     d.Int(),
		}
		sent, delivered := d.I64(), d.I64()
		if err := d.Err(); err != nil {
			return nil, err
		}
		if f.ID <= 0 || f.ID > flowSeq {
			return nil, fmt.Errorf("fabric: checkpoint flow ID %d outside issued range [1, %d]", f.ID, flowSeq)
		}
		if _, dup := byID[f.ID]; dup {
			return nil, fmt.Errorf("fabric: checkpoint flow ID %d duplicated", f.ID)
		}
		if f.Src < 0 || f.Src >= n || f.Dst < 0 || f.Dst >= n {
			return nil, fmt.Errorf("fabric: checkpoint flow %d runs %d -> %d, outside the fabric's %d ToRs", f.ID, f.Src, f.Dst, n)
		}
		if _, ok := tags[f.Tag]; f.Tag != 0 && !ok {
			return nil, fmt.Errorf("fabric: checkpoint flow %d carries tag %d, which the tag table does not list", f.ID, f.Tag)
		}
		// The member count must be applied before progress restores: the
		// bounds check is against the group's total bytes, not one member's.
		if k, ok := groups[f.ID]; ok {
			f.Count = k
		}
		if err := f.RestoreProgress(sent, delivered); err != nil {
			return nil, err
		}
		byID[f.ID] = f
	}
	for id := range groups {
		if _, ok := byID[id]; !ok {
			return nil, fmt.Errorf("fabric: checkpoint flow-group count references unknown flow %d", id)
		}
	}
	return byID, d.Finish()
}

// encodeGroups captures flow-group member counts — the one piece of live
// flow state encodeFlows predates — plus the buffered pending arrival's
// count. The section is written only when grouping is actually live (some
// count above 1), so ungrouped runs produce snapshot streams byte-identical
// to pre-group builds, and checkpoints from those builds restore here as
// all-singles.
func encodeGroups(live []*flows.Flow, pending workload.Arrival, havePending bool) []byte {
	var pendCount int32
	if havePending && pending.Count > 1 {
		pendCount = pending.Count
	}
	var grouped uint32
	for _, f := range live {
		if f.Count > 1 {
			grouped++
		}
	}
	if pendCount == 0 && grouped == 0 {
		return nil
	}
	var e snap.Enc
	e.U32(uint32(pendCount))
	e.U32(grouped)
	for _, f := range live {
		if f.Count > 1 {
			e.I64(f.ID)
			e.U32(uint32(f.Count))
		}
	}
	return e.Bytes()
}

func decodeGroups(payload []byte) (map[int64]int32, int32, error) {
	d := snap.NewDec(payload)
	pendCount := int32(d.U32())
	n := d.Count(12) // flow ID + member count
	counts := make(map[int64]int32, n)
	for i := 0; i < n; i++ {
		id := d.I64()
		k := int32(d.U32())
		if d.Err() != nil {
			break
		}
		if k < 2 {
			return nil, 0, fmt.Errorf("fabric: checkpoint flow-group count %d for flow %d below 2", k, id)
		}
		if _, dup := counts[id]; dup {
			return nil, 0, fmt.Errorf("fabric: checkpoint flow-group count for flow %d duplicated", id)
		}
		counts[id] = k
	}
	return counts, pendCount, d.Finish()
}

// encodeState serializes one node's loss records and queued segments, or
// nil when it holds none. Segments are recorded verbatim (class,
// destination, priority level, flow, bytes, enqueue time) in service
// order; restore re-pushes them through the class choke points, which
// maintain the same aggregate/index bookkeeping as the live push paths —
// that is how the derived occupancy state is rebuilt rather than
// serialized.
func (nd *Node) encodeState(idx int) []byte {
	hasSegs := nd.Direct.Total > 0 || nd.Lanes.Total > 0 || nd.Relay.Total > 0
	if len(nd.Losses) == 0 && !hasSegs {
		return nil
	}
	var e snap.Enc
	e.Int(idx)
	e.U32(uint32(len(nd.Losses)))
	for _, l := range nd.Losses {
		e.I64(l.F.ID)
		e.U32(uint32(l.Dst))
		e.I64(l.Off)
		e.I64(l.N)
		e.I64(int64(l.At))
		e.U8(uint8(l.Class))
		e.U32(uint32(l.Via))
	}
	encodeDestSlab(&e, &nd.Direct.Slab)
	encodeDestSlab(&e, &nd.Lanes.Slab)
	var relayCnt uint32
	nd.Relay.Slab.ForEachPage(func(_, base int, fs []queue.FIFO, _ int64) {
		for j := range fs {
			relayCnt += uint32(fs[j].Len())
		}
	})
	e.U32(relayCnt)
	nd.Relay.Slab.ForEachPage(func(_, base int, fs []queue.FIFO, _ int64) {
		for j := range fs {
			dst := base + j
			fs[j].ForEachSegment(func(s queue.Segment) {
				e.U32(uint32(dst))
				e.I64(s.Flow.ID)
				e.I64(s.Bytes)
				e.I64(int64(s.Enqueued))
			})
		}
	})
	return e.Bytes()
}

func encodeDestSlab(e *snap.Enc, slab *queue.DestSlab) {
	var cnt uint32
	slab.ForEachPage(func(_, _ int, qs []queue.DestQueue, _ int64) {
		for j := range qs {
			qs[j].ForEachSegment(func(int, queue.Segment) { cnt++ })
		}
	})
	e.U32(cnt)
	slab.ForEachPage(func(_, base int, qs []queue.DestQueue, _ int64) {
		for j := range qs {
			dst := base + j
			qs[j].ForEachSegment(func(prio int, s queue.Segment) {
				e.U32(uint32(dst))
				e.U8(uint8(prio))
				e.I64(s.Flow.ID)
				e.I64(s.Bytes)
				e.I64(int64(s.Enqueued))
			})
		}
	})
}

func (c *Core) decodeNode(payload []byte, byID map[int64]*flows.Flow) error {
	d := snap.NewDec(payload)
	idx := d.Int()
	if err := d.Err(); err != nil {
		return err
	}
	if idx < 0 || idx >= c.N {
		return fmt.Errorf("fabric: checkpoint node index %d out of range", idx)
	}
	nd := &c.Nodes[idx]
	losses := int(d.U32())
	for i := 0; i < losses; i++ {
		id := d.I64()
		l := Loss{
			Dst:   int(d.U32()),
			Off:   d.I64(),
			N:     d.I64(),
			At:    sim.Time(d.I64()),
			Class: RequeueClass(d.U8()),
			Via:   int32(d.U32()),
		}
		if d.Err() != nil {
			break
		}
		f, ok := byID[id]
		if !ok {
			return fmt.Errorf("fabric: checkpoint node %d loss references unknown flow %d", idx, id)
		}
		l.F = f
		if err := nd.checkLoss(l); err != nil {
			return fmt.Errorf("fabric: checkpoint node %d loss of flow %d: %w", idx, id, err)
		}
		nd.Losses = append(nd.Losses, l)
	}
	if err := c.decodeDestSlabSegs(d, &nd.Direct, byID, idx); err != nil {
		return err
	}
	if err := c.decodeDestSlabSegs(d, &nd.Lanes, byID, idx); err != nil {
		return err
	}
	relays := int(d.U32())
	for i := 0; i < relays; i++ {
		dst := int(d.U32())
		id := d.I64()
		s := queue.Segment{Bytes: d.I64(), Enqueued: sim.Time(d.I64())}
		if d.Err() != nil {
			break
		}
		f, ok := byID[id]
		if !ok {
			return fmt.Errorf("fabric: checkpoint node %d relay segment references unknown flow %d", idx, id)
		}
		if dst < 0 || dst >= c.N || s.Bytes <= 0 {
			return fmt.Errorf("fabric: checkpoint node %d relay segment invalid (dst=%d bytes=%d)", idx, dst, s.Bytes)
		}
		if !nd.spec.relay {
			return fmt.Errorf("fabric: checkpoint node %d carries relay data the core does not configure", idx)
		}
		s.Flow = f
		nd.Relay.Push(dst, s)
	}
	return d.Finish()
}

// FirstHopSender is implemented by control planes that count a relayed
// byte as sent when it leaves its source; on other planes it counts as
// sent at its last hop. Restore checks each flow's sent cursor by it.
type FirstHopSender interface {
	SendsAtFirstHop()
}

// checkFlowBytes holds every restored flow to a run's byte accounting:
// each byte is queued, destroyed awaiting requeue, or delivered, and the
// sent cursor counts the delivered and destroyed ones (and the relayed
// ones on a FirstHopSender), or the flow overshoots once its queues drain.
func (c *Core) checkFlowBytes(byID map[int64]*flows.Flow) error {
	held := make(map[*flows.Flow][3]int64, len(byID))
	c.eachHeld(func(f *flows.Flow, where int, n int64) {
		h := held[f]
		h[where] += n
		held[f] = h
	})
	_, firstHop := c.plane.(FirstHopSender)
	for _, f := range byID {
		h := held[f]
		sent := f.Delivered() + h[heldLost]
		if firstHop {
			sent += h[heldRelay]
		}
		if f.Total() != h[heldSource]+h[heldRelay]+h[heldLost]+f.Delivered() || f.Sent() != sent {
			return fmt.Errorf("fabric: checkpoint flow %d of %d bytes has %d queued at sources, %d at relays, %d lost, %d delivered and %d sent",
				f.ID, f.Total(), h[heldSource], h[heldRelay], h[heldLost], f.Delivered(), f.Sent())
		}
	}
	return nil
}

// checkLoss validates a decoded loss record against the core: a
// destination (and, for a lane loss, a lane) inside the fabric, a
// positive byte run inside the flow, and a requeue class the core
// configures — requeue would index out of range or strand bytes
// otherwise.
func (nd *Node) checkLoss(l Loss) error {
	n := nd.spec.n
	var into uint8
	switch l.Class {
	case RequeueDirect:
		into = classDirect
	case RequeueLane:
		into = classLanes
		if l.Via < 0 || int(l.Via) >= n {
			return fmt.Errorf("lane %d out of range", l.Via)
		}
	case RequeueRelay:
		into = classRelay
	default:
		return fmt.Errorf("invalid requeue class %d", l.Class)
	}
	switch {
	case !nd.configured(into):
		return fmt.Errorf("requeues into %s queues the core does not configure", className[into])
	case l.Dst < 0 || l.Dst >= n:
		return fmt.Errorf("destination %d out of range", l.Dst)
	case l.N <= 0 || l.Off < 0 || l.Off > l.F.Total()-l.N:
		return fmt.Errorf("bytes [%d, %d) outside the flow's %d", l.Off, l.Off+l.N, l.F.Total())
	}
	return nil
}

func (c *Core) decodeDestSlabSegs(d *snap.Dec, cls *QueueClass, byID map[int64]*flows.Flow, idx int) error {
	n := int(d.U32())
	for i := 0; i < n; i++ {
		dst := int(d.U32())
		prio := int(d.U8())
		id := d.I64()
		s := queue.Segment{Bytes: d.I64(), Enqueued: sim.Time(d.I64())}
		if d.Err() != nil {
			break
		}
		f, ok := byID[id]
		if !ok {
			return fmt.Errorf("fabric: checkpoint node %d segment references unknown flow %d", idx, id)
		}
		if dst < 0 || dst >= c.N {
			return fmt.Errorf("fabric: checkpoint node %d segment destination %d out of range", idx, dst)
		}
		if !cls.nd.configured(cls.tag) {
			return fmt.Errorf("fabric: checkpoint node %d carries %s data the core does not configure", idx, className[cls.tag])
		}
		s.Flow = f
		if err := cls.restore(dst, prio, s); err != nil {
			return err
		}
	}
	return d.Err()
}
