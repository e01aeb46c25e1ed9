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
	secCore  = "CORE" // identity, round counts, pump, requeued bytes, RNG
	secTags  = "TAGS" // tagged-event accounting
	secMetr  = "METR" // merged FCT samples, goodput, match ratio, receiver buffers
	secFail  = "FAIL" // failure cursor positions (only with a plan)
	secFlows = "FLOW" // live flow records
	secNode  = "NODE" // one per node with queued segments or loss records
	secPlane = "PLNE" // the control plane's StatefulPlane payload
)

// Snapshot serializes the core's complete simulation state at a round
// boundary: round counts, the workload pump position, requeued bytes and
// tag accounting, merged metrics, failure cursor positions, every live
// flow, every node's queued segments and loss records verbatim, and the
// control plane's own state. Each fact is stated once: the clock, the
// ledger, the loss counters and each flow's cursors follow from the rest,
// and Restore derives them. The stream is versioned and CRC-guarded
// (internal/snap).
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
	e.I64(c.rounds)
	e.I64(c.skippedRounds)
	e.I64(c.flowSeq)
	e.I64(c.nextCalls)
	e.Bool(c.genDone)
	e.Bool(c.havePending)
	if c.havePending {
		encodeArrival(&e, c.pending)
	}
	e.I64(c.requeued)
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
	sw.Section(secFlows, encodeFlows(c.liveFlows()))
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
// identically constructed workload generator (SetWorkload) first. Each
// section applies as it decodes, so a core whose Restore failed holds part
// of a checkpoint and must be discarded (the negotiator facade restores
// into a fresh build and adopts it only on success). What the checkpoint
// does not state, Restore derives: the clock from the round count, each
// live flow's cursors from where its bytes are held, and the ledger and
// loss counters from the node records and the delivered bytes. The rebuilt
// occupancy indexes are re-verified (the CheckOccupancy invariant), a
// violation returned as an error. The workload replays last, so only a
// checkpoint whose every other part restored draws the attached generator.
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
	// The clock bounds the failure cursors, the tag table the flow
	// records, and the flow records the node records holding their bytes.
	if err := c.decodeCore(s); err != nil {
		return err
	}
	if err := c.decodeFail(s); err != nil {
		return err
	}
	if err := c.decodeTags(s); err != nil {
		return err
	}
	if err := c.decodeMetrics(s); err != nil {
		return err
	}
	live, err := c.decodeFlows(s)
	if err != nil {
		return err
	}
	for _, payload := range s.Sections(secNode) {
		if err := c.decodeNode(payload, live); err != nil {
			return err
		}
	}
	if err := c.deriveProgress(live); err != nil {
		return err
	}
	if err := c.verifyOccupancy(); err != nil {
		return err
	}
	planeSec, err := section(s, secPlane)
	if err != nil {
		return err
	}
	if err := sp.RestorePlaneState(planeSec); err != nil {
		return err
	}
	return c.replayWorkload()
}

// section returns the payload of a section every checkpoint carries.
func section(s *snap.Snapshot, tag string) ([]byte, error) {
	if payload, ok := s.Section(tag); ok {
		return payload, nil
	}
	return nil, fmt.Errorf("fabric: checkpoint missing %s section", tag)
}

// decodeCore restores the CORE section: the core's identity, which must
// match, then its round counts, pump, requeued bytes and RNG, held to what
// a run leaves at a round boundary. Skipped rounds are among the rounds,
// and the clock (that many whole rounds) fits. A pump that has drawn
// buffers an arrival (the last draw, which the replay checks) or is
// exhausted, and the buffered arrival lies after the last round's start,
// up to which that round injected: a round count edited ahead of it would
// have the first restored round inject every arrival up to the clock at
// once.
func (c *Core) decodeCore(s *snap.Snapshot) error {
	payload, err := section(s, secCore)
	if err != nil {
		return err
	}
	d := snap.NewDec(payload)
	if name := d.Str(); name != c.plane.Name() {
		return fmt.Errorf("fabric: checkpoint was taken on control plane %q, core runs %q", name, c.plane.Name())
	}
	if n, ports := d.Int(), d.Int(); n != c.N || ports != c.S {
		return fmt.Errorf("fabric: checkpoint topology %dx%d does not match core %dx%d", n, ports, c.N, c.S)
	}
	if rl := sim.Duration(d.I64()); rl != c.roundLen {
		return fmt.Errorf("fabric: checkpoint round length %v does not match core %v", rl, c.roundLen)
	}
	c.rounds = d.I64()
	c.skippedRounds = d.I64()
	c.flowSeq = d.I64()
	c.nextCalls = d.I64()
	c.genDone = d.Bool()
	c.havePending = d.Bool()
	if c.havePending {
		c.pending = decodeArrival(d)
	}
	c.requeued = d.I64()
	var rng [4]uint64
	for i := range rng {
		rng[i] = d.U64()
	}
	c.RNG.SetState(rng)
	if err := d.Finish(); err != nil {
		return err
	}
	rl := int64(c.roundLen)
	switch {
	case c.rounds < 0 || c.skippedRounds < 0 || c.skippedRounds > c.rounds:
		return fmt.Errorf("fabric: checkpoint counts %d rounds, %d of them skipped", c.rounds, c.skippedRounds)
	case c.rounds > math.MaxInt64/rl:
		return fmt.Errorf("fabric: checkpoint's %d rounds of %v overflow the clock", c.rounds, c.roundLen)
	case c.nextCalls < 0 || c.havePending && (c.genDone || c.nextCalls == 0) ||
		!c.genDone && !c.havePending && c.nextCalls != 0:
		return fmt.Errorf("fabric: checkpoint pump state (draws %d, buffered %v, exhausted %v) is not one a run leaves",
			c.nextCalls, c.havePending, c.genDone)
	case c.requeued < 0:
		return fmt.Errorf("fabric: checkpoint counts %d requeued bytes", c.requeued)
	}
	c.now = sim.Time(c.rounds * rl)
	if c.havePending && int64(c.pending.Time) <= int64(c.now)-rl {
		return fmt.Errorf("fabric: checkpoint buffers an arrival at %d ns, before the last round started (%d ns)",
			int64(c.pending.Time), int64(c.now)-rl)
	}
	return nil
}

// decodeFail restores the failure cursor positions, present exactly when
// the core has a plan. It holds them to what a run leaves: unadvanced, or
// the actual cursor at a round start before now and the known one the
// detection delay behind (the next round would move a cursor ahead of the
// clock backwards). Cursors are pure functions of (plan, time): advancing
// the fresh cursors to the positions replays the exact transition prefix,
// reproducing dense state, reference counts and the applied index —
// mid-cycle flapping state included.
func (c *Core) decodeFail(s *snap.Snapshot) error {
	payload, ok := s.Section(secFail)
	if ok != (c.failPlan != nil) {
		return fmt.Errorf("fabric: checkpoint failure-plan presence (%v) does not match core configuration (%v)",
			ok, c.failPlan != nil)
	}
	if !ok {
		return nil
	}
	d := snap.NewDec(payload)
	aNow, kNow := sim.Time(d.I64()), sim.Time(d.I64())
	if err := d.Finish(); err != nil {
		return err
	}
	if aNow == failure.NeverAdvanced && kNow == failure.NeverAdvanced {
		return nil
	}
	rl := int64(c.roundLen)
	if aNow < 0 || int64(aNow) > int64(c.now)-rl || int64(aNow)%rl != 0 || kNow != aNow.Add(-c.failPlan.DetectDelay) {
		return fmt.Errorf("fabric: checkpoint failure cursors at %d and %d ns are not a round start before %d ns and its detection lag",
			int64(aNow), int64(kNow), int64(c.now))
	}
	c.actualCur.AdvanceTo(aNow)
	c.knownCur.AdvanceTo(kNow)
	return nil
}

// replayWorkload pulls the generator forward to the checkpointed pump
// position and cross-checks the final draw against the buffered arrival —
// catching a restore with the wrong (or wrongly seeded) generator
// attached — and every earlier draw against the clock.
func (c *Core) replayWorkload() error {
	if c.nextCalls == 0 {
		return nil
	}
	if c.work == nil {
		return fmt.Errorf("fabric: restore requires the original workload attached via SetWorkload (checkpoint had drawn %d arrivals)", c.nextCalls)
	}
	var (
		last   workload.Arrival
		lastOK bool
	)
	// A round starting at or before now - roundLen injected every draw but
	// the last, which bounds a corrupt count by the arrivals it covers.
	injected := c.now.Add(-c.roundLen)
	for i := int64(0); i < c.nextCalls; i++ {
		last, lastOK = c.work.Next()
		if i == c.nextCalls-1 {
			break
		}
		if !lastOK {
			return fmt.Errorf("fabric: workload exhausted after %d of %d checkpointed draws: wrong generator attached", i+1, c.nextCalls)
		}
		if last.Time > injected {
			return fmt.Errorf("fabric: workload draw %d of %d arrives at %d ns, after the last round started (%d ns): the checkpoint counts more draws than the run made",
				i+1, c.nextCalls, int64(last.Time), int64(injected))
		}
	}
	switch {
	case c.havePending:
		if !lastOK || last != c.pending {
			return fmt.Errorf("fabric: workload replay diverges from checkpoint (got %+v ok=%v, want buffered %+v): wrong generator attached",
				last, lastOK, c.pending)
		}
	case c.genDone:
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
	e.U32(uint32(a.Count))
}

func decodeArrival(d *snap.Dec) workload.Arrival {
	return workload.Arrival{
		Time:  sim.Time(d.I64()),
		Src:   d.Int(),
		Dst:   d.Int(),
		Size:  d.I64(),
		Tag:   d.Int(),
		Count: int32(d.U32()),
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

// decodeTags restores the tagged-event table.
func (c *Core) decodeTags(s *snap.Snapshot) error {
	payload, err := section(s, secTags)
	if err != nil {
		return err
	}
	d := snap.NewDec(payload)
	n := d.Count(40) // key + start + end + flows + done
	for i := 0; i < n; i++ {
		k := d.Int()
		c.Tags[k] = &TagStat{
			Start: sim.Time(d.I64()),
			End:   sim.Time(d.I64()),
			Flows: d.Int(),
			Done:  d.Int(),
		}
	}
	return d.Finish()
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

// decodeMetrics restores the merged metrics into shard 0 (see
// encodeMetrics) and the ledger's delivered bytes, which are their
// goodput sum.
func (c *Core) decodeMetrics(s *snap.Snapshot) error {
	payload, err := section(s, secMetr)
	if err != nil {
		return err
	}
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
	for i, prev := 0, -1; i < gn; i++ {
		dst := int(d.U32())
		v := d.I64()
		if d.Err() != nil {
			break
		}
		if dst <= prev || dst >= c.N || v <= 0 {
			return fmt.Errorf("fabric: checkpoint goodput entry %d (%d bytes to ToR %d) is not ascending, on the fabric and positive", i, v, dst)
		}
		perToR[dst], prev = v, dst
	}
	num := make([]int64, d.Count(16)) // one numerator and one denominator per epoch
	den := make([]int64, len(num))
	for i := range num {
		num[i], den[i] = d.I64(), d.I64()
	}
	haveRx := d.Bool()
	if haveRx != (c.RxBuffers != nil) {
		return fmt.Errorf("fabric: checkpoint receiver-buffer presence (%v) does not match core configuration (%v)",
			haveRx, c.RxBuffers != nil)
	}
	if haveRx {
		rn := int(d.U32())
		for i := 0; i < rn; i++ {
			dst := int(d.U32())
			last, backlog, peak := sim.Time(d.I64()), d.I64(), d.I64()
			if d.Err() != nil {
				break
			}
			if dst < 0 || dst >= c.N {
				return fmt.Errorf("fabric: checkpoint receiver buffer %d out of range", dst)
			}
			c.RxBuffers[dst].RestoreState(last, backlog, peak)
		}
	}
	if err := d.Finish(); err != nil {
		return err
	}
	c.Shards[0].FCT.RestoreSamples(all, mice)
	c.fct = nil
	c.Shards[0].Goodput.RestorePerToR(perToR)
	c.Ledger.Delivered = c.Shards[0].Goodput.TotalBytes()
	c.MatchRatio.RestoreCounts(num, den)
	return nil
}

// liveFlows collects every flow still referenced by the fabric — queued
// segments of all three classes plus outstanding loss records — in ID
// order. Completed flows survive only as metric samples and are not
// serialized.
func (c *Core) liveFlows() []*flows.Flow {
	byID := make(map[int64]*flows.Flow)
	add := func(f *flows.Flow) { byID[f.ID] = f }
	for i := range c.Nodes {
		nd := &c.Nodes[i]
		for _, cls := range [2]*QueueClass{&nd.Direct, &nd.Lanes} {
			cls.Slab.ForEachPage(func(_, _ int, qs []queue.DestQueue, _ int64) {
				for j := range qs {
					qs[j].ForEachSegment(func(_ int, s queue.Segment) { add(s.Flow) })
				}
			})
		}
		nd.Relay.Slab.ForEachPage(func(_, _ int, fs []queue.FIFO, _ int64) {
			for j := range fs {
				fs[j].ForEachSegment(func(s queue.Segment) { add(s.Flow) })
			}
		})
		for _, l := range nd.Losses {
			add(l.F)
		}
	}
	out := make([]*flows.Flow, 0, len(byID))
	for _, f := range byID {
		out = append(out, f)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// encodeFlows writes each live flow's identity and member count; its
// cursors follow from where the node records hold its bytes.
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
		e.U32(uint32(f.Count))
	}
	return e.Bytes()
}

// Where a node holds a flow's bytes (liveFlow.held's index).
const (
	heldSource = iota // a direct or lane queue
	heldRelay         // a relay queue
	heldLost          // a loss record awaiting requeue
)

// liveFlow is a restored flow record and the bytes the node records hold
// of it, by where they are held.
type liveFlow struct {
	f    *flows.Flow
	held [3]int64
}

// decodeFlows decodes the live flow records, rejecting any the fabric
// could not carry: an ID outside the issued range or repeated, a source
// or destination off the fabric (a relay push or requeue would index out
// of range), a size below one byte, a negative member count or a total
// that overflows, or a nonzero tag the tag table does not list (its
// completion would update a missing tag).
func (c *Core) decodeFlows(s *snap.Snapshot) (map[int64]*liveFlow, error) {
	payload, err := section(s, secFlows)
	if err != nil {
		return nil, err
	}
	d := snap.NewDec(payload)
	count := d.Count(52) // six 8-byte fields and a 4-byte member count per record
	live := make(map[int64]*liveFlow, count)
	for i := 0; i < count; i++ {
		f := &flows.Flow{
			ID:      d.I64(),
			Src:     d.Int(),
			Dst:     d.Int(),
			Size:    d.I64(),
			Arrival: sim.Time(d.I64()),
			Tag:     d.Int(),
			Count:   int32(d.U32()),
		}
		_, tagged := c.Tags[f.Tag]
		switch {
		case f.ID <= 0 || f.ID > c.flowSeq:
			return nil, fmt.Errorf("fabric: checkpoint flow ID %d outside issued range [1, %d]", f.ID, c.flowSeq)
		case live[f.ID] != nil:
			return nil, fmt.Errorf("fabric: checkpoint flow ID %d duplicated", f.ID)
		case f.Src < 0 || f.Src >= c.N || f.Dst < 0 || f.Dst >= c.N:
			return nil, fmt.Errorf("fabric: checkpoint flow %d runs %d -> %d, outside the fabric's %d ToRs", f.ID, f.Src, f.Dst, c.N)
		case f.Size < 1 || f.Count < 0 || f.Count > 1 && f.Size > math.MaxInt64/int64(f.Count):
			return nil, fmt.Errorf("fabric: checkpoint flow %d of %d members of %d bytes", f.ID, f.Count, f.Size)
		case f.Tag != 0 && !tagged:
			return nil, fmt.Errorf("fabric: checkpoint flow %d carries tag %d, which the tag table does not list", f.ID, f.Tag)
		}
		live[f.ID] = &liveFlow{f: f}
	}
	return live, d.Finish()
}

// hold books n more bytes of flow id as held where by node idx and
// returns the flow. A flow's records hold at most its Total; checking
// before each addition keeps the sum from overflowing.
func hold(live map[int64]*liveFlow, idx int, id int64, where int, n int64) (*flows.Flow, error) {
	lf, ok := live[id]
	if !ok {
		return nil, fmt.Errorf("fabric: checkpoint node %d references unknown flow %d", idx, id)
	}
	if left := lf.f.Total() - lf.held[heldSource] - lf.held[heldRelay] - lf.held[heldLost]; n <= 0 || n > left {
		return nil, fmt.Errorf("fabric: checkpoint node %d holds %d bytes of flow %d, beyond the %d of its %d the other records leave",
			idx, n, id, left, lf.f.Total())
	}
	lf.held[where] += n
	return lf.f, nil
}

// deriveProgress derives what the node records imply. Every byte of a live
// flow is queued, destroyed awaiting requeue, or delivered, and its sent
// cursor counts the delivered and destroyed ones, and the relayed ones on
// a FirstHopSender; a flow no record holds would have completed, and
// completed flows are not checkpointed. The ledger's live losses are the
// loss records' bytes, and the bytes injected are those delivered, queued
// and lost.
func (c *Core) deriveProgress(live map[int64]*liveFlow) error {
	_, firstHop := c.plane.(FirstHopSender)
	var queued int64
	for _, lf := range live {
		src, relay, lost := lf.held[heldSource], lf.held[heldRelay], lf.held[heldLost]
		delivered := lf.f.Total() - src - relay - lost
		sent := delivered + lost
		if firstHop {
			sent += relay
		}
		if err := lf.f.RestoreProgress(sent, delivered); err != nil {
			return err
		}
		queued += src + relay
		c.Ledger.Lost += lost
	}
	c.Ledger.Injected = c.Ledger.Delivered + queued + c.Ledger.Lost
	c.Lost = c.Ledger.Lost + c.requeued
	return nil
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

func (c *Core) decodeNode(payload []byte, live map[int64]*liveFlow) error {
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
		f, err := hold(live, idx, id, heldLost, l.N)
		if err != nil {
			return err
		}
		l.F = f
		if err := nd.checkLoss(l); err != nil {
			return fmt.Errorf("fabric: checkpoint node %d loss of flow %d: %w", idx, id, err)
		}
		nd.Losses = append(nd.Losses, l)
		c.pendingLosses++
	}
	if err := c.decodeDestSlabSegs(d, &nd.Direct, live, idx); err != nil {
		return err
	}
	if err := c.decodeDestSlabSegs(d, &nd.Lanes, live, idx); err != nil {
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
		f, err := hold(live, idx, id, heldRelay, s.Bytes)
		if err != nil {
			return err
		}
		if dst < 0 || dst >= c.N {
			return fmt.Errorf("fabric: checkpoint node %d relay segment destination %d out of range", idx, dst)
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
// sent at its last hop. Restore derives each flow's sent cursor by it.
type FirstHopSender interface {
	SendsAtFirstHop()
}

// checkLoss validates a decoded loss record against the core: a
// destination (and, for a lane loss, a lane) inside the fabric, a byte
// run inside the flow, and a requeue class the core configures — requeue
// would index out of range or strand bytes otherwise. The run is
// positive and no longer than the flow (see hold).
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
	case l.Off < 0 || l.Off > l.F.Total()-l.N:
		return fmt.Errorf("bytes [%d, %d) outside the flow's %d", l.Off, l.Off+l.N, l.F.Total())
	}
	return nil
}

func (c *Core) decodeDestSlabSegs(d *snap.Dec, cls *QueueClass, live map[int64]*liveFlow, idx int) error {
	n := int(d.U32())
	for i := 0; i < n; i++ {
		dst := int(d.U32())
		prio := int(d.U8())
		id := d.I64()
		s := queue.Segment{Bytes: d.I64(), Enqueued: sim.Time(d.I64())}
		if d.Err() != nil {
			break
		}
		f, err := hold(live, idx, id, heldSource, s.Bytes)
		if err != nil {
			return err
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
