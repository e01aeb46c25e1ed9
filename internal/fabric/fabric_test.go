package fabric

import (
	"testing"

	"negotiator/internal/flows"
	"negotiator/internal/queue"
	"negotiator/internal/sim"
	"negotiator/internal/topo"
	"negotiator/internal/workload"
)

// testPlane is a minimal control plane: each round it pumps arrivals and
// serves up to `serve` bytes from every occupied direct VOQ, delivering
// immediately.
type testPlane struct {
	c     *Core
	serve int64
}

func (p *testPlane) Name() string           { return "test" }
func (p *testPlane) RoundLen() sim.Duration { return 100 }
func (p *testPlane) Round() {
	c := p.c
	now := c.Now()
	c.Inject(now)
	for i := range c.Nodes {
		nd := &c.Nodes[i]
		sh := c.Shards[c.ShardOf[i]]
		for j := nd.Direct.Occ.Next(-1); j >= 0; j = nd.Direct.Occ.Next(j) {
			dst := j
			nd.Direct.Take(dst, p.serve, func(f *flows.Flow, n int64) {
				f.NoteSent(n)
				sh.Deliver(f, dst, n, now)
			})
		}
	}
}

func testCore(t *testing.T, g workload.Generator, serve int64) (*Core, *testPlane) {
	t.Helper()
	top, err := topo.NewParallel(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(Config{Topology: top, HostRate: sim.Gbps(400)})
	if err != nil {
		t.Fatal(err)
	}
	p := &testPlane{c: c, serve: serve}
	c.Bind(p, func(f *flows.Flow, at sim.Time) { c.Nodes[f.Src].Direct.Push(f.Dst, f, f.Total(), 0, at) })
	c.SetWorkload(g)
	return c, p
}

// TestDrainReportsBufferedArrival is the regression test for the Drain
// return value: an arrival still buffered in the pump (generator not
// exhausted) means the fabric is NOT drained even when the ledger reads
// zero. The pre-fix code returned true here.
func TestDrainReportsBufferedArrival(t *testing.T) {
	c, _ := testCore(t, workload.NewSinglePair(0, 1, 500, sim.Time(1000)), 1<<20)
	if c.Drain(2) {
		t.Fatal("Drain reported complete with an arrival still buffered in the pump")
	}
	if c.Ledger.Injected != 0 {
		t.Fatalf("arrival admitted early: injected = %d", c.Ledger.Injected)
	}
	// Enough rounds to pass t=1000, admit and serve the flow.
	if !c.Drain(20) {
		t.Fatal("Drain did not complete after the arrival was served")
	}
	if c.Ledger.Delivered != 500 {
		t.Fatalf("delivered = %d, want 500", c.Ledger.Delivered)
	}
}

// TestDrainNoWorkload: with no generator attached, an empty fabric drains
// immediately.
func TestDrainNoWorkload(t *testing.T) {
	c, _ := testCore(t, nil, 1<<20)
	c.SetWorkload(nil)
	if !c.Drain(1) {
		t.Fatal("empty fabric did not drain")
	}
}

// TestOutstandingLossCounter pins the loss bookkeeping: RecordLoss folds
// into the core counter at the round merge, requeue decrements it, and a
// zero counter short-circuits the walk.
func TestOutstandingLossCounter(t *testing.T) {
	c, _ := testCore(t, workload.NewSinglePair(0, 1, 1000, 0), 0)
	c.RunRound() // admits the flow, serves nothing (serve=0)
	if c.pendingLosses != 0 {
		t.Fatalf("pendingLosses = %d before any loss", c.pendingLosses)
	}
	// Destroy 300 bytes in flight from ToR 0 toward dst 1.
	nd := &c.Nodes[0]
	sh := c.Shards[0]
	nd.Direct.Take(1, 300, func(f *flows.Flow, n int64) {
		off := f.Sent()
		f.NoteSent(n)
		sh.RecordLoss(nd, f, 1, off, n, c.Now())
	})
	c.mergeRound()
	if c.pendingLosses != 1 {
		t.Fatalf("pendingLosses = %d after one recorded loss, want 1", c.pendingLosses)
	}
	if c.Ledger.Lost != 300 || c.Lost != 300 {
		t.Fatalf("lost bytes = %d/%d, want 300", c.Ledger.Lost, c.Lost)
	}
	// Not yet detected: the record stays.
	c.RequeueDetectedLosses(c.Now(), 1<<40)
	if c.pendingLosses != 1 || len(nd.Losses) != 1 {
		t.Fatal("loss requeued before the detection delay elapsed")
	}
	// Detected: bytes return to the source VOQ, counter hits zero.
	c.RequeueDetectedLosses(c.Now().Add(10), 5)
	if c.pendingLosses != 0 || len(nd.Losses) != 0 {
		t.Fatalf("pendingLosses = %d, records = %d after requeue", c.pendingLosses, len(nd.Losses))
	}
	if got := nd.Direct.Bytes(1); got != 1000 {
		t.Fatalf("source VOQ holds %d bytes after requeue, want 1000", got)
	}
	c.CheckOccupancy()
	if err := c.Ledger.Check(c.QueuedInNodes()); err != nil {
		t.Fatal(err)
	}
}

// TestOccSet pins the bitset index: membership, ascending word-scan
// iteration and the two-set union used by the predefined-phase sweep.
func TestOccSet(t *testing.T) {
	s := newOccSet(200)
	for _, v := range []int{0, 1, 63, 64, 130, 199} {
		s.Set(v)
	}
	s.Clear(1)
	s.Clear(130)
	want := []int{0, 63, 64, 199}
	var got []int
	for i := s.Next(-1); i >= 0; i = s.Next(i) {
		got = append(got, i)
	}
	if len(got) != len(want) {
		t.Fatalf("iterated %v, want %v", got, want)
	}
	for k := range want {
		if got[k] != want[k] {
			t.Fatalf("iterated %v, want %v", got, want)
		}
	}
	if s.Has(1) || !s.Has(63) {
		t.Fatal("membership wrong after Set/Clear")
	}
	b := newOccSet(200)
	b.Set(1)
	b.Set(150)
	wantU := []int{0, 1, 63, 64, 150, 199}
	var gotU []int
	for i := nextUnion(&s, &b, -1); i >= 0; i = nextUnion(&s, &b, i) {
		gotU = append(gotU, i)
	}
	if len(gotU) != len(wantU) {
		t.Fatalf("union iterated %v, want %v", gotU, wantU)
	}
	for k := range wantU {
		if gotU[k] != wantU[k] {
			t.Fatalf("union iterated %v, want %v", gotU, wantU)
		}
	}
	if got := nextUnion(&s, nil, 63); got != 64 {
		t.Fatalf("nil union next = %d, want 64", got)
	}
}

// TestChokePointsMaintainIndexes drives every class mutation path and
// asserts the occupancy indexes track exactly.
func TestChokePointsMaintainIndexes(t *testing.T) {
	top, err := topo.NewParallel(8, 2)
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(Config{Topology: top, PriorityQueues: true, Lanes: true, Relay: true})
	if err != nil {
		t.Fatal(err)
	}
	nd := &c.Nodes[0]
	f := &flows.Flow{ID: 1, Src: 0, Dst: 3, Size: 1 << 20}
	discard := func(fl *flows.Flow, n int64) {}

	nd.Direct.Push(3, f, f.Total(), 0, 0)
	nd.Direct.Push(5, f, 0, 0, 0) // zero-byte push must not set the bit
	nd.Lanes.Push(2, f, 4096, 0, 0)
	nd.Relay.Push(6, queue.Segment{Flow: f, Bytes: 777, Enqueued: 5})
	c.CheckOccupancy()
	if !nd.Direct.Occ.Has(3) || nd.Direct.Occ.Has(5) || !nd.Lanes.Occ.Has(2) || !nd.Relay.Occ.Has(6) {
		t.Fatal("occupancy bits wrong after pushes")
	}
	if got := nd.NextDirectOrRelay(-1); got != 3 {
		t.Fatalf("NextDirectOrRelay(-1) = %d, want 3", got)
	}
	if got := nd.NextDirectOrRelay(3); got != 6 {
		t.Fatalf("NextDirectOrRelay(3) = %d, want 6", got)
	}

	// Partial take leaves the bit set; final take clears it.
	nd.Direct.Take(3, 1<<19, discard)
	c.CheckOccupancy()
	if !nd.Direct.Occ.Has(3) {
		t.Fatal("partial take cleared the occupancy bit")
	}
	nd.Direct.Take(3, 1<<20, discard)
	nd.Direct.TakeLowest(3, 1, discard)
	nd.Lanes.Take(2, 1<<20, discard)
	nd.Lanes.TakeHeadCell(2, 1, discard)
	c.CheckOccupancy()
	if nd.Direct.Occ.Has(3) || nd.Lanes.Occ.Has(2) {
		t.Fatal("occupancy bit survived a draining take")
	}

	// Relay: a not-yet-arrived head drains nothing and keeps the bit; an
	// arrived one drains and clears it.
	if got := nd.Relay.Drain(6, 1<<20, 0, discard); got != 0 {
		t.Fatalf("drained %d not-yet-arrived bytes", got)
	}
	c.CheckOccupancy()
	if !nd.Relay.Occ.Has(6) {
		t.Fatal("relay bit cleared by a zero-byte drain")
	}
	if got := nd.Relay.Drain(6, 1<<20, 10, discard); got != 777 {
		t.Fatalf("drained %d, want 777", got)
	}
	c.CheckOccupancy()
	if nd.Relay.Occ.Has(6) || nd.Relay.Total != 0 {
		t.Fatal("relay bookkeeping wrong after full drain")
	}
}

// TestFlowPoolRecycles: completed untagged flows return to the core pool
// and the next injection reuses the record.
func TestFlowPoolRecycles(t *testing.T) {
	gen := workload.NewMerge(
		workload.NewSinglePair(0, 1, 400, 0),
		workload.NewSinglePair(2, 3, 400, sim.Time(500)),
	)
	c, _ := testCore(t, gen, 1<<20)
	c.RunRound() // admits and completes the first flow
	if c.Ledger.Delivered != 400 {
		t.Fatalf("delivered = %d, want 400", c.Ledger.Delivered)
	}
	if len(c.flowPool) != 1 {
		t.Fatalf("flow pool holds %d records, want 1", len(c.flowPool))
	}
	recycled := c.flowPool[0]
	c.RunRounds(6) // passes t=500: admits the second flow
	if c.Ledger.Delivered != 800 {
		t.Fatalf("delivered = %d, want 800", c.Ledger.Delivered)
	}
	if len(c.flowPool) != 1 || c.flowPool[0] != recycled {
		t.Fatal("second flow did not reuse the recycled record")
	}
}

// TestLazyNodesReportEmpty pins the lazy-slab contract: a freshly built
// core owns no queue memory, every unmaterialized node reads as
// empty/zero through all accessors (including zero-takes), the first push
// materializes exactly the touched class of the touched node, and
// CheckOccupancy accepts every intermediate state.
func TestLazyNodesReportEmpty(t *testing.T) {
	top, err := topo.NewParallel(8, 2)
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(Config{Topology: top, PriorityQueues: true, Lanes: true, Relay: true, CumInjected: true})
	if err != nil {
		t.Fatal(err)
	}
	discard := func(fl *flows.Flow, n int64) {}
	for i := range c.Nodes {
		nd := &c.Nodes[i]
		if nd.Direct.Slab.Materialized() || nd.Lanes.Slab.Materialized() || nd.Relay.Slab.Materialized() || nd.CumInjected != nil {
			t.Fatalf("node %d owns slab memory before any push", i)
		}
		if nd.Direct.Total != 0 || nd.Lanes.Total != 0 || nd.Relay.Total != 0 {
			t.Fatalf("node %d has non-zero aggregates before any push", i)
		}
		if nd.Direct.Bytes(3) != 0 || nd.Relay.Bytes(3) != 0 {
			t.Fatalf("node %d accessor reports phantom bytes", i)
		}
		if nd.NextDirectOrRelay(-1) != -1 || nd.Direct.Occ.Next(-1) != -1 {
			t.Fatalf("node %d occupancy iterates while unmaterialized", i)
		}
		if nd.Direct.Take(1, 100, discard) != 0 || nd.Lanes.Take(1, 100, discard) != 0 ||
			nd.Relay.Drain(1, 100, 1<<40, discard) != 0 {
			t.Fatalf("node %d take from unmaterialized slab returned bytes", i)
		}
		if d, n := nd.Lanes.TakeHeadCell(1, 100, discard); d != -1 || n != 0 {
			t.Fatalf("node %d Lanes.TakeHeadCell on nil lanes = (%d, %d)", i, d, n)
		}
	}
	c.CheckOccupancy()

	// First direct push materializes Direct (+index, CumInjected) of node
	// 2 only; lanes and relay stay nil until their first push.
	f := &flows.Flow{ID: 1, Src: 2, Dst: 5, Size: 4096}
	c.Nodes[2].Direct.Push(5, f, f.Total(), 0, 0)
	if !c.Nodes[2].Direct.Slab.Materialized() || c.Nodes[2].CumInjected == nil {
		t.Fatal("direct push did not materialize the direct class")
	}
	if c.Nodes[2].Lanes.Slab.Materialized() || c.Nodes[2].Relay.Slab.Materialized() {
		t.Fatal("direct push materialized unrelated classes")
	}
	if c.Nodes[3].Direct.Slab.Materialized() {
		t.Fatal("push on node 2 materialized node 3")
	}
	c.Nodes[2].Relay.Push(1, queue.Segment{Flow: f, Bytes: 100, Enqueued: 0})
	if !c.Nodes[2].Relay.Slab.Materialized() || c.Nodes[2].Lanes.Slab.Materialized() {
		t.Fatal("relay push materialized the wrong classes")
	}
	c.CheckOccupancy()

	// Regression: a RELAY-ONLY node (relay materialized, direct not) must
	// still surface its queued relay data through the union sweep — the
	// predefined phase walks NextDirectOrRelay, and lazy == eager demands
	// the relay entry is visited even with Direct.Occ unmaterialized.
	c.Nodes[4].Relay.Push(5, queue.Segment{Flow: f, Bytes: 64, Enqueued: 0})
	if c.Nodes[4].Direct.Slab.Materialized() {
		t.Fatal("relay push materialized the direct class")
	}
	if got := c.Nodes[4].NextDirectOrRelay(-1); got != 5 {
		t.Fatalf("relay-only node NextDirectOrRelay(-1) = %d, want 5", got)
	}
	if got := c.Nodes[4].NextDirectOrRelay(5); got != -1 {
		t.Fatalf("relay-only node NextDirectOrRelay(5) = %d, want -1", got)
	}

	// MaterializeAll is the eager escape hatch tests compare against.
	c.MaterializeAll()
	for i := range c.Nodes {
		nd := &c.Nodes[i]
		if !nd.Direct.Slab.Materialized() || !nd.Lanes.Slab.Materialized() || !nd.Relay.Slab.Materialized() {
			t.Fatalf("node %d not fully materialized by MaterializeAll", i)
		}
	}
	c.CheckOccupancy()
}

// TestMergedFCTCachedView: a second MergedFCT with no new samples returns
// the same view, with the answers its queries cached, and repeated queries
// allocate nothing. A new shard sample brings a new view, and the old one
// keeps the samples it had.
func TestMergedFCTCachedView(t *testing.T) {
	top, err := topo.NewParallel(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(Config{Topology: top, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	c.Shards[0].FCT.Record(1, 30)
	c.Shards[1].FCT.Record(1, 10)
	v := c.MergedFCT()
	if got := v.P(100); got != 30 {
		t.Fatalf("P(100) = %v, want 30", got)
	}
	if allocs := testing.AllocsPerRun(10, func() {
		if c.MergedFCT() != v {
			t.Fatal("MergedFCT rebuilt the view with no new samples")
		}
		_ = c.MergedFCT().P(99) + c.MergedFCT().MiceP(50)
	}); allocs != 0 {
		t.Errorf("cached MergedFCT + queries allocate %.0f objects, want 0", allocs)
	}

	c.Shards[1].FCT.Record(1, 20)
	w := c.MergedFCT()
	if w == v {
		t.Fatal("MergedFCT kept a stale view after a shard recorded")
	}
	if v.Count() != 2 || v.P(50) != 10 {
		t.Errorf("old view changed: count %d, P(50) %v; want 2, 10", v.Count(), v.P(50))
	}
	if w.Count() != 3 || w.P(50) != 20 {
		t.Errorf("new view: count %d, P(50) %v; want 3, 20", w.Count(), w.P(50))
	}
}

// epochPlane is testPlane with three rounds per epoch.
type epochPlane struct{ testPlane }

func (p *epochPlane) EpochRounds() int { return 3 }

// TestResultsEpochUnits: RunEpochs steps whole plane epochs, Results
// reports EpochLen and Epochs in them, and an unobserved match ratio
// has no series.
func TestResultsEpochUnits(t *testing.T) {
	top, err := topo.NewParallel(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(Config{Topology: top})
	if err != nil {
		t.Fatal(err)
	}
	p := &epochPlane{testPlane{c: c, serve: 1 << 20}}
	c.Bind(p, func(f *flows.Flow, at sim.Time) { c.Nodes[f.Src].Direct.Push(f.Dst, f, f.Total(), 0, at) })
	c.RunEpochs(4)
	r := c.Results()
	if c.Rounds() != 12 || r.Epochs != 4 || r.EpochLen != 300 || r.Duration != 1200 {
		t.Errorf("rounds %d, epochs %d, epoch %v, duration %v; want 12, 4, 300, 1200", c.Rounds(), r.Epochs, r.EpochLen, r.Duration)
	}
	if r.MatchRatio.Series() != nil {
		t.Errorf("unobserved match ratio has series %v", r.MatchRatio.Series())
	}
}

// TestCheckInvariantsRunsCoreChecks: under CheckInvariants the core
// itself asserts conservation after every round, whatever the plane.
func TestCheckInvariantsRunsCoreChecks(t *testing.T) {
	top, err := topo.NewParallel(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(Config{Topology: top, CheckInvariants: true})
	if err != nil {
		t.Fatal(err)
	}
	c.Bind(&testPlane{c: c, serve: 1 << 20}, func(f *flows.Flow, at sim.Time) { c.Nodes[f.Src].Direct.Push(f.Dst, f, f.Total(), 0, at) })
	c.RunRound()
	c.Ledger.Injected++ // a byte the nodes do not hold
	defer func() {
		if recover() == nil {
			t.Error("broken ledger survived a checked round")
		}
	}()
	c.RunRound()
}

// TestCoreDefinesNoPlaneHooks: every engine embeds *Core, so a Core method
// named like an optional plane hook would make every plane implement that
// hook through promotion.
func TestCoreDefinesNoPlaneHooks(t *testing.T) {
	var c any = &Core{}
	for _, hook := range []struct {
		name string
		ok   bool
	}{
		{"RoundChecker", is[RoundChecker](c)},
		{"IdlePlane", is[IdlePlane](c)},
		{"EpochPlane", is[EpochPlane](c)},
		{"PlaneState", is[interface{ PlaneState() ([]byte, error) }](c)},
		{"RestorePlaneState", is[interface{ RestorePlaneState([]byte) error }](c)},
	} {
		if hook.ok {
			t.Errorf("Core implements the plane hook %s", hook.name)
		}
	}
}

func is[T any](v any) bool {
	_, ok := v.(T)
	return ok
}
