package fabric

import (
	"testing"

	"negotiator/internal/failure"
	"negotiator/internal/flows"
	"negotiator/internal/queue"
	"negotiator/internal/sim"
	"negotiator/internal/topo"
	"negotiator/internal/workload"
)

// failCore builds a core with every queue class enabled, for driving the
// requeue switch directly.
func failCore(t *testing.T) *Core {
	t.Helper()
	top, err := topo.NewParallel(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(Config{Topology: top, HostRate: sim.Gbps(400), Lanes: true, Relay: true})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestRequeueClasses pins the class-dispatch of RequeueDetectedLosses:
// direct losses unsend and return to the direct VOQ, lane losses unsend
// into their recorded lane, relay losses re-enqueue the second-hop segment
// WITHOUT unsending (the bytes were noted sent at the first hop, and the
// relay delivery never re-notes them).
func TestRequeueClasses(t *testing.T) {
	c := failCore(t)
	nd := c.Nodes[0]
	sh := c.Shards[0]
	f := &flows.Flow{ID: 1, Src: 0, Dst: 1, Size: 1000}
	c.Ledger.Injected += 1000
	nd.Direct.Push(1, f, f.Total(), 0, 0)

	// Direct loss: 300 bytes destroyed leaving the source.
	nd.Direct.Take(1, 300, func(fl *flows.Flow, n int64) {
		off := fl.Sent()
		fl.NoteSent(n)
		sh.RecordLossClass(nd, fl, 1, off, n, c.Now(), RequeueDirect, -1)
	})
	// Lane loss: 200 bytes destroyed on lane 3.
	nd.Direct.Take(1, 200, func(fl *flows.Flow, n int64) {
		off := fl.Sent()
		fl.NoteSent(n)
		sh.RecordLossClass(nd, fl, 1, off, n, c.Now(), RequeueLane, 3)
	})
	c.mergeRound()
	if c.Ledger.Lost != 500 || c.pendingLosses != 2 {
		t.Fatalf("lost=%d records=%d after two losses", c.Ledger.Lost, c.pendingLosses)
	}
	c.CheckConservation()

	c.RequeueDetectedLosses(c.Now().Add(100), 5)
	if c.pendingLosses != 0 || c.Ledger.Lost != 0 || c.Requeued() != 500 {
		t.Fatalf("after requeue: records=%d lost=%d requeued=%d", c.pendingLosses, c.Ledger.Lost, c.Requeued())
	}
	if f.Sent() != 0 {
		t.Fatalf("direct/lane requeue did not unsend: sent=%d", f.Sent())
	}
	if nd.Direct.Total != 800 {
		t.Fatalf("direct VOQ holds %d bytes, want 800 (700 untouched + 300 requeued)", nd.Direct.Total)
	}
	if nd.Lanes.Total != 200 || !nd.Lanes.Occ.Has(3) {
		t.Fatalf("lane 3 holds %d bytes, want the 200 lane-lost bytes back in their lane", nd.Lanes.Total)
	}
	c.CheckOccupancy()
	c.CheckConservation()

	// Relay loss: a second-hop segment destroyed in flight. The bytes were
	// noted sent at the first hop, so the segment re-enqueues as-is.
	relay := c.Nodes[2]
	rsh := c.Shards[c.ShardOf[2]]
	g := &flows.Flow{ID: 2, Src: 3, Dst: 1, Size: 400}
	c.Ledger.Injected += 400
	g.NoteSent(400) // first hop already happened
	relay.Relay.Push(1, queue.Segment{Flow: g, Bytes: 400, Enqueued: 0})
	relay.Relay.Drain(1, 400, 1<<40, func(fl *flows.Flow, n int64) {
		rsh.RecordLossClass(relay, fl, 1, 0, n, c.Now(), RequeueRelay, -1)
	})
	c.mergeRound()
	c.CheckConservation()
	c.RequeueDetectedLosses(c.Now().Add(200), 5)
	if g.Sent() != 400 {
		t.Fatalf("relay requeue unsent the first hop: sent=%d", g.Sent())
	}
	if relay.Relay.Total != 400 || !relay.Relay.Occ.Has(1) {
		t.Fatalf("relay VOQ holds %d bytes after requeue, want 400", relay.Relay.Total)
	}
	if c.Requeued() != 900 {
		t.Fatalf("requeued=%d, want 900", c.Requeued())
	}
	c.CheckOccupancy()
	c.CheckConservation()
}

// TestZeroDetectDelayRequeue: with DetectDelay 0 a recorded loss requeues
// on the very next failure advance (the round after the loss), never
// lingering.
func TestZeroDetectDelayRequeue(t *testing.T) {
	c := failCore(t)
	nd := c.Nodes[0]
	sh := c.Shards[0]
	f := &flows.Flow{ID: 1, Src: 0, Dst: 1, Size: 500}
	c.Ledger.Injected += 500
	nd.Direct.Push(1, f, f.Total(), 0, 0)
	at := c.Now()
	nd.Direct.Take(1, 500, func(fl *flows.Flow, n int64) {
		off := fl.Sent()
		fl.NoteSent(n)
		sh.RecordLossClass(nd, fl, 1, off, n, at, RequeueDirect, -1)
	})
	c.mergeRound()
	c.RequeueDetectedLosses(at, 0)
	if c.pendingLosses != 0 || nd.Direct.Total != 500 {
		t.Fatalf("zero-delay loss not requeued: records=%d queued=%d", c.pendingLosses, nd.Direct.Total)
	}
	c.CheckConservation()
}

// TestCoreOwnsFailureState: a core built with a failure plan exposes live
// actual/known snapshots that RunRound advances — the known view lagging
// the actual by the detection delay.
func TestCoreOwnsFailureState(t *testing.T) {
	top, err := topo.NewParallel(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	plan := failure.Single([]failure.Link{{ToR: 0, Port: 0}}, 250, 1<<40, 300)
	c, err := New(Config{Topology: top, HostRate: sim.Gbps(400), Failures: plan})
	if err != nil {
		t.Fatal(err)
	}
	p := &testPlane{c: c, serve: 1 << 20}
	c.Bind(p, func(f *flows.Flow, at sim.Time) { c.Nodes[f.Src].Direct.Push(f.Dst, f, f.Total(), 0, at) })
	c.SetWorkload(workload.NewSinglePair(2, 3, 100, 0))
	actual, known := c.ActualFailures(), c.KnownFailures()
	if actual == nil || known == nil || actual == known {
		t.Fatal("core did not build distinct actual/known snapshots")
	}
	c.RunRounds(4) // rounds start at t=0..300: actual sees the cut at 300, known still lags
	if actual.Count != 1 || !actual.Egress[0][0] {
		t.Fatalf("actual state missed the failure: count=%d", actual.Count)
	}
	if known.Count != 0 {
		t.Fatalf("known state detected the failure before the delay: count=%d", known.Count)
	}
	c.RunRounds(4) // round starts reach t=700 > 250+300: detection
	if known.Count != 1 || !known.Egress[0][0] {
		t.Fatalf("known state never detected the failure: count=%d", known.Count)
	}
	c.CheckConservation()
}

// TestCheckConservationCatchesDrift: the extended invariant must reject a
// fabric whose destroyed bytes do not reconcile with ledger + records.
func TestCheckConservationCatchesDrift(t *testing.T) {
	c := failCore(t)
	c.Lost += 100 // cumulative destroyed with no matching ledger entry
	defer func() {
		if recover() == nil {
			t.Error("CheckConservation accepted drifted loss accounting")
		}
	}()
	c.CheckConservation()
}
