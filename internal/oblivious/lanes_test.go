package oblivious

import (
	"math"
	"testing"

	"negotiator/internal/sim"
	"negotiator/internal/topo"
	"negotiator/internal/workload"
)

// TestSprayUniformity: a large flow's chunks must spread evenly over
// intermediates — deterministic assignment would correlate across sources
// and melt hot intermediates.
func TestSprayUniformity(t *testing.T) {
	cfg := testConfig(t)
	e, _ := New(cfg)
	e.Inject(0) // no workload: establishes genDone
	src := e.Nodes[2]
	// Inject a large flow directly through the generator path.
	e.SetWorkload(workload.NewSinglePair(2, 9, 4<<20, 0))
	e.Inject(0)
	var total int64
	counts := make([]int64, e.n)
	for k := 0; k < e.n; k++ {
		counts[k] = src.Lanes.Bytes(k)
		total += counts[k]
	}
	if total != 4<<20 {
		t.Fatalf("lanes hold %d of %d", total, 4<<20)
	}
	if counts[2] != 0 {
		t.Fatal("self-lane must stay empty")
	}
	mean := float64(total) / float64(e.n-1)
	for k, c := range counts {
		if k == 2 {
			continue
		}
		if math.Abs(float64(c)-mean) > 0.5*mean {
			t.Errorf("lane %d holds %d bytes, mean %.0f (poor spread)", k, c, mean)
		}
	}
}

// TestLaneStallWastesSlot: when the head cell's destination VOQ is full at
// the connected intermediate, the slot moves nothing (Sirius backpressure),
// even though other lanes have data.
func TestLaneStallWastesSlot(t *testing.T) {
	e, _ := New(testConfig(t))
	e.relayCap = 1 // one byte: every VOQ is effectively always full
	e.SetWorkload(workload.NewSinglePair(0, 9, 1<<20, 0))
	e.Run(20 * sim.Microsecond)
	r := e.Results()
	// A 1-byte VOQ admits one byte per drain cycle: relay throughput is
	// throttled to a trickle.
	if float64(e.relayed) > 0.01*float64(r.Injected) {
		t.Errorf("relayed %d of %d bytes despite 1-byte VOQs", e.relayed, r.Injected)
	}
	if r.Delivered == 0 {
		t.Error("the direct-luck lane should still deliver")
	}
	if float64(r.Delivered) > 0.2*float64(r.Injected) {
		t.Errorf("delivered %d of %d: stalls should throttle hard", r.Delivered, r.Injected)
	}
}

// TestMiceOvertakeElephantsWithinLane: PIAS priorities apply inside spray
// lanes, so a mouse arriving behind an elephant still leaves the source
// promptly.
func TestMiceOvertakeElephantsWithinLane(t *testing.T) {
	run := func(pq bool) sim.Duration {
		cfg := testConfig(t)
		cfg.PriorityQueues = pq
		e, _ := New(cfg)
		elephant := workload.NewSinglePair(0, 9, 8<<20, 0)
		mouse := workload.NewSinglePair(0, 5, 800, 1000)
		e.SetWorkload(workload.NewMerge(elephant, mouse))
		e.Run(2 * sim.Millisecond)
		r := e.Results()
		if r.FCT.MiceCount() != 1 {
			t.Fatalf("mouse incomplete (pq=%v)", pq)
		}
		return r.FCT.MiceP(100)
	}
	withPQ, withoutPQ := run(true), run(false)
	if withPQ > withoutPQ {
		t.Errorf("PQ made the mouse slower: %v vs %v", withPQ, withoutPQ)
	}
}

// TestRelayedBytesWaitPropagation: a relayed byte's delivery is at least
// two propagation delays after injection.
func TestRelayedBytesWaitPropagation(t *testing.T) {
	cfg := testConfig(t)
	var firstDelivery sim.Time
	cfg.OnDeliver = func(dst int, at sim.Time, n int64) {
		if firstDelivery == 0 {
			firstDelivery = at
		}
	}
	e, _ := New(cfg)
	e.SetWorkload(workload.NewSinglePair(0, 9, 50<<10, 0))
	e.Run(100 * sim.Microsecond)
	// The very first delivery may be the 1-hop-lucky lane: >= 1 prop.
	if firstDelivery < sim.Time(cfg.Timing.PropDelay) {
		t.Errorf("delivery at %v before one propagation delay", firstDelivery)
	}
	// All bytes delivered; the bulk (relayed) took >= 2 props. Check the
	// flow's completion.
	r := e.Results()
	if r.FCT.Count() != 1 {
		t.Fatal("flow incomplete")
	}
	if fct := r.FCT.P(100); fct < 2*cfg.Timing.PropDelay {
		t.Errorf("FCT %v < two propagation delays; relay must traverse two hops", fct)
	}
}

// TestChunkGranularityConfigurable: chunkCells controls lane assignment
// granularity.
func TestChunkGranularityConfigurable(t *testing.T) {
	e, _ := New(testConfig(t))
	if e.chunkCells != 4 {
		t.Fatalf("default chunk = %d, want 4", e.chunkCells)
	}
	e.chunkCells = 1
	// Finer chunks spread a mid-size flow over more lanes.
	e.SetWorkload(workload.NewSinglePair(2, 9, 10*615*4, 0))
	e.Inject(0)
	lanes1 := 0
	for k := 0; k < e.n; k++ {
		if e.Nodes[2].Lanes.Bytes(k) > 0 {
			lanes1++
		}
	}
	if lanes1 < 8 {
		t.Errorf("1-cell chunks used %d lanes for a 40-cell flow, want many", lanes1)
	}
}

// TestObliviousTopologyIndependence: the paper notes the relay-enabled
// round-robin performs identically on both topologies; goodput under the
// same saturated workload must be close.
func TestObliviousTopologyIndependence(t *testing.T) {
	run := func(top topo.Topology) float64 {
		cfg := testConfig(t)
		cfg.Topology = top
		e, _ := New(cfg)
		e.SetWorkload(workload.NewPoisson(workload.Hadoop(), 16, 1.0, cfg.HostRate, 5))
		e.Run(2 * sim.Millisecond)
		r := e.Results()
		return r.Goodput.Normalized(r.Duration, cfg.HostRate)
	}
	p, _ := topo.NewParallel(16, 4)
	tc, _ := topo.NewThinClos(16, 4, 4)
	gp, gtc := run(p), run(tc)
	if math.Abs(gp-gtc) > 0.1*math.Max(gp, gtc) {
		t.Errorf("topology changed oblivious goodput: parallel %.3f vs thin-clos %.3f", gp, gtc)
	}
}
