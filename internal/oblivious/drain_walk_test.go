package oblivious

import (
	"fmt"
	"slices"
	"testing"

	"negotiator/internal/failure"
	"negotiator/internal/sim"
	"negotiator/internal/topo"
	"negotiator/internal/workload"
)

// TestDrainWalksAgree pins drainStep's two relay-drain walks to each other
// and the occupancy gates of both slot phases to an ungated reference,
// slot by slot. Three identical engines run the same workload: one forced
// onto the holder walk and one onto the destination-inverted walk,
// whatever the cost rule would pick, and one running ungatedDrain and
// ungatedServe, which probe every connection's queue without reading the
// occupancy bits first. The two walks share drainConn's gate, so the
// reference is the only slot-level check of it. After every
// round each twin's consumed-connection stamps and per-destination
// delivered bytes, the fabric's delivered total and every node's relay
// and lane backlogs must match the holder engine's; the inverted walk
// must leave its candidate marks empty; and the drained runs must end
// with the same results. The parallel case pads its schedule (S=5 does
// not divide N-1=23) and the failure cases fire both the known-down gate
// and the undetected-loss path.
func TestDrainWalksAgree(t *testing.T) {
	par, err := topo.NewParallel(24, 5)
	if err != nil {
		t.Fatal(err)
	}
	tc, err := topo.NewThinClos(24, 6, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, top := range []topo.Topology{par, tc} {
		for _, failures := range []bool{false, true} {
			for _, workers := range []int{1, 3} {
				name := fmt.Sprintf("%s/failures=%v/workers=%d", top.Name(), failures, workers)
				t.Run(name, func(t *testing.T) {
					drainWalksAgree(t, top, failures, workers)
				})
			}
		}
	}
}

func drainWalksAgree(t *testing.T, top topo.Topology, failures bool, workers int) {
	// inverted[k] counts the slots in which shard k's inverted walk had
	// relay destinations to mark (each shard writes only its own entry).
	inverted := make([]int, workers)
	build := func(walk string) *Engine {
		cfg := Config{
			Topology:       top,
			HostRate:       sim.Gbps(200),
			PriorityQueues: true,
			Seed:           1,
			Workers:        workers,
		}
		if failures {
			cfg.Failures = failure.Random(top.N(), top.Ports(), 0.2,
				sim.Time(10*sim.Microsecond), sim.Time(30*sim.Microsecond), 2*sim.Microsecond, 9)
		}
		e, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		switch walk {
		case "holder":
			e.stepDrain = func(k int) { e.shards[k].drainHolders(e.Rounds()) }
		case "inverted":
			e.stepDrain = func(k int) {
				sh := e.shards[k]
				dsts, nd := sh.fs.RelayDsts()
				if nd > 0 {
					inverted[k]++
				}
				sh.drainSparse(dsts, e.Rounds())
			}
		case "ungated":
			e.stepDrain = func(k int) { e.shards[k].ungatedDrain(e.Rounds()) }
			e.stepServe = func(k int) { e.shards[k].ungatedServe(e.Rounds()) }
		}
		e.SetWorkload(workload.NewPoisson(workload.Hadoop(), top.N(), 0.7, cfg.HostRate, 7))
		return e
	}
	hold := build("holder")
	twins := []struct {
		name string
		e    *Engine
	}{{"inverted walk", build("inverted")}, {"ungated reference", build("ungated")}}
	if len(hold.shards) != workers {
		t.Fatalf("%d shards, want %d", len(hold.shards), workers)
	}
	agree := func(round int, name string, tw *Engine) {
		t.Helper()
		if hold.Ledger.Delivered != tw.Ledger.Delivered {
			t.Fatalf("round %d: delivered %d (holder walk) vs %d (%s)",
				round, hold.Ledger.Delivered, tw.Ledger.Delivered, name)
		}
		for k, hs := range hold.shards {
			ts := tw.shards[k]
			if !slices.Equal(hs.usedStamp, ts.usedStamp) {
				t.Fatalf("round %d shard %d: consumed connections differ\nholder: %v\n%s: %v",
					round, k, hs.usedStamp, name, ts.usedStamp)
			}
			if !slices.Equal(hs.fs.Goodput.PerToR(), ts.fs.Goodput.PerToR()) {
				t.Fatalf("round %d shard %d: delivered bytes per destination differ (%s)", round, k, name)
			}
			if n := ts.drainMarks.Count(); n != 0 {
				t.Fatalf("round %d shard %d: %s left %d candidate marks set", round, k, name, n)
			}
		}
		for i := range hold.Nodes {
			nd := &hold.Nodes[i]
			if tn := &tw.Nodes[i]; nd.Relay.Total != tn.Relay.Total || nd.Lanes.Total != tn.Lanes.Total {
				t.Fatalf("round %d node %d: relay/lane backlog %d/%d (holder walk) vs %d/%d (%s)",
					round, i, nd.Relay.Total, nd.Lanes.Total, tn.Relay.Total, tn.Lanes.Total, name)
			}
		}
	}

	// 1000 slots of arrivals (60 us), then step until the fabric drains.
	const arrivalRounds = 1000
	for round := 0; ; round++ {
		if round == arrivalRounds {
			hold.SetWorkload(nil)
			for _, tw := range twins {
				tw.e.SetWorkload(nil)
			}
		}
		if round > arrivalRounds && hold.WorkloadDone() && hold.Ledger.Queued() == 0 {
			break
		}
		if round == 200_000 {
			t.Fatal("fabric did not drain")
		}
		hold.RunRound()
		for _, tw := range twins {
			tw.e.RunRound()
			agree(round, tw.name, tw.e)
		}
	}

	results := func(e *Engine) string {
		r := e.Results()
		return fmt.Sprintf("%v p99=%v injected=%d delivered=%d lost=%d relayed=%d duration=%v cdf=%v",
			r.FCT, r.FCT.P(99), r.Injected, r.Delivered, r.LostBytes, e.relayed, r.Duration, r.FCT.MiceCDF(24))
	}
	for _, tw := range twins {
		if h, w := results(hold), results(tw.e); h != w {
			t.Fatalf("results differ\nholder: %s\n%s: %s", h, tw.name, w)
		}
	}
	if hold.relayed == 0 || slices.Max(inverted) == 0 {
		t.Fatalf("no relay traffic to drain (relayed %d, inverted-walk slots %v)", hold.relayed, inverted)
	}
	if failures && hold.Results().LostBytes == 0 {
		t.Fatal("failure plan destroyed nothing: the undetected-loss path never ran")
	}
}

// ungatedDrain is the reference for drainConn's occupancy gate: the
// holder walk with every port of every relay holder probing its queue,
// gated only by the known-down link and the FIFO's own HeadReady.
func (sh *obShard) ungatedDrain(slotNo int64) {
	e := sh.e
	occ := &sh.fs.ActiveRelay
	for bit := occ.Next(-1); bit >= 0; bit = occ.Next(bit) {
		i := sh.lo + bit
		for s := 0; s < e.s; s++ {
			j := e.top.PredefinedPeer(i, s, e.slotT, e.slotRot)
			if j < 0 || e.known.Down(i, j, s) {
				continue
			}
			src := &e.Nodes[i]
			if !src.Relay.HeadReady(j, e.slotStart) {
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

// ungatedServe is the reference for serveStep's lane occupancy gate:
// every free port of every lane holder reaches serveLanes, whose HeadDst
// read finds the empty lanes.
func (sh *obShard) ungatedServe(slotNo int64) {
	e := sh.e
	occ := &sh.fs.ActiveLanes
	for bit := occ.Next(-1); bit >= 0; bit = occ.Next(bit) {
		i := sh.lo + bit
		src := &e.Nodes[i]
		for s := 0; s < e.s; s++ {
			if sh.usedStamp[(i-sh.lo)*e.s+s] == slotNo+1 {
				continue
			}
			j := e.top.PredefinedPeer(i, s, e.slotT, e.slotRot)
			if j < 0 || e.known.Down(i, j, s) {
				continue
			}
			sh.txNode = src
			sh.txLost = e.actual.Down(i, j, s)
			sh.serveLanes(src, i, j)
		}
	}
}
