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
// slot by slot. Two identical engines run the same workload, one forced
// onto the holder walk and one onto the destination-inverted walk, whatever
// the cost rule would pick. After every round each shard's
// consumed-connection stamps and per-destination delivered bytes, the
// fabric's delivered total and every node's relay backlog must match; the
// inverted walk must leave its candidate marks empty; and the drained
// runs must end with the same results. The parallel case pads its
// schedule (S=5 does not divide N-1=23) and the failure cases fire both
// the known-down gate and the undetected-loss path.
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
	build := func(invert bool) *Engine {
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
		if invert {
			e.stepDrain = func(k int) {
				sh := e.shards[k]
				dsts, nd := sh.fs.RelayDsts()
				if nd > 0 {
					inverted[k]++
				}
				sh.drainSparse(dsts, e.Rounds())
			}
		} else {
			e.stepDrain = func(k int) { e.shards[k].drainHolders(e.Rounds()) }
		}
		e.SetWorkload(workload.NewPoisson(workload.Hadoop(), top.N(), 0.7, cfg.HostRate, 7))
		return e
	}
	hold, inv := build(false), build(true)
	if len(hold.shards) != workers {
		t.Fatalf("%d shards, want %d", len(hold.shards), workers)
	}

	// 1000 slots of arrivals (60 us), then step until the fabric drains.
	const arrivalRounds = 1000
	for round := 0; ; round++ {
		if round == arrivalRounds {
			hold.SetWorkload(nil)
			inv.SetWorkload(nil)
		}
		if round > arrivalRounds && hold.WorkloadDone() && hold.Ledger.Queued() == 0 {
			break
		}
		if round == 200_000 {
			t.Fatal("fabric did not drain")
		}
		hold.RunRound()
		inv.RunRound()
		if hold.Ledger.Delivered != inv.Ledger.Delivered {
			t.Fatalf("round %d: delivered %d (holder walk) vs %d (inverted walk)",
				round, hold.Ledger.Delivered, inv.Ledger.Delivered)
		}
		for k, hs := range hold.shards {
			is := inv.shards[k]
			if !slices.Equal(hs.usedStamp, is.usedStamp) {
				t.Fatalf("round %d shard %d: consumed connections differ\nholder:   %v\ninverted: %v",
					round, k, hs.usedStamp, is.usedStamp)
			}
			if !slices.Equal(hs.fs.Goodput.PerToR(), is.fs.Goodput.PerToR()) {
				t.Fatalf("round %d shard %d: delivered bytes per destination differ", round, k)
			}
			if n := is.drainMarks.Count(); n != 0 {
				t.Fatalf("round %d shard %d: inverted walk left %d candidate marks set", round, k, n)
			}
		}
		for i, nd := range hold.Nodes {
			if nd.Relay.Total != inv.Nodes[i].Relay.Total {
				t.Fatalf("round %d node %d: relay backlog %d (holder walk) vs %d (inverted walk)",
					round, i, nd.Relay.Total, inv.Nodes[i].Relay.Total)
			}
		}
	}

	results := func(e *Engine) string {
		r := e.Results()
		return fmt.Sprintf("%v p99=%v injected=%d delivered=%d lost=%d relayed=%d duration=%v cdf=%v",
			r.FCT, r.FCT.P(99), r.Injected, r.Delivered, r.LostBytes, e.relayed, r.Duration, r.FCT.MiceCDF(24))
	}
	if h, i := results(hold), results(inv); h != i {
		t.Fatalf("results differ\nholder:   %s\ninverted: %s", h, i)
	}
	if hold.relayed == 0 || slices.Max(inverted) == 0 {
		t.Fatalf("no relay traffic to drain (relayed %d, inverted-walk slots %v)", hold.relayed, inverted)
	}
	if failures && hold.Results().LostBytes == 0 {
		t.Fatal("failure plan destroyed nothing: the undetected-loss path never ran")
	}
}
