package negotiator

import (
	"fmt"
	"testing"

	"negotiator/internal/failure"
	"negotiator/internal/queue"
	"negotiator/internal/sim"
	"negotiator/internal/topo"
	"negotiator/internal/workload"
)

// TestOccupancyInvariant runs the engine with per-round invariant
// checking on (which asserts, after every epoch's merge, that the
// occupancy indexes and the per-page byte counters exactly match queue
// contents — fabric.Core.CheckOccupancy) across the features that stress
// the choke points: priority queues, failures with loss requeue, and the
// selective relay's cross-ToR pushes. Run in CI under -race at
// -cpu 1,2,4 together with the worker sweep here.
func TestOccupancyInvariant(t *testing.T) {
	ep := DefaultTiming().EpochLen(4) // 16x4 thin-clos epoch, for failure timing
	cases := []struct {
		name string
		cfg  func(t *testing.T) Config
	}{
		{"piggyback-priority-parallel", func(t *testing.T) Config {
			top, err := topo.NewParallel(16, 4)
			if err != nil {
				t.Fatal(err)
			}
			return Config{Topology: top, Piggyback: true, PriorityQueues: true, Seed: 1}
		}},
		{"failures-parallel", func(t *testing.T) Config {
			top, err := topo.NewParallel(16, 4)
			if err != nil {
				t.Fatal(err)
			}
			return Config{
				Topology:       top,
				Piggyback:      true,
				PriorityQueues: true,
				Seed:           1,
				Failures:       failure.Random(16, 4, 0.25, sim.Time(20*ep), sim.Time(60*ep), 3*ep, 9),
			}
		}},
		{"relay-thinclos", func(t *testing.T) Config {
			tc, err := topo.NewThinClos(16, 4, 4)
			if err != nil {
				t.Fatal(err)
			}
			return Config{Topology: tc, Piggyback: true, PriorityQueues: true, Seed: 1, Relay: true}
		}},
		{"plain-thinclos", func(t *testing.T) Config {
			tc, err := topo.NewThinClos(16, 4, 4)
			if err != nil {
				t.Fatal(err)
			}
			return Config{Topology: tc, Seed: 1}
		}},
	}
	for _, c := range cases {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/workers=%d", c.name, workers), func(t *testing.T) {
				cfg := c.cfg(t)
				cfg.CheckInvariants = true
				cfg.Workers = workers
				e, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				e.SetWorkload(workload.NewPoisson(workload.Hadoop(), 16, 0.9, sim.Gbps(400), 7))
				e.RunEpochs(120)
				e.SetWorkload(nil)
				e.Drain(4000)
			})
		}
	}

	// Sparse permutation over a quarter of the fabric: most nodes never
	// materialize, so every per-round CheckOccupancy pass also asserts
	// the lazy-slab contract (unmaterialized nodes report empty/zero
	// everywhere) while matched ToRs exercise the occupancy paths.
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("sparse-lazy/workers=%d", workers), func(t *testing.T) {
			top, err := topo.NewParallel(64, 4)
			if err != nil {
				t.Fatal(err)
			}
			e, err := New(Config{
				Topology:        top,
				Piggyback:       true,
				PriorityQueues:  true,
				Seed:            1,
				CheckInvariants: true,
				Workers:         workers,
			})
			if err != nil {
				t.Fatal(err)
			}
			perm, err := workload.NewPermutation(64, 16, 1<<20, 0)
			if err != nil {
				t.Fatal(err)
			}
			e.SetWorkload(perm)
			e.RunEpochs(40)
			e.SetWorkload(nil)
			if !e.Drain(4000) {
				t.Fatal("sparse permutation did not drain")
			}
			for i := 16; i < 64; i++ {
				if e.Nodes[i].Direct.Slab.Materialized() {
					t.Fatalf("idle node %d materialized", i)
				}
			}
		})
	}

	// Page-granularity lazy contract: at 256 ToRs the direct slab spans
	// two pages, and a permutation confined to the first 16 destinations
	// must materialize page 0 only. Every per-round CheckOccupancy pass
	// also asserts page counters match queue contents and absent pages
	// carry no shadow or occupancy residue.
	t.Run("paged-sparse", func(t *testing.T) {
		top, err := topo.NewParallel(2*queue.PageSize, 8)
		if err != nil {
			t.Fatal(err)
		}
		e, err := New(Config{
			Topology:        top,
			Piggyback:       true,
			PriorityQueues:  true,
			Seed:            1,
			CheckInvariants: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		perm, err := workload.NewPermutation(2*queue.PageSize, 16, 1<<20, 0)
		if err != nil {
			t.Fatal(err)
		}
		e.SetWorkload(perm)
		e.RunEpochs(30)
		e.SetWorkload(nil)
		if !e.Drain(8000) {
			t.Fatal("paged sparse permutation did not drain")
		}
		for i, nd := range e.Nodes {
			if i >= 16 && nd.Direct.Slab.Materialized() {
				t.Fatalf("idle node %d materialized", i)
			}
			if nd.Direct.Slab.PageMaterialized(2*queue.PageSize - 1) {
				t.Fatalf("node %d materialized a direct page outside the active range", i)
			}
		}
	})
}
