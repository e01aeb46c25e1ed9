package hybrid

import (
	"fmt"
	"testing"

	"negotiator/internal/negotiator"
	"negotiator/internal/queue"
	"negotiator/internal/sim"
	"negotiator/internal/topo"
	"negotiator/internal/workload"
)

// TestOccupancyInvariant runs the hybrid plane with per-round invariant
// checking on (byte conservation plus the occupancy-index/shadow
// exactness of fabric.Core.CheckOccupancy): the mice sweep iterates
// Lanes.Occ and the elephant demand view Direct.Occ, so both index classes
// are exercised under churn. Run in CI under -race at -cpu 1,2,4.
func TestOccupancyInvariant(t *testing.T) {
	for _, pq := range []bool{false, true} {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("pq=%v/workers=%d", pq, workers), func(t *testing.T) {
				top, err := topo.NewParallel(16, 4)
				if err != nil {
					t.Fatal(err)
				}
				e, err := New(negotiator.Config{
					Topology:        top,
					PriorityQueues:  pq,
					Seed:            1,
					CheckInvariants: true,
					Workers:         workers,
				})
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

	// Sparse permutation leaving most nodes unmaterialized: each
	// per-round CheckOccupancy also asserts the lazy-slab contract.
	t.Run("sparse-lazy", func(t *testing.T) {
		top, err := topo.NewParallel(64, 4)
		if err != nil {
			t.Fatal(err)
		}
		e, err := New(negotiator.Config{Topology: top, Seed: 1, CheckInvariants: true})
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
			if e.Nodes[i].Direct.Slab.Materialized() || e.Nodes[i].Lanes.Slab.Materialized() {
				t.Fatalf("idle node %d materialized", i)
			}
		}
	})

	// Page-granularity lazy contract: at 256 ToRs a permutation confined
	// to the first 16 destinations keeps elephant VOQ and relay pages
	// outside the active destination range unmaterialized (spray lanes are
	// indexed by intermediate, so they legitimately span the full width).
	t.Run("paged-sparse", func(t *testing.T) {
		top, err := topo.NewParallel(2*queue.PageSize, 8)
		if err != nil {
			t.Fatal(err)
		}
		e, err := New(negotiator.Config{Topology: top, Seed: 1, CheckInvariants: true})
		if err != nil {
			t.Fatal(err)
		}
		perm, err := workload.NewPermutation(2*queue.PageSize, 16, 1<<18, 0)
		if err != nil {
			t.Fatal(err)
		}
		e.SetWorkload(perm)
		e.RunEpochs(30)
		e.SetWorkload(nil)
		if !e.Drain(8000) {
			t.Fatal("paged sparse permutation did not drain")
		}
		lastDst := 2*queue.PageSize - 1
		for i := range e.Nodes {
			nd := &e.Nodes[i]
			if nd.Direct.Slab.PageMaterialized(lastDst) {
				t.Fatalf("node %d materialized a direct page outside the active range", i)
			}
			if nd.Relay.Slab.PageMaterialized(lastDst) {
				t.Fatalf("node %d materialized a relay page outside the active range", i)
			}
		}
	})
}
