package oblivious

import (
	"fmt"
	"testing"

	"negotiator/internal/queue"
	"negotiator/internal/sim"
	"negotiator/internal/topo"
	"negotiator/internal/workload"
)

// TestOccupancyInvariant runs every service discipline with per-round
// invariant checking on (relay counter, byte conservation, and the
// occupancy-index/shadow exactness of fabric.Core.CheckOccupancy) across
// worker counts. Run in CI under -race at -cpu 1,2,4.
func TestOccupancyInvariant(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Config)
	}{
		{"sirius-lanes", func(c *Config) {}},
		{"opportunistic", func(c *Config) { c.OpportunisticDirect = true }},
		{"no-priority", func(c *Config) { c.PriorityQueues = false }},
	}
	for _, c := range cases {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/workers=%d", c.name, workers), func(t *testing.T) {
				cfg := testConfig(t)
				cfg.Workers = workers
				c.mut(&cfg)
				e, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				e.SetWorkload(workload.NewPoisson(workload.Hadoop(), 16, 0.9, cfg.HostRate, 7))
				e.Run(100 * sim.Microsecond)
				e.SetWorkload(nil)
				e.Drain(20000)
			})
		}
	}

	// Sparse permutation with the opportunistic discipline: idle sources
	// never materialize direct slabs and spray intermediates materialize
	// relay slabs only, so each per-round CheckOccupancy also asserts the
	// lazy-slab contract (unmaterialized classes report empty/zero).
	t.Run("sparse-lazy", func(t *testing.T) {
		cfg := testConfig(t)
		cfg.OpportunisticDirect = true
		perm, err := workload.NewPermutation(16, 4, 1<<18, 0)
		if err != nil {
			t.Fatal(err)
		}
		e, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		e.SetWorkload(perm)
		e.Run(100 * sim.Microsecond)
		e.SetWorkload(nil)
		if !e.Drain(20000) {
			t.Fatal("sparse permutation did not drain")
		}
		for i := 4; i < 16; i++ {
			if e.Nodes[i].Direct.Slab.Materialized() {
				t.Fatalf("idle source %d materialized a direct slab", i)
			}
		}
	})

	// Page-granularity lazy contract: at 256 ToRs the slabs span two
	// pages, and a permutation confined to the first 16 destinations must
	// keep direct VOQ and relay pages outside the active range
	// unmaterialized on every node — spray pushes relay data into all
	// intermediates, but only for active destinations. Lanes are indexed
	// by intermediate, so they legitimately span the full width.
	t.Run("paged-sparse", func(t *testing.T) {
		top, err := topo.NewParallel(2*queue.PageSize, 8)
		if err != nil {
			t.Fatal(err)
		}
		cfg := Config{
			Topology:            top,
			HostRate:            sim.Gbps(200),
			PriorityQueues:      true,
			Seed:                1,
			CheckInvariants:     true,
			OpportunisticDirect: true,
		}
		perm, err := workload.NewPermutation(2*queue.PageSize, 16, 1<<18, 0)
		if err != nil {
			t.Fatal(err)
		}
		e, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		e.SetWorkload(perm)
		e.Run(200 * sim.Microsecond)
		e.SetWorkload(nil)
		if !e.Drain(60000) {
			t.Fatal("paged sparse permutation did not drain")
		}
		lastDst := 2*queue.PageSize - 1
		for i, nd := range e.Nodes {
			if nd.Direct.Slab.PageMaterialized(lastDst) {
				t.Fatalf("node %d materialized a direct page outside the active range", i)
			}
			if nd.Relay.Slab.PageMaterialized(lastDst) {
				t.Fatalf("node %d materialized a relay page outside the active range", i)
			}
		}
	})
}
