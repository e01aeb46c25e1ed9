package fabric

import (
	"strings"
	"testing"

	"negotiator/internal/flows"
	"negotiator/internal/queue"
	"negotiator/internal/sim"
	"negotiator/internal/topo"
	"negotiator/internal/workload"
)

// TestDeferredPageRelease: a page whose last byte drains is returned to
// the pool once it has sat empty and untouched for pageReleaseAge merges,
// after which every accessor reads it as empty and CheckOccupancy still
// passes — release is invisible to the simulation.
func TestDeferredPageRelease(t *testing.T) {
	c, _ := testCore(t, workload.NewSinglePair(0, 1, 5000, 0), 1<<20)
	if !c.Drain(4) {
		t.Fatal("single pair did not drain")
	}
	nd := &c.Nodes[0]
	if !nd.Direct.Slab.Materialized() || !nd.Direct.Slab.PageMaterialized(1) {
		t.Fatal("drained page released before the hysteresis age")
	}
	// Idle rounds age the candidate past pageReleaseAge; the merge then
	// returns the page to the pool.
	for i := 0; i < int(pageReleaseAge)+2; i++ {
		c.RunRound()
	}
	if nd.Direct.Slab.PageMaterialized(1) {
		t.Fatal("empty page not released after the hysteresis age")
	}
	if got := nd.Direct.Bytes(1); got != 0 {
		t.Fatalf("released page reports %d bytes", got)
	}
	if nd.Direct.Bytes(1) != 0 || nd.Direct.Occ.Has(1) {
		t.Fatal("release left byte or occupancy residue")
	}
	c.CheckOccupancy()

	// A later push re-materializes the page from the pool and the fabric
	// behaves as if nothing happened.
	f := &flows.Flow{ID: 99, Src: 0, Dst: 1, Size: 800}
	c.Ledger.Injected += 800
	nd.Direct.Push(1, f, f.Total(), 0, c.Now())
	if !nd.Direct.Slab.PageMaterialized(1) || nd.Direct.Bytes(1) != 800 {
		t.Fatalf("re-materialized page holds %d bytes, want 800", nd.Direct.Bytes(1))
	}
	c.CheckOccupancy()
	if !c.Drain(4) {
		t.Fatal("re-materialized page did not drain")
	}
}

// TestChurningPageStaysMaterialized: a page emptied and refilled every
// round moves its touch version, refuting each release candidate — it
// must never be released, so steady state never pays a
// release/re-materialize cycle.
func TestChurningPageStaysMaterialized(t *testing.T) {
	c, _ := testCore(t, nil, 1<<20)
	c.SetWorkload(nil)
	nd := &c.Nodes[0]
	sh := c.Shards[0]
	for round := 0; round < 4*int(pageReleaseAge); round++ {
		if round > 0 && !nd.Direct.Slab.PageMaterialized(1) {
			t.Fatalf("churning page released at round %d", round)
		}
		f := &flows.Flow{ID: int64(round), Src: 0, Dst: 1, Size: 700}
		c.Ledger.Injected += 700
		nd.Direct.Push(1, f, f.Total(), 0, c.Now())
		nd.Direct.Take(1, 1<<20, func(f *flows.Flow, n int64) {
			f.NoteSent(n)
			sh.Deliver(f, 1, n, c.Now())
		})
		c.RunRound()
	}
	if !nd.Direct.Slab.PageMaterialized(1) {
		t.Fatal("churning page released despite per-round touches")
	}
	c.CheckOccupancy()
}

// TestUnmaterializedPageResiduePanics: an occupancy bit pointing into an
// absent page claims backlog the queues cannot hold — CheckOccupancy
// must panic naming the page.
func TestUnmaterializedPageResiduePanics(t *testing.T) {
	top, err := topo.NewParallel(2*queue.PageSize, 2)
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(Config{Topology: top, HostRate: sim.Gbps(400)})
	if err != nil {
		t.Fatal(err)
	}
	nd := &c.Nodes[0]
	f := &flows.Flow{ID: 1, Src: 0, Dst: 1, Size: 1000}
	nd.Direct.Push(1, f, f.Total(), 0, 0) // materializes the slab and page 0 only
	c.CheckOccupancy()

	nd.Direct.Occ.Set(queue.PageSize + 5) // residue in absent page 1
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("CheckOccupancy accepted occupancy residue in an unmaterialized page")
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, "unmaterialized direct page 1") {
			t.Fatalf("panic %q does not name the absent page", r)
		}
	}()
	c.CheckOccupancy()
}

// TestPageCounterDriftPanics: a page byte counter that disagrees with the
// sum of its queues is caught by the page-wise sweep.
func TestPageCounterDriftPanics(t *testing.T) {
	c, _ := testCore(t, nil, 1<<20)
	c.SetWorkload(nil)
	nd := &c.Nodes[0]
	f := &flows.Flow{ID: 1, Src: 0, Dst: 1, Size: 1000}
	c.Ledger.Injected += 1000
	nd.Direct.Push(1, f, f.Total(), 0, 0)
	c.CheckOccupancy()

	nd.Direct.Slab.Add(1, 32) // drift the page counter with no queued bytes behind it
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("CheckOccupancy accepted a drifted page counter")
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, "page 0 counter") {
			t.Fatalf("panic %q does not name the drifted page counter", r)
		}
	}()
	c.CheckOccupancy()
}
