package negotiator_test

import (
	"runtime"
	"runtime/debug"
	"testing"

	negotiator "negotiator"
	"negotiator/internal/workload"
)

// TestBuildAllocationsFlat: Spec.Build makes as many heap allocations at
// 65,536 ToRs as at 1,024, on the NegotiaToR plane (base and batch
// matchers, receiver buffers), the oblivious plane and the hybrid plane on
// thin-clos. Every per-ToR table (fabric nodes, match rings, mailbox
// headers, match rows, receiver buffers) is one flat array; a table that
// goes back to one object per ToR shows up here as ~65,000 extra
// allocations.
func TestBuildAllocationsFlat(t *testing.T) {
	if testing.Short() {
		t.Skip("65,536-ToR builds in -short mode")
	}
	for _, tc := range []struct {
		name  string
		shape func(s *negotiator.Spec)
	}{
		{"negotiator", func(s *negotiator.Spec) {}},
		{"negotiator-iterative", func(s *negotiator.Spec) { s.Scheduler = negotiator.Iterative1 }},
		{"negotiator-receiver-buffers", func(s *negotiator.Spec) { s.TrackReceiverBuffers = true }},
		{"oblivious", func(s *negotiator.Spec) { s.ControlPlane = negotiator.ObliviousPlane }},
		{"hybrid-thin-clos", func(s *negotiator.Spec) {
			s.ControlPlane = negotiator.HybridPlane
			s.Topology = negotiator.ThinClos
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			allocs := func(tors int) float64 {
				s := negotiator.DefaultSpec()
				s.ToRs, s.AWGRPorts = tors, tors/s.Ports
				tc.shape(&s)
				// A collection during the build can allocate in the
				// runtime itself (timers, mark workers): keep it out.
				// The runtime also fills a type assertion's cache, one
				// allocation, on a random ~1 in 1,024 of the assertions
				// that miss it (runtime.typeAssert), so a single build
				// may count one stray allocation; the mean over four
				// builds, which AllocsPerRun truncates, drops it, while a
				// per-ToR table still adds thousands to every build.
				defer debug.SetGCPercent(debug.SetGCPercent(-1))
				return testing.AllocsPerRun(4, func() {
					if _, err := s.Build(); err != nil {
						t.Fatal(err)
					}
				})
			}
			small, large := allocs(1024), allocs(65536)
			t.Logf("Build allocations: %v at 1,024 ToRs, %v at 65,536", small, large)
			if small != large {
				t.Errorf("Build makes %v allocations at 1,024 ToRs but %v at 65,536: a per-ToR table allocates per ToR", small, large)
			}
		})
	}
}

// TestGroupedInjectionAggregates: flow grouping pays on the NegotiaToR
// plane. A 65,536-ToR fabric takes 256 permutation pairs of 4,096 host
// flows of 2,460 B each, once as one group record per pair and once as
// 4,096 separate arrivals per pair; the first epoch, which admits them
// all, must allocate at least 10x less per host flow grouped — the floor
// BenchmarkMillionFlowGroups sets on the slot plane. Grouping saves the
// flow records and queue segments the members would take; what the
// grouped epoch still allocates must not grow with the fabric width (an
// N-wide table per active source, as the stateful matcher's arrival
// counts once were, costs 512 KB a source here and held the saving to
// 2x).
func TestGroupedInjectionAggregates(t *testing.T) {
	if testing.Short() {
		t.Skip("65,536-ToR fabrics in -short mode")
	}
	const pairs, members = 256, 4096
	firstEpoch := func(grouped bool) float64 {
		s := negotiator.DefaultSpec()
		s.ToRs, s.AWGRPorts = 65536, 65536/s.Ports
		fab, err := s.Build()
		if err != nil {
			t.Fatal(err)
		}
		perm, err := negotiator.PermutationWorkload(s, pairs, 2460, 0)
		if err != nil {
			t.Fatal(err)
		}
		w := &replicate{w: perm, k: members}
		if grouped {
			g, err := negotiator.GroupWorkload(perm, members)
			if err != nil {
				t.Fatal(err)
			}
			w = &replicate{w: g, k: 1}
		}
		fab.SetWorkload(w)
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		fab.RunEpochs(1) // every arrival is at t=0: the first epoch admits them all
		runtime.ReadMemStats(&after)
		if !w.done {
			t.Fatal("the first epoch did not admit the whole workload")
		}
		return float64(after.TotalAlloc-before.TotalAlloc) / (pairs * members)
	}
	ungrouped := firstEpoch(false)
	grouped := firstEpoch(true)
	t.Logf("first epoch allocates %.1f B per host flow grouped, %.1f ungrouped (%.1fx)", grouped, ungrouped, ungrouped/grouped)
	if grouped*10 > ungrouped {
		t.Errorf("grouped injection costs %.1f B per host flow, ungrouped %.1f: less than the 10x aggregation floor", grouped, ungrouped)
	}
}

// replicate emits each arrival of w k times: k separate host flows where
// a group record would stand for k. done reports that w has ended.
type replicate struct {
	w    negotiator.Workload
	k    int
	a    workload.Arrival
	left int
	done bool
}

func (r *replicate) Next() (workload.Arrival, bool) {
	if r.left == 0 {
		a, ok := r.w.Next()
		if !ok {
			r.done = true
			return a, false
		}
		r.a, r.left = a, r.k
	}
	r.left--
	return r.a, true
}
