package negotiator_test

import (
	"runtime/debug"
	"testing"

	negotiator "negotiator"
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
				defer debug.SetGCPercent(debug.SetGCPercent(-1))
				return testing.AllocsPerRun(1, func() {
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
