package match

import (
	"fmt"
	"testing"

	"negotiator/internal/sim"
	"negotiator/internal/topo"
)

// benchView is a minimal QueueView for arbitration benchmarks: every
// destination reports the same demand.
type benchView struct{ n int }

func (v *benchView) QueuedBytes(int) int64            { return 1 << 20 }
func (v *benchView) WeightedHoL(int, float64) float64 { return 1 }
func (v *benchView) NextDemand(after int) int {
	if after+1 < v.n {
		return after + 1
	}
	return -1
}

// BenchmarkGrantsParallel measures the GRANT step at one destination of an
// 8-port parallel network with k requesters spread over the fabric, at 128
// and 65,536 ToRs: one pass keeps the S nearest requesters, so the cost
// follows k and S, not the width.
func BenchmarkGrantsParallel(b *testing.B) {
	for _, n := range []int{128, 65536} {
		top, err := topo.NewParallel(n, 8)
		if err != nil {
			b.Fatal(err)
		}
		m := NewNegotiator(top, sim.NewRNG(1))
		for _, k := range []int{1, 2, 8, 32} {
			var reqs []Request
			for i := 0; i < k; i++ {
				reqs = append(reqs, Request{Src: 1 + i*(n/k), Dst: 0, Port: -1})
			}
			emit := func(Grant) {}
			b.Run(fmt.Sprintf("n%d/k%d", n, k), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					m.Grants(0, reqs, emit)
				}
			})
		}
	}
}

// BenchmarkGrantsThinClos measures the GRANT step at one destination of a
// 1024-ToR thin-clos fabric (64 ports, 16-wide domains) with one requester
// in every fourth port domain, the sparse regime where the per-port cost
// dominates: the requesters are bucketed by path port and each port's
// ring takes the nearest in its bucket.
func BenchmarkGrantsThinClos(b *testing.B) {
	tc, err := topo.NewThinClos(1024, 64, 16)
	if err != nil {
		b.Fatal(err)
	}
	m := NewNegotiator(tc, sim.NewRNG(1))
	dst := 0
	var reqs []Request
	for p := 0; p < 64; p += 4 {
		dom := tc.PortDomain(dst, p)
		reqs = append(reqs, Request{Src: dom[p%16], Dst: dst, Port: -1})
	}
	emit := func(Grant) {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Grants(dst, reqs, emit)
	}
}

// BenchmarkAcceptsThinClos measures the ACCEPT step at one source of the
// same fabric holding one grant on every fourth port; each port's ring
// takes the granter nearest its pointer.
func BenchmarkAcceptsThinClos(b *testing.B) {
	tc, err := topo.NewThinClos(1024, 64, 16)
	if err != nil {
		b.Fatal(err)
	}
	m := NewNegotiator(tc, sim.NewRNG(1))
	src := 0
	var grants []Grant
	for p := 0; p < 64; p += 4 {
		dom := tc.PortDomain(src, p)
		grants = append(grants, Grant{Dst: dom[(p+3)%16], Port: p, Src: src})
	}
	matches := make([]int32, 64)
	view := &benchView{n: 1024}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Accepts(src, view, grants, matches, nil)
	}
}
