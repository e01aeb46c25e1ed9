package topo

import "testing"

// BenchmarkPredefinedPeer measures the per-connection schedule lookup at
// paper scale, the reference the slot loops' SlotSchedule replaces.
func BenchmarkPredefinedPeer(b *testing.B) {
	p, err := NewParallel(128, 8)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p.PredefinedPeer(i%128, i%8, i%16, i)
	}
}

// BenchmarkPredefinedSlotPort measures the inverse lookup used per
// ToR-pair per epoch for piggybacking, on both topologies at paper scale.
func BenchmarkPredefinedSlotPort(b *testing.B) {
	par, err := NewParallel(128, 8)
	if err != nil {
		b.Fatal(err)
	}
	tc, err := NewThinClos(128, 8, 16)
	if err != nil {
		b.Fatal(err)
	}
	for _, top := range []Topology{tc, par} {
		b.Run(top.Name(), func(b *testing.B) {
			b.ReportAllocs()
			i := 0
			for b.Loop() {
				top.PredefinedSlotPort(i%128, (i+7)%128, i)
				i++
			}
		})
	}
}
