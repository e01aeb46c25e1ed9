package metrics

import (
	"math"
	"testing"
	"testing/quick"

	"negotiator/internal/sim"
)

func TestFCTPercentiles(t *testing.T) {
	var s FCTStats
	for i := 1; i <= 100; i++ {
		s.Record(100, sim.Duration(i)) // 100 mice flows, FCT 1..100
	}
	if got := s.MiceP(99); got != 99 {
		t.Errorf("99p = %d, want 99", got)
	}
	if got := s.MiceP(50); got != 50 {
		t.Errorf("50p = %d, want 50", got)
	}
	if got := s.MiceMean(); got != 50 {
		t.Errorf("mean = %d, want 50 (floor of 50.5)", got)
	}
	if got := s.Max(); got != 100 {
		t.Errorf("max = %d, want 100", got)
	}
}

func TestFCTClassification(t *testing.T) {
	var s FCTStats
	s.Record(MiceFlowBytes-1, 10) // mouse
	s.Record(MiceFlowBytes, 1000) // not a mouse (paper: flows < 10KB)
	s.Record(1<<20, 2000)         // elephant
	if s.Count() != 3 || s.MiceCount() != 1 {
		t.Errorf("count=%d mice=%d, want 3/1", s.Count(), s.MiceCount())
	}
	if got := s.MiceP(99); got != 10 {
		t.Errorf("mice 99p = %d, want 10", got)
	}
	if got := s.Mean(); got != (10+1000+2000)/3 {
		t.Errorf("mean = %d", got)
	}
}

func TestEmptyStats(t *testing.T) {
	var s FCTStats
	if s.P(99) != 0 || s.MiceMean() != 0 || s.Max() != 0 {
		t.Error("empty stats should report zeros")
	}
	if s.MiceCDF(10) != nil {
		t.Error("empty CDF should be nil")
	}
}

func TestRecordAfterSortResorts(t *testing.T) {
	var s FCTStats
	s.Record(1, 50)
	_ = s.P(99)
	s.Record(1, 10) // must retire the cached answer
	if got := s.P(50); got != 10 {
		t.Errorf("P(50) after late record = %d, want 10", got)
	}
}

func TestCDFMonotone(t *testing.T) {
	var s FCTStats
	r := []sim.Duration{5, 3, 8, 1, 9, 2, 7, 4, 6, 10}
	for _, d := range r {
		s.Record(100, d)
	}
	pts := s.MiceCDF(5)
	if len(pts) != 5 {
		t.Fatalf("CDF points = %d, want 5", len(pts))
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].Value < pts[i-1].Value || pts[i].Frac < pts[i-1].Frac {
			t.Fatalf("CDF not monotone: %+v", pts)
		}
	}
	if last := pts[len(pts)-1]; last.Frac != 1 || last.Value != 10 {
		t.Errorf("CDF should end at (max,1): %+v", last)
	}
}

func TestGoodputNormalized(t *testing.T) {
	g := NewGoodput(4)
	// Each of 4 ToRs receives 50 GB over 1 second at 400 Gbps host bw:
	// rate = 400Gbps per ToR => normalized 1.0.
	for i := 0; i < 4; i++ {
		g.Deliver(i, 50_000_000_000)
	}
	got := g.Normalized(sim.Second, sim.Gbps(400))
	if math.Abs(got-1.0) > 1e-9 {
		t.Errorf("normalized = %v, want 1.0", got)
	}
	if tot := g.TotalBytes(); tot != 200_000_000_000 {
		t.Errorf("total = %d", tot)
	}
	if got := g.PerToRGbps(sim.Second); math.Abs(got-400) > 1e-6 {
		t.Errorf("per-ToR Gbps = %v, want 400", got)
	}
}

func TestGoodputEdgeCases(t *testing.T) {
	g := NewGoodput(2)
	if g.Normalized(0, sim.Gbps(400)) != 0 {
		t.Error("zero duration should give 0")
	}
	if g.PerToRGbps(0) != 0 {
		t.Error("zero duration should give 0")
	}
}

func TestTimeSeries(t *testing.T) {
	ts := NewTimeSeries(1000) // 1µs buckets
	ts.Add(0, 125)            // 125 B in 1µs = 1 Gbps
	ts.Add(500, 125)
	ts.Add(1500, 250)
	g := ts.Gbps()
	if len(g) != 2 {
		t.Fatalf("buckets = %d, want 2", len(g))
	}
	if math.Abs(g[0]-2) > 1e-9 || math.Abs(g[1]-2) > 1e-9 {
		t.Errorf("series = %v, want [2 2]", g)
	}
	if got := ts.MeanGbpsBetween(0, 2000); math.Abs(got-2) > 1e-9 {
		t.Errorf("mean between = %v, want 2", got)
	}
	ts.Add(-5, 1000) // ignored
	if ts.Gbps()[0] != g[0] {
		t.Error("negative time should be ignored")
	}
}

func TestTimeSeriesPanicsOnBadBucket(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("zero bucket should panic")
		}
	}()
	NewTimeSeries(0)
}

func TestRatio(t *testing.T) {
	var r Ratio
	r.Observe(63, 100)
	r.Observe(65, 100)
	r.Observe(0, 0) // idle epoch
	if got := r.Mean(); math.Abs(got-0.64) > 1e-9 {
		t.Errorf("mean ratio = %v, want 0.64", got)
	}
	s := r.Series()
	if len(s) != 3 || s[2] != 0 {
		t.Errorf("series = %v", s)
	}
	if r.Len() != 3 {
		t.Errorf("len = %d", r.Len())
	}
}

func TestEpochsOf(t *testing.T) {
	if got := EpochsOf(7320, 3660); got != 2.0 {
		t.Errorf("EpochsOf = %v, want 2.0", got)
	}
	if EpochsOf(100, 0) != 0 {
		t.Error("zero epoch should give 0")
	}
}

func TestPercentileProperty(t *testing.T) {
	// For any sample set, P(100) is the max and P(p) is a member of the set.
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		var s FCTStats
		var max sim.Duration
		for _, v := range raw {
			d := sim.Duration(v)
			s.Record(1, d)
			if d > max {
				max = d
			}
		}
		if s.MiceP(100) != max {
			return false
		}
		p50 := s.MiceP(50)
		found := false
		for _, v := range raw {
			if sim.Duration(v) == p50 {
				found = true
			}
		}
		return found
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestDrainBuffer(t *testing.T) {
	// 400 Gbps drain = 50 B/ns.
	b := NewDrainBuffer(sim.Gbps(400))
	b.Add(0, 1000)
	if b.Backlog() != 1000 || b.Peak() != 1000 {
		t.Fatalf("backlog=%d peak=%d", b.Backlog(), b.Peak())
	}
	// 10ns later, 500B drained.
	b.Add(10, 0)
	if b.Backlog() != 500 {
		t.Fatalf("backlog after drain = %d, want 500", b.Backlog())
	}
	// Long idle: floors at zero.
	b.Add(1000, 200)
	if b.Backlog() != 200 {
		t.Fatalf("backlog = %d, want 200", b.Backlog())
	}
	if b.Peak() != 1000 {
		t.Fatalf("peak = %d, want 1000", b.Peak())
	}
	// Out-of-order timestamp: no backwards drain, bytes still counted.
	b.Add(500, 100)
	if b.Backlog() != 300 {
		t.Fatalf("stale add: backlog = %d, want 300", b.Backlog())
	}
}

func TestDrainBufferBurstPeak(t *testing.T) {
	// A 2x-speedup burst: 100 B/ns arrivals against a 50 B/ns drain for
	// 1000ns leaves a 50KB peak.
	b := NewDrainBuffer(sim.Gbps(400))
	for ts := sim.Time(0); ts < 1000; ts += 10 {
		b.Add(ts, 1000) // 100 B/ns
	}
	want := int64(1000*100 - 990*50)
	if diff := b.Peak() - want; diff < -1000 || diff > 1000 {
		t.Fatalf("peak = %d, want ~%d", b.Peak(), want)
	}
}
