package workload

import (
	"math"
	"testing"
	"testing/quick"

	"negotiator/internal/sim"
)

func TestCDFValidation(t *testing.T) {
	if _, err := NewCDF("bad", nil); err == nil {
		t.Error("empty CDF accepted")
	}
	if _, err := NewCDF("bad", []CDFPoint{{100, 0.5}, {50, 1}}); err == nil {
		t.Error("non-increasing sizes accepted")
	}
	if _, err := NewCDF("bad", []CDFPoint{{100, 0.5}, {200, 0.4}, {300, 1}}); err == nil {
		t.Error("decreasing fractions accepted")
	}
	if _, err := NewCDF("bad", []CDFPoint{{100, 0.5}}); err == nil {
		t.Error("CDF not ending at 1 accepted")
	}
	for _, pts := range [][]CDFPoint{
		{{-5, 0}, {10, 1}},
		{{10, 0.2}, {100, math.NaN()}, {1000, 1}},
		{{10, -0.5}, {100, 1}},
	} {
		if _, err := NewCDF("bad", pts); err == nil {
			t.Errorf("CDF %v with a size below 1 or a fraction outside [0, 1] accepted", pts)
		}
	}
}

// FuzzNewCDF builds a CDF from one to three fuzzed anchor points: NewCDF
// must never panic, and a CDF it accepts must have a mean and samples in
// [1, last size]. The seed corpus runs under plain go test: valid anchors,
// a size below 1, a NaN and a negative fraction, and anchors that round to
// the same float64 (their log mean is 0/0). Fuzz with:
//
//	go test -run '^$' -fuzz '^FuzzNewCDF$' -fuzztime 10s ./internal/workload
func FuzzNewCDF(f *testing.F) {
	f.Add(uint8(1), int64(100), 0.5, int64(1000), 1.0, int64(0), 0.0)
	f.Add(uint8(0), int64(1000), 1.0, int64(0), 0.0, int64(0), 0.0)
	f.Add(uint8(1), int64(-5), 0.0, int64(10), 1.0, int64(0), 0.0)
	f.Add(uint8(2), int64(10), 0.2, int64(100), math.NaN(), int64(1000), 1.0)
	f.Add(uint8(1), int64(10), -0.5, int64(100), 1.0, int64(0), 0.0)
	f.Add(uint8(1), int64(1<<62), 0.0, int64(1<<62+1), 1.0, int64(0), 0.0)
	f.Fuzz(func(t *testing.T, n uint8, s0 int64, f0 float64, s1 int64, f1 float64, s2 int64, f2 float64) {
		pts := []CDFPoint{{s0, f0}, {s1, f1}, {s2, f2}}[:1+int(n)%3]
		c, err := NewCDF("fuzz", pts)
		if err != nil {
			return
		}
		last := pts[len(pts)-1].Size
		if m := c.Mean(); !(m >= 1 && m <= float64(last)) {
			t.Fatalf("CDF %v: mean %v outside [1, %d]", pts, m, last)
		}
		rng := sim.NewRNG(1)
		for i := 0; i < 64; i++ {
			if s := c.Sample(rng); s < 1 || s > last {
				t.Fatalf("CDF %v: sample %d outside [1, %d]", pts, s, last)
			}
		}
	})
}

func TestCDFSampleStats(t *testing.T) {
	for _, d := range []*CDF{Hadoop(), WebSearch(), GoogleAgg()} {
		rng := sim.NewRNG(1)
		const n = 300000
		var sum float64
		min, max := int64(math.MaxInt64), int64(0)
		for i := 0; i < n; i++ {
			s := d.Sample(rng)
			if s < 1 {
				t.Fatalf("%s: sampled size %d < 1", d.Name(), s)
			}
			sum += float64(s)
			if s < min {
				min = s
			}
			if s > max {
				max = s
			}
		}
		gotMean := sum / n
		if math.Abs(gotMean-d.Mean()) > 0.05*d.Mean() {
			t.Errorf("%s: empirical mean %.0f vs analytic %.0f (>5%% off)", d.Name(), gotMean, d.Mean())
		}
		last := d.pts[len(d.pts)-1].Size
		if max > last {
			t.Errorf("%s: sample %d beyond final anchor %d", d.Name(), max, last)
		}
	}
}

func TestHadoopPaperProperties(t *testing.T) {
	// Paper §4.1: 60% of flows are less than 1KB; more than 80% of the
	// bits are from elephant flows larger than 100KB.
	d := Hadoop()
	if got := d.FracBelow(1 << 10); math.Abs(got-0.60) > 0.02 {
		t.Errorf("Hadoop frac(<1KB) = %.3f, want ~0.60", got)
	}
	if got := d.ByteFracAbove(100 << 10); got < 0.80 {
		t.Errorf("Hadoop byte frac(>=100KB) = %.3f, want > 0.80", got)
	}
}

func TestWebSearchPaperProperties(t *testing.T) {
	// Paper §4.4: more than 80% of flows exceed 10KB.
	d := WebSearch()
	if got := 1 - d.FracBelow(10<<10); got < 0.80 {
		t.Errorf("WebSearch frac(>10KB) = %.3f, want > 0.80", got)
	}
}

func TestGooglePaperProperties(t *testing.T) {
	// Paper §4.4: more than 80% of flows are less than 1KB.
	d := GoogleAgg()
	if got := d.FracBelow(1 << 10); got < 0.80 {
		t.Errorf("Google frac(<1KB) = %.3f, want > 0.80", got)
	}
}

func TestFixedDist(t *testing.T) {
	d := Fixed(1000)
	rng := sim.NewRNG(1)
	for i := 0; i < 100; i++ {
		if s := d.Sample(rng); s != 1000 {
			t.Fatalf("Fixed sampled %d", s)
		}
	}
	if d.Mean() != 1000 {
		t.Errorf("Fixed mean = %v", d.Mean())
	}
}

func TestLoadEquationRoundTrip(t *testing.T) {
	// InterArrivalFor then Load must recover the requested load.
	d := Hadoop()
	for _, load := range []float64{0.1, 0.25, 0.5, 0.75, 1.0} {
		tau := InterArrivalFor(load, d, sim.Gbps(400), 128)
		got := Load(d.Mean(), sim.Gbps(400), 128, tau)
		// τ is integer nanoseconds: at paper scale (τ ~ 33 ns at full
		// load) rounding alone moves the recovered load by up to ~2%.
		tol := 0.02*load + 0.5/float64(tau)
		if math.Abs(got-load) > tol {
			t.Errorf("load round trip: want %v, got %v (tau=%v)", load, got, tau)
		}
	}
	if InterArrivalFor(0, d, sim.Gbps(400), 128) < 1<<59 {
		t.Error("zero load should give effectively infinite inter-arrival")
	}
}

func TestPoissonGenerator(t *testing.T) {
	g := NewPoisson(Hadoop(), 16, 0.5, sim.Gbps(400), 42)
	var prev sim.Time
	var count int
	var bytes float64
	var horizon = sim.Time(2 * sim.Millisecond)
	for {
		a, ok := g.Next()
		if !ok {
			t.Fatal("Poisson generator exhausted")
		}
		if a.Time < prev {
			t.Fatal("arrivals out of order")
		}
		prev = a.Time
		if a.Time > horizon {
			break
		}
		if a.Src == a.Dst || a.Src < 0 || a.Src >= 16 || a.Dst < 0 || a.Dst >= 16 {
			t.Fatalf("bad src/dst: %d->%d", a.Src, a.Dst)
		}
		if a.Tag != 0 {
			t.Fatal("background traffic should have tag 0")
		}
		count++
		bytes += float64(a.Size)
	}
	// Offered load over the horizon should be ~0.5 of aggregate host bw.
	offered := bytes / (sim.Duration(horizon).Seconds() * sim.Gbps(400).BytesPerSecond() * 16)
	if math.Abs(offered-0.5) > 0.15 {
		t.Errorf("offered load = %.3f, want ~0.5 (count=%d)", offered, count)
	}
}

func TestPoissonUniformEndpoints(t *testing.T) {
	g := NewPoisson(Fixed(1000), 8, 0.5, sim.Gbps(400), 7)
	srcCount := make([]int, 8)
	dstCount := make([]int, 8)
	for i := 0; i < 80000; i++ {
		a, _ := g.Next()
		srcCount[a.Src]++
		dstCount[a.Dst]++
	}
	for i := 0; i < 8; i++ {
		if math.Abs(float64(srcCount[i])-10000) > 600 {
			t.Errorf("src %d count %d, want ~10000", i, srcCount[i])
		}
		if math.Abs(float64(dstCount[i])-10000) > 600 {
			t.Errorf("dst %d count %d, want ~10000", i, dstCount[i])
		}
	}
}

func TestIncast(t *testing.T) {
	ev, err := NewIncast(16, 3, 10, 1000, 5000, 7, 1)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	seen := map[int]bool{}
	for {
		a, ok := ev.Next()
		if !ok {
			break
		}
		n++
		if a.Dst != 3 || a.Size != 1000 || a.Time != 5000 || a.Tag != 7 {
			t.Fatalf("bad incast arrival: %+v", a)
		}
		if a.Src == 3 || seen[a.Src] {
			t.Fatalf("bad/duplicate source %d", a.Src)
		}
		seen[a.Src] = true
	}
	if n != 10 {
		t.Errorf("incast produced %d flows, want 10", n)
	}
	if _, err := NewIncast(8, 0, 8, 1000, 0, 1, 1); err == nil {
		t.Error("degree > n-1 accepted")
	}
}

func TestAllToAll(t *testing.T) {
	g := NewAllToAll(5, 30<<10, 1000)
	pairs := map[[2]int]int{}
	for {
		a, ok := g.Next()
		if !ok {
			break
		}
		if a.Src == a.Dst || a.Size != 30<<10 || a.Time != 1000 {
			t.Fatalf("bad all-to-all arrival: %+v", a)
		}
		pairs[[2]int{a.Src, a.Dst}]++
	}
	if len(pairs) != 20 {
		t.Fatalf("all-to-all covered %d pairs, want 20", len(pairs))
	}
	for p, c := range pairs {
		if c != 1 {
			t.Fatalf("pair %v appeared %d times", p, c)
		}
	}
}

func TestSinglePair(t *testing.T) {
	g := NewSinglePair(1, 2, 1<<30, 0)
	a, ok := g.Next()
	if !ok || a.Src != 1 || a.Dst != 2 || a.Size != 1<<30 {
		t.Fatalf("bad single pair: %+v ok=%v", a, ok)
	}
	if _, ok := g.Next(); ok {
		t.Error("single pair should produce exactly one arrival")
	}
}

func TestIncastMixRate(t *testing.T) {
	// 2% of aggregate downlink bandwidth as degree-20 1KB incasts.
	g := NewIncastMix(128, 20, 1000, 0.02, sim.Gbps(400), 1, 9)
	horizon := sim.Time(1 * sim.Millisecond)
	var bytes float64
	tags := map[int]int{}
	for {
		a, ok := g.Next()
		if !ok || a.Time > horizon {
			break
		}
		if a.Tag < 1 {
			t.Fatal("incast mix must tag events")
		}
		tags[a.Tag]++
		bytes += float64(a.Size)
	}
	for tag, c := range tags {
		if c > 20 {
			t.Fatalf("event %d has %d flows, want <= 20", tag, c)
		}
	}
	frac := bytes / (sim.Duration(horizon).Seconds() * sim.Gbps(400).BytesPerSecond() * 128)
	if math.Abs(frac-0.02) > 0.01 {
		t.Errorf("incast bandwidth fraction = %.4f, want ~0.02", frac)
	}
}

func TestMergeOrdering(t *testing.T) {
	a := NewAllToAll(3, 100, 500)
	b, _ := NewIncast(3, 0, 2, 50, 200, 1, 1)
	c, _ := NewIncast(3, 1, 2, 50, 900, 2, 2)
	m := NewMerge(a, b, c)
	var prev sim.Time
	count := 0
	for {
		ar, ok := m.Next()
		if !ok {
			break
		}
		if ar.Time < prev {
			t.Fatalf("merge out of order: %v after %v", ar.Time, prev)
		}
		prev = ar.Time
		count++
	}
	if count != 6+2+2 {
		t.Errorf("merge produced %d arrivals, want 10", count)
	}
}

func TestMergeEmpty(t *testing.T) {
	m := NewMerge()
	if _, ok := m.Next(); ok {
		t.Error("empty merge should be exhausted")
	}
}

func TestCDFQuantileMonotoneProperty(t *testing.T) {
	d := Hadoop()
	f := func(a, b uint16) bool {
		u1 := float64(a) / 65536
		u2 := float64(b) / 65536
		if u1 > u2 {
			u1, u2 = u2, u1
		}
		return d.quantile(u1) <= d.quantile(u2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestFracBelowInverseProperty(t *testing.T) {
	// FracBelow(quantile(u)) ~ u on anchor interior.
	d := WebSearch()
	for _, u := range []float64{0.15, 0.35, 0.55, 0.75, 0.93} {
		s := d.quantile(u)
		got := d.FracBelow(int64(s))
		if math.Abs(got-u) > 0.01 {
			t.Errorf("FracBelow(quantile(%v)) = %v", u, got)
		}
	}
}
