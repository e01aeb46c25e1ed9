package workload

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"negotiator/internal/sim"
)

// streamHash folds the first n arrivals of g, every field, into an FNV-64a
// hash.
func streamHash(t *testing.T, g Generator, n int) uint64 {
	t.Helper()
	h := fnv.New64a()
	var buf [48]byte
	for i := 0; i < n; i++ {
		a, ok := g.Next()
		if !ok {
			t.Fatalf("stream ended after %d arrivals", i)
		}
		for j, v := range []int64{int64(a.Time), int64(a.Src), int64(a.Dst), a.Size, int64(a.Tag), int64(a.Count)} {
			binary.LittleEndian.PutUint64(buf[8*j:], uint64(v))
		}
		h.Write(buf[:])
	}
	return h.Sum64()
}

// TestArrivalStreamHash locks the arrival streams to the bit: the load
// equation, the exponential gap draw and the draw order of the three
// clock-driven generators, and IncastMix's integer event clock. The hashes
// cover 200,000 arrivals per stream on 64 ToRs at 400 Gbps (IncastMix: 128
// ToRs, degree-20 1 KB events).
func TestArrivalStreamHash(t *testing.T) {
	rate := sim.Gbps(400)
	for _, c := range []struct {
		name string
		load float64
		mk   func(load float64) Generator
		want uint64
	}{
		{"poisson", 0.05, poisson, 0x962e9b1d48920a5b},
		{"hotspot", 0.05, hotspot, 0xa2cefc8f4d9487fa},
		{"diurnal", 0.05, diurnal, 0x880e2f7e331da9e7},
		{"poisson", 0.7, poisson, 0xcca566d273a492a2},
		{"hotspot", 0.7, hotspot, 0x9fea388bbe16320e},
		{"diurnal", 0.7, diurnal, 0x19889442a14fae6b},
		{"poisson", 1.3, poisson, 0x5a101b6699ef48ce},
		{"hotspot", 1.3, hotspot, 0xd7ec61f5d4d0008b},
		{"diurnal", 1.3, diurnal, 0x42b5ed156059da23},
		{"incastmix", 0.02, func(f float64) Generator { return NewIncastMix(128, 20, 1000, f, rate, 1, 9) }, 0x259ead4971a162a4},
		{"incastmix", 0.5, func(f float64) Generator { return NewIncastMix(128, 20, 1000, f, rate, 1, 9) }, 0xbcb2bf38aaeea848},
	} {
		if got := streamHash(t, c.mk(c.load), 200_000); got != c.want {
			t.Errorf("%s at %v: stream hash %#016x, want %#016x", c.name, c.load, got, c.want)
		}
	}
}

func poisson(load float64) Generator {
	return NewPoisson(Hadoop(), 64, load, sim.Gbps(400), 1)
}

func hotspot(load float64) Generator {
	g, err := NewHotspot(Hadoop(), 64, load, sim.Gbps(400), 4, 0.5, 1)
	if err != nil {
		panic(err)
	}
	return g
}

func diurnal(load float64) Generator {
	g, err := NewDiurnal(Hadoop(), 64, load, sim.Gbps(400), sim.Millisecond, 0.1, 1)
	if err != nil {
		panic(err)
	}
	return g
}

// checkTimes drains up to limit arrivals and fails on a negative or
// decreasing time; it returns how many arrivals the stream gave.
func checkTimes(t *testing.T, name string, g Generator, limit int) int {
	t.Helper()
	var last sim.Time
	for i := 0; i < limit; i++ {
		a, ok := g.Next()
		if !ok {
			return i
		}
		if a.Time < 0 || a.Time < last {
			t.Fatalf("%s: arrival %d at %d after %d", name, i, int64(a.Time), int64(last))
		}
		last = a.Time
	}
	return limit
}

// TestZeroLoadEndsStream: load 0 sets a 10^18 ns mean gap, so the float
// clock passes 2^63 ns within a few draws. The stream must end there
// instead of emitting the wrapped time (math.MinInt64, which the fabric's
// pump would admit at once, round after round). Seeds 11416, 20598 and
// 21874 draw their first arrival past the range.
func TestZeroLoadEndsStream(t *testing.T) {
	for _, seed := range []int64{11416, 20598, 21874, 1} {
		if n := checkTimes(t, "poisson", NewPoisson(Hadoop(), 16, 0, sim.Gbps(200), seed), 1000); n == 1000 {
			t.Errorf("poisson seed %d: load 0 did not end within 1000 arrivals", seed)
		}
	}
	if n := checkTimes(t, "hotspot", hotspot(0), 1000); n == 1000 {
		t.Error("hotspot: load 0 did not end within 1000 arrivals")
	}
	if n := checkTimes(t, "diurnal", diurnal(0), 1000); n == 1000 {
		t.Error("diurnal: load 0 did not end within 1000 arrivals")
	}
	// A zero host rate makes the mean gap infinite: no arrival at all.
	if n := checkTimes(t, "zero-rate", NewPoisson(Hadoop(), 16, 0.5, 0, 1), 10); n != 0 {
		t.Errorf("zero host rate emitted %d arrivals", n)
	}
	if d, err := NewDiurnal(Hadoop(), 16, 0.5, 0, sim.Millisecond, 0, 1); err != nil {
		t.Fatal(err)
	} else if n := checkTimes(t, "diurnal-zero-rate", d, 10); n != 0 {
		t.Errorf("diurnal at zero host rate emitted %d arrivals", n)
	}
}

// TestZeroMeanSizeEndsStream: the load equation makes the mean gap
// proportional to the mean flow size, so a distribution whose mean is zero
// gave zero gaps, an endless stream of zero-byte arrivals at t = 0. Such a
// stream has nothing to offer and is empty, on every clock-driven
// generator, as is one whose sizes are negative.
func TestZeroMeanSizeEndsStream(t *testing.T) {
	for _, size := range []int64{0, -5} {
		dist := Fixed(size)
		hs, err := NewHotspot(dist, 64, 0.5, sim.Gbps(400), 4, 0.5, 1)
		if err != nil {
			t.Fatal(err)
		}
		di, err := NewDiurnal(dist, 64, 0.5, sim.Gbps(400), sim.Millisecond, 0.1, 1)
		if err != nil {
			t.Fatal(err)
		}
		for name, g := range map[string]Generator{"poisson": NewPoisson(dist, 64, 0.5, sim.Gbps(400), 1), "hotspot": hs, "diurnal": di} {
			if n := checkTimes(t, name, g, 10); n != 0 {
				t.Errorf("%s over %d-byte flows emitted %d arrivals", name, size, n)
			}
		}
	}
}

// TestInfiniteLoadEndsStream: an infinite load makes the load equation's
// mean gap zero, so the fabric's first round admitted arrivals at t = 0
// until it ran out of memory. Such a stream is empty on every
// clock-driven generator.
func TestInfiniteLoadEndsStream(t *testing.T) {
	load := math.Inf(1)
	for name, g := range map[string]Generator{"poisson": poisson(load), "hotspot": hotspot(load), "diurnal": diurnal(load)} {
		if n := checkTimes(t, name, g, 10); n != 0 {
			t.Errorf("%s at load %v emitted %d arrivals", name, load, n)
		}
	}
}

// TestIncastMixUnrepresentableGap: a bwFraction of zero makes the event
// gap infinite, and the float-to-Duration conversion used to turn it into
// a 1 ns gap (100 degree-20 incasts in the first 133 ns). Such a stream is
// empty. A tiny bwFraction keeps representable gaps, but their sum passes
// the int64 range within a few events: the stream ends there instead of
// wrapping to negative times.
func TestIncastMixUnrepresentableGap(t *testing.T) {
	rate := sim.Gbps(400)
	for _, frac := range []float64{0, -0.02, math.NaN()} {
		if n := checkTimes(t, "incastmix", NewIncastMix(64, 20, 1000, frac, rate, 1, 9), 10); n != 0 {
			t.Errorf("bwFraction %v emitted %d arrivals", frac, n)
		}
	}
	n := checkTimes(t, "incastmix", NewIncastMix(64, 20, 1000, 1e-17, rate, 1, 9), 100_000)
	if n == 100_000 {
		t.Error("bwFraction 1e-17 did not end within 100,000 arrivals")
	}
	if n%20 != 0 {
		t.Errorf("stream ended mid-event after %d arrivals", n)
	}
}
