package metrics

import (
	"encoding/binary"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"negotiator/internal/sim"
)

// TestRecordAllocBound: recording allocates the samples' 8-byte payload
// and little more. A growing slice would allocate it about 4-5 times over.
func TestRecordAllocBound(t *testing.T) {
	const n = 1 << 20
	var s FCTStats
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		size := int64(MiceFlowBytes)
		if i%2 == 0 {
			size = 1 // half of them mice
		}
		s.Record(size, sim.Duration(i))
	}
	runtime.ReadMemStats(&after)
	payload := float64((n + n/2) * 8)
	if got := float64(after.TotalAlloc - before.TotalAlloc); got > 1.1*payload {
		t.Errorf("recording %d samples allocated %.0f bytes, %.2fx their payload; want <= 1.1x", n, got, got/payload)
	}
	if s.Count() != n || s.MiceCount() != n/2 {
		t.Fatalf("counts %d/%d, want %d/%d", s.Count(), s.MiceCount(), n, n/2)
	}
}

// TestEmptyStoreAllocatesNothing: an accumulator that records nothing
// costs nothing, merged or queried.
func TestEmptyStoreAllocatesNothing(t *testing.T) {
	var s, o FCTStats
	if allocs := testing.AllocsPerRun(10, func() {
		s.Merge(&o)
		_ = s.P(99) + s.MiceP(50) + s.Mean() + s.Max()
	}); allocs != 0 {
		t.Errorf("empty accumulator allocates %.0f objects per merge+query, want 0", allocs)
	}
}

// TestSortedViewReused: P and Max never sort, and the mice class is
// sorted once per change: later order statistics of either class reuse
// what the first ones learned until a new sample arrives.
func TestSortedViewReused(t *testing.T) {
	var s FCTStats
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 3*blockLen; i++ {
		s.Record(int64(rng.Intn(20<<10)), sim.Duration(rng.Int63n(int64(8*sim.Second))))
	}
	_ = s.P(99) + s.MiceP(99)
	sorted := s.mice.memo.sorted
	if allocs := testing.AllocsPerRun(10, func() { _ = s.P(99) + s.MiceP(99) + s.Max() + s.MiceCDF(100)[0].Value }); allocs != 1 {
		t.Errorf("repeated order statistics allocate %.0f objects, want 1 (the CDF)", allocs)
	}
	if s.all.memo.sorted != nil {
		t.Error("an all-flows order statistic sorted the all-flows class")
	}
	if &s.mice.memo.sorted[0] != &sorted[0] {
		t.Error("a repeated mice query sorted the mice class again")
	}
	max := s.Max()
	s.Record(1, max+1)
	if got := s.Max(); got != max+1 {
		t.Errorf("Max after a larger sample = %v, want %v", got, max+1)
	}
	if got := s.MiceP(100); got != max+1 {
		t.Errorf("MiceP(100) after a larger mouse = %v, want %v", got, max+1)
	}
}

// TestSelectMatchesSort holds the radix select to a slices.Sort reference
// at ranks 0 and n-1 and at random ranks asked in turn, and P to the
// reference percentile, over key spans of every width from 1 to 64 bits:
// one to six digits, mostly not a whole number of them, so the top digit
// is partly empty. Each span is filled uniformly, with runs of three
// distinct values, and with a cluster at its bottom and one far outlier
// at its top.
func TestSelectMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for width := 1; width <= 64; width++ {
		span := uint64(math.MaxUint64) >> (64 - width)
		base := uint64(1)<<63 + rng.Uint64()%(math.MaxUint64-span+1) // math.MinInt64 + r
		for _, shape := range []string{"uniform", "runs", "outlier"} {
			var s FCTStats
			var ref []sim.Duration
			record := func(off uint64) {
				x := sim.Duration(base + off)
				s.Record(MiceFlowBytes, x)
				ref = append(ref, x)
			}
			record(0)
			record(span)
			distinct := []uint64{rng.Uint64() & span, rng.Uint64() & span, rng.Uint64() & span}
			for n := rng.Intn(blockLen + 100); len(ref) < n; {
				switch shape {
				case "uniform":
					record(rng.Uint64() & span)
				case "runs":
					off := distinct[rng.Intn(len(distinct))]
					for k := 1 + rng.Intn(64); k > 0; k-- {
						record(off)
					}
				default:
					record(rng.Uint64() & span & 1023)
				}
			}
			slices.Sort(ref)
			n := len(ref)
			ranks := []int{0, n - 1}
			for range 8 {
				ranks = append(ranks, rng.Intn(n))
			}
			ranks = append(ranks, ranks[2])
			for _, k := range ranks {
				if got := s.all.nth(k); got != ref[k] {
					t.Fatalf("%d-bit %s span, n %d: rank %d = %d, want %d", width, shape, n, k, got, ref[k])
				}
			}
			for range 4 {
				p := 100 * rng.Float64()
				if got, want := s.P(p), percentile(ref, p); got != want {
					t.Fatalf("%d-bit %s span, n %d: P(%v) = %d, want %d", width, shape, n, p, got, want)
				}
			}
		}
	}
}

// TestFirstPercentileAllocatesNothing: the first P after a change selects
// in place over the sample blocks, so on a million samples it allocates
// nothing, whatever their distribution.
func TestFirstPercentileAllocatesNothing(t *testing.T) {
	for _, c := range []struct {
		name string
		draw func(*rand.Rand) sim.Duration
	}{
		{"fct-under-8s", func(r *rand.Rand) sim.Duration { return sim.Duration(r.Int63n(int64(8 * sim.Second))) }},
		{"any-int64", func(r *rand.Rand) sim.Duration { return sim.Duration(r.Uint64()) }},
		{"one-value", func(*rand.Rand) sim.Duration { return 7 }},
	} {
		rng := rand.New(rand.NewSource(9))
		var s FCTStats
		var ref []sim.Duration
		for range 1<<20 + 100 {
			x := c.draw(rng)
			s.Record(MiceFlowBytes, x)
			ref = append(ref, x)
		}
		if allocs := testing.AllocsPerRun(2, func() {
			s.Record(MiceFlowBytes, ref[0]) // retires the last answer
			_ = s.P(99)
		}); allocs != 0 {
			t.Errorf("%s: the first P(99) on %d samples allocates %.0f objects, want 0", c.name, s.Count(), allocs)
		}
		ref = append(ref, ref[0], ref[0], ref[0])
		slices.Sort(ref)
		if got, want := s.P(99), percentile(ref, 99); got != want {
			t.Errorf("%s: P(99) = %v, want %v", c.name, got, want)
		}
	}
}

// BenchmarkFCTOrderStats measures what one Summary and one MiceCDF(100)
// ask of a store of 2M samples, an eighth of them mice, from scratch:
// P(99), MiceP(99) and MiceCDF(100). Each iteration records one mouse
// first, which retires what the last one learned.
func BenchmarkFCTOrderStats(b *testing.B) {
	var s FCTStats
	rng := rand.New(rand.NewSource(1))
	for i := range 2 << 20 {
		size := int64(MiceFlowBytes)
		if i%8 == 0 {
			size = 1
		}
		s.Record(size, sim.Duration(rng.Int63n(int64(100*sim.Millisecond))))
	}
	b.ReportAllocs()
	for i := 0; b.Loop(); i++ {
		s.Record(1, sim.Duration(i))
		s.P(99)
		s.MiceP(99)
		s.MiceCDF(100)
	}
}

// TestMergedViewIsSnapshot: a merged accumulator keeps exactly what it
// merged while its sources go on recording or are restored, and recording
// into the merged accumulator never writes into a source's blocks.
func TestMergedViewIsSnapshot(t *testing.T) {
	var a, b FCTStats
	for i := 0; i < blockLen+10; i++ {
		a.Record(1, sim.Duration(i))
	}
	b.Record(1, 7)
	var m FCTStats
	m.Merge(&a)
	m.Merge(&b)
	want := collect(&m)
	_ = m.P(50) + m.MiceP(50) // caches answers the later samples must retire

	a.Record(1, -5)
	b.Record(MiceFlowBytes, 1<<40)
	m.Record(1, 99) // must start a fresh block, not fill a's
	a.Record(1, -6)
	all, _ := a.Samples()
	if got := slices.Collect(all); got[len(got)-2] != -5 || got[len(got)-1] != -6 {
		t.Fatalf("source samples clobbered by the merged accumulator: tail %v", got[len(got)-2:])
	}
	if got := collect(&m); !slices.Equal(got[:len(want)], want) || got[len(want)] != 99 {
		t.Errorf("merged samples changed when the sources recorded")
	}
	a.RestoreSamples([]sim.Duration{1, 2}, nil)
	if got := collect(&m); !slices.Equal(got[:len(want)], want) {
		t.Errorf("merged samples changed when a source was restored")
	}
	ref := append(slices.Clone(want), 99)
	slices.Sort(ref)
	if m.Count() != len(ref) || m.P(50) != percentile(ref, 50) || m.Max() != ref[len(ref)-1] {
		t.Errorf("merged view: count %d, P(50) %v, Max %v; want %d, %v, %v",
			m.Count(), m.P(50), m.Max(), len(ref), percentile(ref, 50), ref[len(ref)-1])
	}
}

func collect(s *FCTStats) []sim.Duration {
	all, _ := s.Samples()
	return slices.Collect(all)
}

// FuzzFCTStats checks every statistic of samples split over one to four
// accumulators and merged in random order against a slices.Sort reference.
// The seed corpus runs under plain go test; the arguments pick the value
// distribution (mode), the sample count (n), the run length of repeated
// values, and raw sample bits for mode 4.
func FuzzFCTStats(f *testing.F) {
	for mode := uint8(0); mode < 5; mode++ {
		for _, n := range []uint16{0, 1, 2, 3, 1023, 1024, 1025, blockLen - 1, blockLen, blockLen + 1, 2*blockLen + 3} {
			f.Add(int64(mode)*7919+int64(n), n, mode, uint8(1), []byte{0x80, 1, 2, 3, 4, 5, 6, 7, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f})
		}
		f.Add(int64(mode), uint16(3*blockLen), mode, uint8(64), []byte{})
	}
	f.Fuzz(func(t *testing.T, seed int64, n uint16, mode, run uint8, raw []byte) {
		rng := rand.New(rand.NewSource(seed))
		extremes := []sim.Duration{math.MinInt64, math.MinInt64 + 1, -1, 0, 1, math.MaxInt64 - 1, math.MaxInt64}
		value := func(i int) sim.Duration {
			switch mode % 5 {
			case 0: // any int64
				return sim.Duration(rng.Uint64())
			case 1: // few distinct values
				return sim.Duration(rng.Intn(8) - 2)
			case 2: // negative, zero and near-MaxInt64
				return extremes[rng.Intn(len(extremes))]
			case 3: // FCTs under 8 s
				return sim.Duration(rng.Int63n(int64(8 * sim.Second)))
			default: // raw bits
				if len(raw) < 8 {
					return sim.Duration(i)
				}
				o := 8 * (i % (len(raw) / 8))
				return sim.Duration(binary.LittleEndian.Uint64(raw[o:]))
			}
		}
		stores := make([]FCTStats, 1+rng.Intn(4))
		perStore := make([][]sim.Duration, len(stores))
		var all, mice []sim.Duration
		for i := 0; i < int(n); {
			// A run of identical samples, like the members of a flow group.
			x, size, k := value(i), int64(rng.Intn(2*MiceFlowBytes)), 1+rng.Intn(int(run)+1)
			st := rng.Intn(len(stores))
			for ; k > 0 && i < int(n); k, i = k-1, i+1 {
				stores[st].Record(size, x)
				perStore[st] = append(perStore[st], x)
				all = append(all, x)
				if size < MiceFlowBytes {
					mice = append(mice, x)
				}
			}
		}
		var m FCTStats
		var order []sim.Duration
		for _, k := range rng.Perm(len(stores)) {
			m.Merge(&stores[k])
			order = append(order, perStore[k]...)
		}

		sortedAll, sortedMice := slices.Clone(all), slices.Clone(mice)
		slices.Sort(sortedAll)
		slices.Sort(sortedMice)
		if m.Count() != len(all) || m.MiceCount() != len(mice) {
			t.Fatalf("counts %d/%d, want %d/%d", m.Count(), m.MiceCount(), len(all), len(mice))
		}
		for _, p := range []float64{0, 1, 25, 50, 90, 99, 99.9, 100} {
			if got, want := m.P(p), percentile(sortedAll, p); got != want {
				t.Errorf("P(%v) = %v, want %v", p, got, want)
			}
			if got, want := m.MiceP(p), percentile(sortedMice, p); got != want {
				t.Errorf("MiceP(%v) = %v, want %v", p, got, want)
			}
		}
		if got, want := m.Max(), percentile(sortedAll, 100); got != want {
			t.Errorf("Max = %v, want %v", got, want)
		}
		for range min(8, len(sortedAll)) {
			if k := rng.Intn(len(sortedAll)); m.all.nth(k) != sortedAll[k] {
				t.Errorf("rank %d = %d, want %d", k, m.all.nth(k), sortedAll[k])
			}
		}
		if got, want := m.Mean(), refMean(all); got != want {
			t.Errorf("Mean = %v, want %v", got, want)
		}
		if got, want := m.MiceMean(), refMean(mice); got != want {
			t.Errorf("MiceMean = %v, want %v", got, want)
		}
		for _, points := range []int{2, 7, 100} {
			if got, want := m.MiceCDF(points), cdf(sortedMice, points); !reflect.DeepEqual(got, want) {
				t.Errorf("MiceCDF(%d) diverges from the reference", points)
			}
		}
		// Queries never reorder the recorded samples.
		if got := collect(&m); !slices.Equal(got, order) {
			t.Errorf("Samples after queries is not the merge-order recording sequence")
		}
	})
}

// refMean is the mean as FCTStats defines it: the int64 sum, wrapping on
// overflow, divided by the count.
func refMean(xs []sim.Duration) sim.Duration {
	if len(xs) == 0 {
		return 0
	}
	var sum int64
	for _, x := range xs {
		sum += int64(x)
	}
	return sim.Duration(sum / int64(len(xs)))
}
