package metrics

import (
	"math/bits"

	"negotiator/internal/sim"
)

const (
	// blockLen is the number of samples in one storage block (32 KB).
	blockLen = 1 << 12
	// radixBits is the digit width of the radix sort and select: three
	// digits cover any sample span under 2^33 ns (8.6 s).
	radixBits = 11
	radixSize = 1 << radixBits
	radixMask = radixSize - 1
)

// samples is an append-only sample array held in fixed-size blocks. A
// block is allocated when the previous one fills and is never regrown or
// copied, so recording costs one 8-byte slot per sample and a store that
// records nothing allocates nothing.
//
// Merging appends another store's blocks by reference, each clipped to
// its length at merge time (cap == len). Appending never writes into a
// clipped block, and the owner only writes past the clipped length, so a
// merged store is a stable snapshot of what was merged.
type samples struct {
	blocks [][]sim.Duration
	n      int
	// memo caches order statistics. Samples only grow, so it describes
	// the current samples while memo.n == n.
	memo memo
}

// memo is what the order statistics have learned about the first n
// samples of a store.
type memo struct {
	n      int
	lo, hi sim.Duration   // the smallest and largest sample
	rank   int            // the last rank selected, or -1
	at     sim.Duration   // the sample of that rank
	sorted []sim.Duration // every sample in ascending order, once asked for
}

func (s *samples) add(x sim.Duration) {
	s.n++
	if k := len(s.blocks) - 1; k >= 0 && len(s.blocks[k]) < cap(s.blocks[k]) {
		s.blocks[k] = append(s.blocks[k], x)
		return
	}
	b := make([]sim.Duration, 1, blockLen)
	b[0] = x
	s.blocks = append(s.blocks, b)
}

func (s *samples) merge(o *samples) {
	if o.n == 0 {
		return
	}
	s.n += o.n
	for _, b := range o.blocks {
		s.blocks = append(s.blocks, b[:len(b):len(b)])
	}
}

// values yields the samples in recording order.
func (s *samples) values(yield func(sim.Duration) bool) {
	for _, b := range s.blocks {
		for _, x := range b {
			if !yield(x) {
				return
			}
		}
	}
}

func (s *samples) mean() sim.Duration {
	if s.n == 0 {
		return 0
	}
	var sum int64
	for _, b := range s.blocks {
		for _, x := range b {
			sum += int64(x)
		}
	}
	return sim.Duration(sum / int64(s.n))
}

// current returns the memo of the present samples, starting a fresh one
// with a pass for the extremes if a sample arrived since the last. n > 0.
func (s *samples) current() *memo {
	if s.memo.n != s.n {
		lo, hi := s.blocks[0][0], s.blocks[0][0]
		for _, b := range s.blocks {
			for _, x := range b {
				lo, hi = min(lo, x), max(hi, x)
			}
		}
		s.memo = memo{n: s.n, lo: lo, hi: hi, rank: -1}
	}
	return &s.memo
}

// nth returns the sample of ascending rank k, 0 <= k < n. The extremes
// answer ranks 0 and n-1; any other rank is selected without sorting and
// kept until the next one is asked for or a sample arrives.
func (s *samples) nth(k int) sim.Duration {
	m := s.current()
	switch {
	case k == 0 || m.lo == m.hi:
		return m.lo
	case k == s.n-1:
		return m.hi
	case k != m.rank:
		m.rank, m.at = k, selectBlocks(s.blocks, k, m.lo, m.hi)
	}
	return m.at
}

// ascending returns the samples in ascending order, sorting them on the
// first call after a change.
func (s *samples) ascending() []sim.Duration {
	if s.n == 0 {
		return nil
	}
	m := s.current()
	if m.sorted == nil {
		m.sorted = make([]sim.Duration, s.n)
		sortBlocks(m.sorted, s.blocks, m.lo, m.hi)
	}
	return m.sorted
}

// digits returns how many radixBits-wide digits the keys of samples
// spanning [lo, hi] need. The radix sort and select order a sample x by
// the key uint64(x-lo), which orders any int64 samples correctly; digit d
// is key bits [d·radixBits, (d+1)·radixBits), so the top digit may be
// partly empty but never overlaps the one below it.
func digits(lo, hi sim.Duration) int {
	return (bits.Len64(uint64(hi)-uint64(lo)) + radixBits - 1) / radixBits
}

// selectBlocks returns the sample of ascending rank k among those held in
// blocks, whose smallest and largest samples are lo < hi. It is an MSD
// radix select: from the top digit down, one pass counts by the current
// digit the samples whose key agrees with the answer's on every digit
// fixed so far, and fixes the digit that rank k falls in. It copies
// nothing and allocates nothing, whatever the distribution.
func selectBlocks(blocks [][]sim.Duration, k int, lo, hi sim.Duration) sim.Duration {
	base := uint64(lo)
	var key uint64 // the answer's key, digits fixed so far
	for d := digits(lo, hi) - 1; ; d-- {
		shift := uint(d * radixBits)
		// Key bits from above up were fixed by the earlier passes; on the
		// first there are none, and a shift of 64 or more leaves 0.
		above := shift + radixBits
		var count [radixSize]int
		for _, b := range blocks {
			for _, x := range b {
				if y := uint64(x) - base; y>>above == key>>above {
					count[y>>shift&radixMask]++
				}
			}
		}
		digit := 0
		for k >= count[digit] {
			k -= count[digit]
			digit++
		}
		key |= uint64(digit) << shift
		if d == 0 {
			return sim.Duration(key + base)
		}
	}
}

// sortBlocks writes the samples held in blocks, whose smallest and
// largest samples are lo and hi, to dst, which has room for exactly all
// of them, in ascending order. It is an LSD radix sort, one pass per
// digit the key span needs; equal samples are copied as they are. It
// allocates a scratch copy when two or more passes are needed.
func sortBlocks(dst []sim.Duration, blocks [][]sim.Duration, lo, hi sim.Duration) {
	passes := digits(lo, hi)
	if passes == 0 {
		k := 0
		for _, b := range blocks {
			k += copy(dst[k:], b)
		}
		return
	}
	base := uint64(lo)
	var tmp []sim.Duration
	if passes > 1 {
		tmp = make([]sim.Duration, len(dst))
	}
	// Alternate between dst and tmp so that the last pass writes dst.
	in := blocks
	for p := 0; p < passes; p++ {
		out := dst
		if (passes-1-p)%2 == 1 {
			out = tmp
		}
		shift := uint(p * radixBits)
		var next [radixSize]int
		for _, b := range in {
			for _, x := range b {
				next[(uint64(x)-base)>>shift&radixMask]++
			}
		}
		off := 0
		for d, c := range next {
			next[d] = off
			off += c
		}
		for _, b := range in {
			for _, x := range b {
				d := (uint64(x) - base) >> shift & radixMask
				out[next[d]] = x
				next[d]++
			}
		}
		in = [][]sim.Duration{out}
	}
}
