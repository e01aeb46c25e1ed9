package metrics

import (
	"math/bits"
	"slices"

	"negotiator/internal/sim"
)

const (
	// blockLen is the number of samples in one storage block (32 KB).
	blockLen = 1 << 12
	// radixBits is the digit width of the radix sort: three passes cover
	// any sample span under 2^33 ns (8.6 s).
	radixBits = 11
	radixSize = 1 << radixBits
	radixMask = radixSize - 1
	// smallCount is where the radix sort's per-pass cost of 2048 buckets
	// stops outweighing slices.Sort's comparisons (about 1000 samples on
	// x86-64); smaller inputs use slices.Sort.
	smallCount = 1 << 10
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
	// sorted holds the samples in ascending order once an order statistic
	// has been asked for; any new sample drops it.
	sorted []sim.Duration
}

func (s *samples) add(x sim.Duration) {
	s.sorted = nil
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
	s.sorted = nil
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

// ascending returns the samples in ascending order, sorting them on the
// first call after a change. scratch is a reusable sort buffer.
func (s *samples) ascending(scratch *[]sim.Duration) []sim.Duration {
	if len(s.sorted) != s.n {
		s.sorted = make([]sim.Duration, s.n)
		sortBlocks(s.sorted, s.blocks, scratch)
	}
	return s.sorted
}

// sortBlocks writes the samples held in blocks to dst, which has room for
// exactly all of them, in ascending order. It is an LSD radix sort on the
// key uint64(x-min), which orders any int64 samples correctly, with
// radixBits-wide digits and as many passes as the key span needs. Fewer
// than smallCount samples are sorted with slices.Sort. scratch is grown
// to len(dst) when two or more passes are needed.
func sortBlocks(dst []sim.Duration, blocks [][]sim.Duration, scratch *[]sim.Duration) {
	if len(dst) == 0 {
		return
	}
	lo, hi := blocks[0][0], blocks[0][0]
	for _, b := range blocks {
		for _, x := range b {
			lo, hi = min(lo, x), max(hi, x)
		}
	}
	if len(dst) < smallCount || lo == hi {
		k := 0
		for _, b := range blocks {
			k += copy(dst[k:], b)
		}
		slices.Sort(dst)
		return
	}
	base := uint64(lo)
	passes := (bits.Len64(uint64(hi)-base) + radixBits - 1) / radixBits
	var tmp []sim.Duration
	if passes > 1 {
		if cap(*scratch) < len(dst) {
			*scratch = make([]sim.Duration, len(dst))
		}
		tmp = (*scratch)[:len(dst)]
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
