// Package match implements NegotiaToR Matching (paper §3.2, Algorithm 1):
// the distributed REQUEST / GRANT / ACCEPT scheduling algorithm that
// computes non-conflicting port-level matches from binary ToR-level traffic
// demands, using round-robin rings inspired by RRM for fairness.
//
// The package also implements every design-choice variant the paper
// explores in §3.5 and Appendix A.2 — iterative matching, informative
// requests (data-size and weighted head-of-line delay priorities), stateful
// scheduling, and a ProjecToR-style per-port delay-priority scheduler — all
// behind the same Matcher interface so the fabric engine can swap them
// freely.
package match

import (
	"math/bits"

	"negotiator/internal/sim"
)

// Ring is a round-robin arbiter over n participants (paper Figure 3b/3c).
// The pointer marks the highest-priority participant; priority decreases
// clockwise. After a participant wins, the pointer advances to its
// successor, so the least recently granted participant is always preferred
// — the fairness/starvation-freedom property of RRM.
type Ring struct {
	n   int
	ptr int
}

// NewRing returns a ring of size n with a random initial pointer, as the
// paper's Algorithm 1 initialises its rings.
func NewRing(n int, rng *sim.RNG) *Ring {
	r := &Ring{n: n}
	if n > 0 && rng != nil {
		r.ptr = rng.Intn(n)
	}
	return r
}

// Size returns the ring size.
func (r *Ring) Size() int { return r.n }

// Pointer returns the current highest-priority position.
func (r *Ring) Pointer() int { return r.ptr }

// Dist returns pos's cyclic distance from the pointer, (pos - ptr) mod n.
// Of a candidate set, Pick, PickMask and PickMaskSum return the member at
// the smallest distance.
func (r *Ring) Dist(pos int) int {
	d := pos - r.ptr
	if d < 0 {
		d += r.n
	}
	return d
}

// Pick returns the first position at or after the pointer (cyclically) for
// which want returns true, or -1 if none does. Pick does not move the
// pointer; call Advance with the winner.
func (r *Ring) Pick(want func(pos int) bool) int {
	for k := 0; k < r.n; k++ {
		pos := r.ptr + k
		if pos >= r.n {
			pos -= r.n
		}
		if want(pos) {
			return pos
		}
	}
	return -1
}

// PickMask returns the first position at or after the pointer (cyclically)
// whose bit is set in mask, or -1 when mask is empty — Ring.Pick with an
// is-set predicate, executed as a word-scan programmable priority encoder
// (the hardware round-robin arbiter of paper §3.6.2: find-first-set over
// 64-bit words from a thermometer-masked pointer). Bits at or above Size
// must not be set. Like Pick it does not move the pointer.
func (r *Ring) PickMask(mask []uint64) int {
	if r.n == 0 {
		return -1
	}
	w := r.ptr >> 6
	// Upper segment: bits at or after the pointer.
	for i := w; i < len(mask); i++ {
		m := mask[i]
		if i == w {
			m &^= 1<<(uint(r.ptr)&63) - 1
		}
		if m != 0 {
			return i<<6 + bits.TrailingZeros64(m)
		}
	}
	// Wrap-around segment: bits before the pointer.
	for i := 0; i <= w && i < len(mask); i++ {
		m := mask[i]
		if i == w {
			m &= 1<<(uint(r.ptr)&63) - 1
		}
		if m != 0 {
			return i<<6 + bits.TrailingZeros64(m)
		}
	}
	return -1
}

// PickMaskSum is PickMask with a summary level: sum holds one bit per
// mask word (bit w set iff mask[w] != 0), so the scan skips runs of empty
// words 64 at a time — O(candidates + words/4096) instead of O(words),
// which kept wide-but-sparse arbitration width-proportional. Callers
// maintain sum alongside mask; both must return to all-zero between
// arbitration rounds.
func (r *Ring) PickMaskSum(mask, sum []uint64) int {
	if r.n == 0 {
		return -1
	}
	w := r.ptr >> 6
	// Upper segment: bits at or after the pointer. The pointer's own word
	// first (partial), then the summary jumps straight to the next
	// non-empty word.
	if m := mask[w] &^ (1<<(uint(r.ptr)&63) - 1); m != 0 {
		return w<<6 + bits.TrailingZeros64(m)
	}
	if i := nextMaskWord(sum, w+1); i >= 0 {
		return i<<6 + bits.TrailingZeros64(mask[i])
	}
	// Wrap-around segment: bits before the pointer.
	if i := nextMaskWord(sum, 0); i >= 0 && i < w {
		return i<<6 + bits.TrailingZeros64(mask[i])
	}
	if m := mask[w] & (1<<(uint(r.ptr)&63) - 1); m != 0 {
		return w<<6 + bits.TrailingZeros64(m)
	}
	return -1
}

// nextMaskWord returns the smallest word index >= from whose summary bit
// is set, or -1.
func nextMaskWord(sum []uint64, from int) int {
	w := from >> 6
	if w >= len(sum) {
		return -1
	}
	m := sum[w] &^ (1<<(uint(from)&63) - 1)
	for {
		if m != 0 {
			return w<<6 + bits.TrailingZeros64(m)
		}
		w++
		if w >= len(sum) {
			return -1
		}
		m = sum[w]
	}
}

// Advance moves the pointer to the position after winner, giving winner the
// lowest priority for the next arbitration.
func (r *Ring) Advance(winner int) {
	if r.n == 0 {
		return
	}
	r.ptr = winner + 1
	if r.ptr >= r.n {
		r.ptr = 0
	}
}
