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

import "negotiator/internal/sim"

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
// The ring picks, of a candidate set, the member at the smallest distance:
// the first candidate at or after the pointer.
func (r *Ring) Dist(pos int) int {
	d := pos - r.ptr
	if d < 0 {
		d += r.n
	}
	return d
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
