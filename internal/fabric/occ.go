package fabric

import "math/bits"

// OccSet is a destination-occupancy index: a two-level bitset over [0, n)
// with deterministic ascending iteration by word-scan find-first-set. The
// bottom level is the member bitmask; the summary level has one bit per
// bottom word (bit w set iff words[w] != 0), so Next skips runs of empty
// words 64 at a time — iteration and termination cost O(members + N/4096)
// instead of the flat bitset's O(N/64), which at 65,536 destinations was
// itself a width-proportional per-round term. Engines iterate it to make
// per-round sweeps O(active destinations):
//
//	for j := occ.Next(-1); j >= 0; j = occ.Next(j) { ... }
//
// Set/Clear are idempotent, so the choke points that maintain the index
// never need to read queue state twice.
type OccSet struct {
	words []uint64
	sum   []uint64 // sum[w>>6] bit (w&63) set iff words[w] != 0
}

func newOccSet(n int) OccSet {
	nw := (n + 63) >> 6
	return OccSet{words: make([]uint64, nw), sum: make([]uint64, (nw+63)>>6)}
}

// NewOccSet returns an empty occupancy set over [0, n) for engine-side
// indexes (mailbox-pending and matched sets) that follow the same
// O(members) iteration discipline as the fabric's own shard sets.
func NewOccSet(n int) OccSet { return newOccSet(n) }

// Set marks destination i occupied.
func (s *OccSet) Set(i int) {
	w := i >> 6
	s.words[w] |= 1 << (uint(i) & 63)
	s.sum[w>>6] |= 1 << (uint(w) & 63)
}

// Clear marks destination i empty.
func (s *OccSet) Clear(i int) {
	w := i >> 6
	s.words[w] &^= 1 << (uint(i) & 63)
	if s.words[w] == 0 {
		s.sum[w>>6] &^= 1 << (uint(w) & 63)
	}
}

// Has reports whether destination i is marked occupied.
func (s *OccSet) Has(i int) bool { return s.words[i>>6]&(1<<(uint(i)&63)) != 0 }

// Bit is Has as a number, 1 or 0, for callers that fold many members'
// bits into a mask with arithmetic instead of a branch per member.
func (s *OccSet) Bit(i int) uint64 { return s.words[i>>6] >> (uint(i) & 63) & 1 }

// nextSumWord returns the smallest word index >= from whose summary bit is
// set in sa (OR sb when non-nil), or -1.
func nextSumWord(sa, sb []uint64, from int) int {
	w := from >> 6
	if w >= len(sa) {
		return -1
	}
	m := sa[w]
	if sb != nil {
		m |= sb[w]
	}
	m &^= 1<<(uint(from)&63) - 1
	for {
		if m != 0 {
			return w<<6 + bits.TrailingZeros64(m)
		}
		w++
		if w >= len(sa) {
			return -1
		}
		m = sa[w]
		if sb != nil {
			m |= sb[w]
		}
	}
}

// Next returns the smallest member strictly greater than after, or -1.
// Next(-1) starts an ascending scan.
func (s *OccSet) Next(after int) int {
	i := after + 1
	if i < 0 {
		i = 0
	}
	w := i >> 6
	if w >= len(s.words) {
		return -1
	}
	if mask := s.words[w] &^ (1<<(uint(i)&63) - 1); mask != 0 {
		return w<<6 + bits.TrailingZeros64(mask)
	}
	w = nextSumWord(s.sum, nil, w+1)
	if w < 0 {
		return -1
	}
	return w<<6 + bits.TrailingZeros64(s.words[w])
}

// NextUnion returns the smallest index strictly greater than after that
// is a member of s or b — ascending joint iteration of two sets of one
// size, at the same O(members + N/4096) cost as Next.
func (s *OccSet) NextUnion(b *OccSet, after int) int { return nextUnion(s, b, after) }

// Count returns the number of members: a popcount over the member words,
// O(n/64). Slot loops use it to pick between a dense active-node walk and
// an inverted backlogged-destination walk; the answer only steers that
// cost heuristic, never the results (both walks are byte-identical).
func (s *OccSet) Count() int {
	var c int
	for _, w := range s.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// relayDstIndex is a shard-level relay-DESTINATION index: which
// destinations ANY of the shard's nodes holds relay backlog for,
// refcounted per destination so the last node to drain one clears its
// bit. The relay class's choke points (RelayClass.Push/Drain) maintain it
// on the same queue-empty transitions that flip the per-node Relay.Occ
// sets.
//
// It exists to invert the relay-drain walk: under VLB spray every
// intermediate holds relay bytes, so iterating relay-ACTIVE NODES is
// O(N·S) per slot no matter how sparse the traffic — but the backlogged
// destinations are only the active flows' targets, and the predefined
// schedules are per-(port, slot) permutations, so each (destination,
// port) pair maps back to exactly one candidate source through the slot
// schedule's inverse (topo.Topology.SlotSchedule). Allocation is lazy on
// the first relay push, so relay-free planes never pay for it.
type relayDstIndex struct {
	refs  []int32 // per destination: shard nodes holding relay backlog for it
	occ   OccSet  // destinations with refs > 0
	count int     // members of occ
}

func (ix *relayDstIndex) inc(n, dst int) {
	if ix.refs == nil {
		ix.refs = make([]int32, n)
		ix.occ = newOccSet(n)
	}
	if ix.refs[dst]++; ix.refs[dst] == 1 {
		ix.occ.Set(dst)
		ix.count++
	}
}

func (ix *relayDstIndex) dec(dst int) {
	if ix.refs[dst]--; ix.refs[dst] == 0 {
		ix.occ.Clear(dst)
		ix.count--
	}
}

// nextUnion returns the smallest index strictly greater than after that is
// a member of a or b (either may be empty/unmaterialized), scanning the OR
// of the two summaries and then the OR of the two candidate words.
// Materialized sets of one node share one size, so a single bound covers
// the joint scan.
func nextUnion(a, b *OccSet, after int) int {
	if b == nil || b.words == nil {
		return a.Next(after)
	}
	if a.words == nil {
		// Relay-only node: the direct set never materialized, but queued
		// relay data must still be visited (lazy == eager).
		return b.Next(after)
	}
	i := after + 1
	if i < 0 {
		i = 0
	}
	w := i >> 6
	if w >= len(a.words) {
		return -1
	}
	if mask := (a.words[w] | b.words[w]) &^ (1<<(uint(i)&63) - 1); mask != 0 {
		return w<<6 + bits.TrailingZeros64(mask)
	}
	w = nextSumWord(a.sum, b.sum, w+1)
	if w < 0 {
		return -1
	}
	return w<<6 + bits.TrailingZeros64(a.words[w]|b.words[w])
}
