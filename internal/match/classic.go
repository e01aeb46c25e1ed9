package match

import (
	"fmt"
	"slices"

	"negotiator/internal/sim"
	"negotiator/internal/topo"
)

// ArbiterKind selects the arbitration discipline of an iterative matcher.
// The paper's related-work discussion (§5) contrasts NegotiaToR Matching
// with the classic crossbar schedulers PIM, RRM and iSLIP; implementing
// all three makes the comparison runnable (the `ext-arbiters` experiment).
type ArbiterKind int

const (
	// RRM picks round-robin and always advances the pointer past the
	// winner — the paper's variant (and NegotiaToR's own discipline).
	RRM ArbiterKind = iota
	// PIM picks uniformly at random among candidates (Anderson et al.):
	// no pointer state, ~63% efficiency per iteration.
	PIM
	// ISLIP picks round-robin but advances pointers only for grants that
	// are accepted in the first iteration (McKeown): the pointers
	// desynchronise and the matcher converges to 100% under saturated
	// uniform traffic.
	ISLIP
)

func (k ArbiterKind) String() string {
	switch k {
	case PIM:
		return "pim"
	case ISLIP:
		return "islip"
	default:
		return "rrm"
	}
}

// Classic is the iterated request/grant/accept matcher with a selectable
// arbitration discipline: the crossbar schedulers the paper cites (§5)
// transplanted to the ToR-matching setting. Classic{RRM} is the paper's
// iterative variant of NegotiaToR Matching (Appendix A.2.1; the facade's
// Iterative1/3/5); ISLIP adds the accepted-grant pointer rule; PIM
// replaces rings with random choice.
type Classic struct {
	*Negotiator
	kind  ArbiterKind
	iters int
	rng   *sim.RNG

	b batchScratch
	// Persistent Match scratch: per-dst requester lists plus the sorted
	// distinct-dst index, and per-src grant lists plus the sorted
	// distinct-src index, so the grant/accept sweeps visit only active
	// ToRs (ascending, identical order to dense 0..N-1 scans) and the
	// per-call slice allocations are gone.
	reqBy     [][]int32
	reqDsts   []int32
	grants    [][]Grant
	grantSrcs []int32
}

// NewClassic returns an iterative matcher with the given discipline and
// iteration count.
func NewClassic(t topo.Topology, rng *sim.RNG, iters int, kind ArbiterKind) *Classic {
	if iters < 1 {
		iters = 1
	}
	n, s := t.N(), t.Ports()
	m := &Classic{
		Negotiator: NewNegotiator(t, rng),
		kind:       kind,
		iters:      iters,
		rng:        rng.Split(77),
	}
	m.b = newBatchScratch(n, s)
	m.reqBy = make([][]int32, n)
	m.grants = make([][]Grant, n)
	return m
}

func (m *Classic) Name() string { return fmt.Sprintf("%s-%d", m.kind, m.iters) }

// MatchDelay follows the paper's iterative accounting: 2 epochs plus 3 per
// extra iteration (Appendix A.2.1).
func (m *Classic) MatchDelay() int { return 2 + 3*(m.iters-1) }

// pick chooses among one port's candidate ToRs (listed in request or
// grant order) and returns the winner, or -1 when there is none. PIM
// draws uniformly at random and has no pointer; RRM and iSLIP take the
// candidate nearest ring's pointer, and RRM advances it now, while iSLIP
// waits for the accept.
func (m *Classic) pick(ring *Ring, cand []int32) int {
	if len(cand) == 0 {
		return -1
	}
	if m.kind == PIM {
		return int(cand[m.rng.Intn(len(cand))])
	}
	i, pos := m.nearest(ring, cand)
	if m.kind == RRM {
		ring.Advance(pos)
	}
	return int(cand[i])
}

// Match implements BatchMatcher: iterated request/grant/accept over one
// request snapshot. The sweeps visit only requested destinations and
// granted sources via sorted distinct-ToR indexes, port busyness is
// epoch-stamped (no O(N·S) clear per call), ring picks scan each port's
// candidate list, and only touched sources' match rows are written (see
// BatchMatcher.Match).
func (m *Classic) Match(reqs []Request, matches [][]int32, stats *BatchStats) []int32 {
	s := m.topo.Ports()
	b := &m.b
	b.begin()
	for _, dst := range m.reqDsts {
		m.reqBy[dst] = m.reqBy[dst][:0]
	}
	m.reqDsts = m.reqDsts[:0]
	for _, r := range reqs {
		if len(m.reqBy[r.Dst]) == 0 {
			m.reqDsts = append(m.reqDsts, int32(r.Dst))
		}
		m.reqBy[r.Dst] = append(m.reqBy[r.Dst], int32(r.Src))
	}
	slices.Sort(m.reqDsts)
	for iter := 0; iter < m.iters; iter++ {
		granted := false
		for _, dst32 := range m.reqDsts {
			dst := int(dst32)
			for port := 0; port < s; port++ {
				if b.dstBusy[dst*s+port] == b.stamp {
					continue
				}
				ring, list := m.grantRing(dst, port)
				b.cand = b.cand[:0]
				for _, src32 := range m.reqBy[dst] {
					src := int(src32)
					if src == dst || b.srcBusy[src*s+port] == b.stamp || m.bucket(dst, src) != list {
						continue
					}
					b.cand = append(b.cand, src32)
				}
				src := m.pick(ring, b.cand)
				if src < 0 {
					continue
				}
				b.touch(src, matches)
				if len(m.grants[src]) == 0 {
					m.grantSrcs = append(m.grantSrcs, int32(src))
				}
				m.grants[src] = append(m.grants[src], Grant{Dst: dst, Port: port, Src: src})
				if stats != nil {
					stats.Grants++
				}
				granted = true
			}
		}
		if !granted {
			break
		}
		slices.Sort(m.grantSrcs)
		for _, src32 := range m.grantSrcs {
			src := int(src32)
			gs := m.grants[src]
			for port := 0; port < s; port++ {
				if b.srcBusy[src*s+port] == b.stamp {
					continue
				}
				b.cand = b.cand[:0]
				for _, g := range gs {
					if g.Port == port {
						b.cand = append(b.cand, int32(g.Dst))
					}
				}
				dst := m.pick(&m.acceptRings[src*s+port], b.cand)
				if dst < 0 {
					continue
				}
				matches[src][port] = int32(dst)
				b.srcBusy[src*s+port] = b.stamp
				b.dstBusy[dst*s+port] = b.stamp
				if stats != nil {
					stats.Accepts++
				}
				if m.kind == ISLIP && iter == 0 {
					// iSLIP pointer rule: advance only for accepted
					// first-iteration grants.
					gring, _ := m.grantRing(dst, port)
					gring.Advance(m.ringPos(int32(src)))
					m.acceptRings[src*s+port].Advance(m.ringPos(int32(dst)))
				}
			}
			m.grants[src] = m.grants[src][:0]
		}
		m.grantSrcs = m.grantSrcs[:0]
	}
	return b.touched
}
