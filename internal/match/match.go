package match

import (
	"fmt"

	"negotiator/internal/sim"
	"negotiator/internal/topo"
)

// QueueView lets matchers read a source ToR's per-destination queue state
// without coupling to the queue implementation.
type QueueView interface {
	// QueuedBytes returns the bytes currently queued for dst.
	QueuedBytes(dst int) int64
	// WeightedHoL returns the paper's weighted head-of-line delay for dst
	// (Appendix A.2.3).
	WeightedHoL(dst int, alpha float64) float64
	// CumInjected returns the cumulative bytes ever enqueued for dst, used
	// by the stateful variant to report newly arrived demand.
	CumInjected(dst int) int64
	// NextDemand returns the smallest destination strictly greater than
	// after that may hold queued bytes, or -1. Iterating from -1 visits a
	// superset of {dst : QueuedBytes(dst) > 0} in ascending order, so the
	// REQUEST sweep costs O(active destinations) instead of O(N) — the
	// engines back it with their occupancy indexes.
	NextDemand(after int) int
}

// Request is a scheduling request from Src to Dst. The base algorithm uses
// only the binary fact of its existence; variants attach extra fields.
type Request struct {
	Src, Dst int
	Port     int     // ProjecToR variant: pre-bound source port; -1 for ToR-level
	Size     int64   // data-size variant: queued bytes
	Delay    float64 // HoL-delay / ProjecToR variants: waiting-delay priority
	NewBytes int64   // stateful variant: bytes newly arrived since last request
}

// Grant allocates destination Dst's port Port to source Src.
type Grant struct {
	Dst, Port, Src int
}

// Matcher is one scheduling policy, invoked by the fabric engine once per
// ToR per pipeline stage. Implementations keep all per-ToR state internally
// (indexed by ToR id) and are single-goroutine.
type Matcher interface {
	// Name identifies the policy in experiment output.
	Name() string
	// MatchDelay returns the pipeline depth in epochs from the epoch a
	// request is issued to the epoch its match carries data. The base
	// non-iterative pipeline is 2 (request n, grant n+1, accept+data n+2,
	// paper Figure 4); each extra iteration adds three epochs (A.2.1).
	MatchDelay() int
	// Requests emits this epoch's requests from src given its queue state.
	// threshold is the engine's request threshold in bytes (3 piggyback
	// payloads when data piggybacking is on, §3.4.1).
	Requests(src int, view QueueView, now sim.Time, threshold int64, emit func(Request))
	// Grants runs the GRANT step at dst over the requests it received,
	// emitting at most one grant per uplink port.
	Grants(dst int, reqs []Request, emit func(Grant))
	// Accepts runs the ACCEPT step at src over the grants it received,
	// writing the matched destination (or -1) into matches[port] and
	// reporting per-grant accept/reject feedback (consumed by the stateful
	// variant; the base algorithm ignores it).
	Accepts(src int, view QueueView, grants []Grant, matches []int32, feedback func(g Grant, accepted bool))
	// Feedback delivers a source's accept/reject decision back to the
	// granting destination (stateful variant; no-op otherwise).
	Feedback(g Grant, accepted bool)
}

// RequestTraits declares what an engine may assume about a matcher's
// Requests step. Idle-safety gates the engines' request-side fast paths;
// a matcher that does not implement the interface gets the conservative
// (false, false) reading from TraitsOf and keeps the dense scan.
type RequestTraits interface {
	// RequestsIdleSafe reports that Requests on a source with no queued
	// demand emits nothing and mutates no matcher state — so an engine may
	// skip the call entirely for demand-free sources (O(active-source)
	// request loops) and a fully idle round may be fast-forwarded without
	// invoking the matcher at all.
	RequestsIdleSafe() bool
	// RequestsPure reports that Requests is a pure function of the view's
	// queued-bytes state and the threshold: it reads no clock-dependent
	// signal (WeightedHoL) and mutates no matcher state, so a source's
	// emissions could be replayed while its demand row is unchanged. No
	// engine replays them: every epoch runs a fresh sweep. Pure implies
	// idle-safe.
	RequestsPure() bool
}

// TraitsOf reads a matcher's request-step capabilities, defaulting to the
// conservative (false, false) for matchers that do not declare them.
func TraitsOf(m Matcher) (idleSafe, pure bool) {
	t, ok := m.(RequestTraits)
	if !ok {
		return false, false
	}
	return t.RequestsIdleSafe(), t.RequestsPure()
}

// Negotiator is the paper's NegotiaToR Matching: binary ToR-level requests,
// port-level grants via round-robin rings (one shared ring per destination
// on the parallel network, one ring per destination port on thin-clos,
// Figure 3), and port-level accepts via per-port rings. Non-iterative and
// stateless.
//
// Every ring pick scans the port's candidate ToRs for the one nearest the
// pointer (nearest), which is the first candidate at or after it. A ToR's
// ring position is its id on the parallel network, where every port's
// domain is the whole fabric, and its index within its group on
// thin-clos, where a port's domain is one group.
type Negotiator struct {
	topo topo.Topology

	// grantRings[dst]: length 1 (parallel, shared) or S (thin-clos,
	// per-port). acceptRings[src][port]: one ring per port.
	grantRings  [][]*Ring
	acceptRings [][]*Ring

	// grp/pos are the thin-clos group and local-index tables, nil on the
	// parallel network: src and dst meet on port (grp[src]+grp[dst]) mod
	// S, where src's ring position is pos[src]. Table reads, no
	// divisions.
	grp, pos []int32

	// Scratch, reused across calls. cands[port] holds one port's
	// candidates (requesters, granters or request indexes); every step
	// empties the lists before filling them. near holds the sorted
	// distances of the parallel GRANT's S nearest requesters.
	cands [][]int32
	near  []int
}

// NewNegotiator returns the base matcher for the given topology. rng seeds
// the random initial ring pointers. The topology must be a *topo.Parallel
// or a *topo.ThinClos, the only two the package implements.
func NewNegotiator(t topo.Topology, rng *sim.RNG) *Negotiator {
	n, s := t.N(), t.Ports()
	m := &Negotiator{topo: t}
	shared := false
	switch tt := t.(type) {
	case *topo.Parallel:
		shared = true
	case *topo.ThinClos:
		w := tt.W()
		m.grp = make([]int32, n)
		m.pos = make([]int32, n)
		for i := 0; i < n; i++ {
			m.grp[i] = int32(i / w)
			m.pos[i] = int32(i % w)
		}
	default:
		panic(fmt.Sprintf("match: unsupported topology %T", t))
	}
	m.grantRings = make([][]*Ring, n)
	m.acceptRings = make([][]*Ring, n)
	for i := 0; i < n; i++ {
		if shared {
			m.grantRings[i] = []*Ring{NewRing(n, rng)}
		} else {
			rings := make([]*Ring, s)
			for p := 0; p < s; p++ {
				rings[p] = NewRing(len(t.PortDomain(i, p)), rng)
			}
			m.grantRings[i] = rings
		}
		rings := make([]*Ring, s)
		for p := 0; p < s; p++ {
			rings[p] = NewRing(len(t.PortDomain(i, p)), rng)
		}
		m.acceptRings[i] = rings
	}
	m.initScratch()
	return m
}

// initScratch allocates the per-call scratch; a Fork handle owns its own.
func (m *Negotiator) initScratch() {
	s := m.topo.Ports()
	m.cands = make([][]int32, s)
	for p := range m.cands {
		m.cands[p] = make([]int32, 0, 8)
	}
	m.near = make([]int, 0, s)
}

// ringPos returns tor's position on the rings it takes part in.
func (m *Negotiator) ringPos(tor int32) int {
	if m.pos != nil {
		return int(m.pos[tor])
	}
	return int(tor)
}

// nearest returns the index in cand of the ToR ring picks, the one whose
// ring position is at the smallest cyclic distance from the pointer, and
// that position; (-1, -1) when cand is empty. Every candidate must lie in
// the ring's domain. List order does not matter.
func (m *Negotiator) nearest(ring *Ring, cand []int32) (i, pos int) {
	i, pos = -1, -1
	best := ring.Size()
	for k, c := range cand {
		p := m.ringPos(c)
		if d := ring.Dist(p); d < best {
			i, pos, best = k, p, d
		}
	}
	return i, pos
}

// bucket returns the candidate list a request from src joins at dst: list
// 0 on the parallel network, whose ports share one domain; the pair's
// path port on thin-clos, or -1 for src == dst, which no port connects.
func (m *Negotiator) bucket(dst, src int) int {
	if m.grp == nil {
		return 0
	}
	if src == dst {
		return -1
	}
	p := int(m.grp[src] + m.grp[dst])
	if s := len(m.cands); p >= s {
		p -= s
	}
	return p
}

// grantRing returns dst's grant ring for port and the candidate list the
// port picks from (see bucket).
func (m *Negotiator) grantRing(dst, port int) (*Ring, int) {
	rings := m.grantRings[dst]
	if len(rings) > 1 {
		return rings[port], port
	}
	return rings[0], 0
}

// resetCands empties every port's candidate list.
func (m *Negotiator) resetCands() {
	for p := range m.cands {
		m.cands[p] = m.cands[p][:0]
	}
}

func (m *Negotiator) Name() string    { return "negotiator" }
func (m *Negotiator) MatchDelay() int { return 2 }

// RequestsIdleSafe: the base REQUEST sweep emits only for queued demand
// and touches no matcher state. Embedders inherit both traits; variants
// whose Requests reads the clock or mutates state override them.
func (m *Negotiator) RequestsIdleSafe() bool { return true }

// RequestsPure: binary requests depend only on queued bytes vs threshold.
func (m *Negotiator) RequestsPure() bool { return true }

// Requests implements the REQUEST step: a binary request to every
// destination whose per-destination queue exceeds the threshold (§3.2.1
// with the piggybacking adjustment of §3.4.1). The sweep follows the
// view's demand index — ascending order, so emissions are identical to a
// dense 0..N-1 scan, at O(active destinations) cost.
func (m *Negotiator) Requests(src int, view QueueView, now sim.Time, threshold int64, emit func(Request)) {
	for dst := view.NextDemand(-1); dst >= 0; dst = view.NextDemand(dst) {
		if dst == src {
			continue
		}
		if view.QueuedBytes(dst) > threshold {
			emit(Request{Src: src, Dst: dst, Port: -1})
		}
	}
}

// Grants implements the GRANT step at dst: each port takes the requester
// nearest its grant ring's pointer, and the ring moves past the winner.
func (m *Negotiator) Grants(dst int, reqs []Request, emit func(Grant)) {
	if len(reqs) == 0 {
		return
	}
	if m.grp != nil {
		m.grantsPerPort(dst, reqs, emit)
		return
	}
	// Parallel network: the ports share one ring and a winner stays a
	// candidate, so port p goes to the p-th nearest requester, wrapping
	// when fewer than S asked, and the ring ends past port S-1's winner.
	// One pass keeps the S smallest distances sorted in near.
	ring := m.grantRings[dst][0]
	s := len(m.cands) // one list per port
	near := m.near[:0]
	for _, r := range reqs {
		d := ring.Dist(r.Src)
		if len(near) == s {
			if d >= near[s-1] {
				continue
			}
			near = near[:s-1]
		}
		i := len(near)
		near = append(near, d)
		for ; i > 0 && near[i-1] > d; i-- {
			near[i] = near[i-1]
		}
		near[i] = d
	}
	m.near = near
	ptr, n := ring.Pointer(), ring.Size()
	src, j := 0, 0
	for port := 0; port < s; port++ {
		if src = ptr + near[j]; src >= n {
			src -= n
		}
		emit(Grant{Dst: dst, Port: port, Src: src})
		if j++; j == len(near) {
			j = 0
		}
	}
	ring.Advance(src)
}

// grantsPerPort is the thin-clos GRANT step: a requester reaches dst on
// its path port only, so each port's ring picks among the requesters
// bucketed to it.
func (m *Negotiator) grantsPerPort(dst int, reqs []Request, emit func(Grant)) {
	m.resetCands()
	for _, r := range reqs {
		if p := m.bucket(dst, r.Src); p >= 0 {
			m.cands[p] = append(m.cands[p], int32(r.Src))
		}
	}
	rings := m.grantRings[dst]
	for port, cand := range m.cands {
		if len(cand) > 0 {
			i, pos := m.nearest(rings[port], cand)
			rings[port].Advance(pos)
			emit(Grant{Dst: dst, Port: port, Src: int(cand[i])})
		}
	}
}

// Accepts implements the ACCEPT step at src: one grant per port, chosen by
// the per-port round-robin ring.
func (m *Negotiator) Accepts(src int, view QueueView, grants []Grant, matches []int32, feedback func(Grant, bool)) {
	m.granters(grants, matches)
	rings := m.acceptRings[src]
	for port, cand := range m.cands {
		if len(cand) > 0 {
			i, pos := m.nearest(rings[port], cand)
			rings[port].Advance(pos)
			matches[port] = cand[i]
		}
	}
	report(grants, matches, feedback)
}

// granters opens an ACCEPT step: it clears the match row and lists each
// port's granting destinations in cands. A grant arrives on a port whose
// domain holds its destination.
func (m *Negotiator) granters(grants []Grant, matches []int32) {
	for p := range matches {
		matches[p] = -1
		m.cands[p] = m.cands[p][:0]
	}
	for _, g := range grants {
		m.cands[g.Port] = append(m.cands[g.Port], int32(g.Dst))
	}
}

// report hands every grant's accept/reject outcome to feedback, if any.
func report(grants []Grant, matches []int32, feedback func(Grant, bool)) {
	if feedback != nil {
		for _, g := range grants {
			feedback(g, matches[g.Port] == int32(g.Dst))
		}
	}
}

// Feedback is a no-op for the stateless base algorithm.
func (m *Negotiator) Feedback(Grant, bool) {}
