package match

import (
	"negotiator/internal/sim"
	"negotiator/internal/topo"
)

// HoLAlpha is the paper's weight for the lowest-priority queue in the
// weighted head-of-line delay (Appendix A.2.3): small but non-zero so
// mice-bearing pairs are scheduled promptly while elephants still register.
const HoLAlpha = 0.001

// priorityKind selects what the informative-request variants (A.2.3) carry
// and maximise.
type priorityKind int

const (
	prioDataSize priorityKind = iota // goodput-oriented: queued bytes
	prioHoLDelay                     // FCT-oriented: weighted HoL delay
)

// Informative is the informative-requests variant (Appendix A.2.3): requests
// carry a priority (aggregated queue size or weighted HoL delay) and both
// GRANT and ACCEPT pick the highest-priority candidate instead of the
// round-robin ring, with ring order breaking ties.
type Informative struct {
	*Negotiator
	kind priorityKind
}

// NewDataSize returns the goodput-oriented data-size priority matcher.
func NewDataSize(t topo.Topology, rng *sim.RNG) *Informative {
	return &Informative{Negotiator: NewNegotiator(t, rng), kind: prioDataSize}
}

// NewHoLDelay returns the FCT-oriented weighted-HoL-delay priority matcher.
func NewHoLDelay(t topo.Topology, rng *sim.RNG) *Informative {
	return &Informative{Negotiator: NewNegotiator(t, rng), kind: prioHoLDelay}
}

func (m *Informative) Name() string {
	if m.kind == prioDataSize {
		return "data-size"
	}
	return "hol-delay"
}

func (m *Informative) key(src int, view QueueView, dst int) float64 {
	if m.kind == prioDataSize {
		return float64(view.QueuedBytes(dst))
	}
	return view.WeightedHoL(dst, HoLAlpha)
}

// Requests attaches the priority information to each binary request.
func (m *Informative) Requests(src int, view QueueView, now sim.Time, threshold int64, emit func(Request)) {
	m.Negotiator.Requests(src, view, now, threshold, func(r Request) {
		r.Size = view.QueuedBytes(r.Dst)
		r.Delay = m.key(src, view, r.Dst)
		emit(r)
	})
}

// RequestsPure: the data-size priority is the queued-bytes figure the
// demand row already determines, but the HoL-delay key reads the queues'
// head-of-line ages against the clock — replaying a cached request would
// freeze the age it carried.
func (m *Informative) RequestsPure() bool { return m.kind == prioDataSize }

// prioOf extracts a request's carried priority.
func (m *Informative) prioOf(r Request) float64 {
	if m.kind == prioDataSize {
		return float64(r.Size)
	}
	return r.Delay
}

// Grants picks, per port, the requester with the highest priority; the ring
// is still advanced past the winner so ties rotate fairly. Each port scans
// the indexes of the requests it can hear (see bucket), tracking cyclic
// distance from the ring pointer so ties go to the candidate the ring
// would pick.
func (m *Informative) Grants(dst int, reqs []Request, emit func(Grant)) {
	if len(reqs) == 0 {
		return
	}
	m.resetCands()
	for i, r := range reqs {
		if b := m.bucket(dst, r.Src); b >= 0 {
			m.cands[b] = append(m.cands[b], int32(i))
		}
	}
	for port := range m.cands {
		ring, b := m.grantRing(dst, port)
		best, bestSrc, bestDist := -1.0, int32(-1), 0
		for _, ri := range m.cands[b] {
			r := reqs[ri]
			src := int32(r.Src)
			dist := ring.Dist(m.ringPos(src))
			if p := m.prioOf(r); p > best || (p == best && dist < bestDist) {
				best, bestSrc, bestDist = p, src, dist
			}
		}
		if bestSrc < 0 {
			continue
		}
		ring.Advance(m.ringPos(bestSrc))
		emit(Grant{Dst: dst, Port: port, Src: int(bestSrc)})
	}
}

// Accepts picks, per port, the granting destination with the highest local
// priority (the source consults its own queues).
func (m *Informative) Accepts(src int, view QueueView, grants []Grant, matches []int32, feedback func(Grant, bool)) {
	m.granters(grants, matches)
	for port, cand := range m.cands {
		best, bestDst := -1.0, int32(-1)
		for _, d := range cand {
			if k := m.key(src, view, int(d)); k > best {
				best, bestDst = k, d
			}
		}
		matches[port] = bestDst
	}
	report(grants, matches, feedback)
}

// Stateful is the stateful-scheduling variant (Appendix A.2.4): each
// destination maintains a traffic matrix of estimated pending bytes per
// source, fed by request-carried newly-arrived sizes; grants are suppressed
// for sources the matrix believes are drained, and accept/reject feedback
// confirms or reverts the matrix decrements. The matcher counts the
// arrivals itself (ArrivalTracker), so no queue view carries them.
type Stateful struct {
	*Negotiator
	epochBytes int64 // bytes one matched port moves per scheduled phase

	matrix     [][]int64 // matrix[dst][src]: estimated pending bytes
	unreported [][]int64 // unreported[src][dst]: bytes admitted since src last requested dst
}

// NewStateful returns the stateful matcher. epochBytes is the per-port
// scheduled-phase capacity used as the per-grant matrix decrement.
func NewStateful(t topo.Topology, rng *sim.RNG, epochBytes int64) *Stateful {
	return &Stateful{Negotiator: NewNegotiator(t, rng), epochBytes: epochBytes, matrix: square(t.N()), unreported: square(t.N())}
}

// square returns an n×n zero matrix whose rows are carved from one array.
func square(n int) [][]int64 {
	cells := make([]int64, n*n)
	rows := make([][]int64, n)
	for i := range rows {
		rows[i] = cells[i*n : (i+1)*n : (i+1)*n]
	}
	return rows
}

func (m *Stateful) Name() string { return "stateful" }

// RequestsPure: each emitted request hands over the pair's unreported
// bytes and zeroes them, so a cached emission would re-report bytes the
// destination's matrix already counted.
func (m *Stateful) RequestsPure() bool { return false }

// Arrived implements ArrivalTracker: admitted bytes wait in src's row
// until its next request to dst reports them.
func (m *Stateful) Arrived(src, dst int, n int64) { m.unreported[src][dst] += n }

// Requests reports newly arrived bytes along with each binary request.
func (m *Stateful) Requests(src int, view QueueView, now sim.Time, threshold int64, emit func(Request)) {
	row := m.unreported[src]
	m.Negotiator.Requests(src, view, now, threshold, func(r Request) {
		r.NewBytes = row[r.Dst]
		row[r.Dst] = 0
		emit(r)
	})
}

// Grants updates the matrix from the requests, then grants only to sources
// with matrix-positive demand, temporarily decrementing per grant. The
// candidates are those sources, listed per port as bucket places them. A
// source whose entry drains leaves its list by swap-remove: picks go by
// distance from the pointer, so list order does not matter.
func (m *Stateful) Grants(dst int, reqs []Request, emit func(Grant)) {
	if len(reqs) == 0 {
		return
	}
	m.resetCands()
	row := m.matrix[dst]
	for _, r := range reqs {
		row[r.Src] += r.NewBytes
		if row[r.Src] > 0 {
			if b := m.bucket(dst, r.Src); b >= 0 {
				m.cands[b] = append(m.cands[b], int32(r.Src))
			}
		}
	}
	for port := range m.cands {
		ring, b := m.grantRing(dst, port)
		cand := m.cands[b]
		i, pos := m.nearest(ring, cand)
		if i < 0 {
			continue
		}
		ring.Advance(pos)
		src := cand[i]
		// Temporary decrement; reverted on reject via Feedback.
		row[src] -= m.epochBytes
		if row[src] <= 0 {
			cand[i] = cand[len(cand)-1]
			m.cands[b] = cand[:len(cand)-1]
		}
		emit(Grant{Dst: dst, Port: port, Src: int(src)})
	}
}

// Feedback reverts the temporary matrix decrement of rejected grants and
// floors accepted entries at zero (piggybacked bytes drain queues the
// matrix cannot see, §3.4.1).
func (m *Stateful) Feedback(g Grant, accepted bool) {
	row := m.matrix[g.Dst]
	if !accepted {
		row[g.Src] += m.epochBytes
	}
	if row[g.Src] < 0 {
		row[g.Src] = 0
	}
}

// Matrix exposes the estimated pending bytes for tests.
func (m *Stateful) Matrix(dst, src int) int64 { return m.matrix[dst][src] }

// ProjecToR is the ProjecToR-style scheduler transferred to NegotiaToR's
// setting (Appendix A.2.5): requests are per-port (the sending port is
// chosen before scheduling), carry the bundle's waiting delay, and both
// sides resolve conflicts by largest delay, with a single iteration.
type ProjecToR struct {
	*Negotiator
	rotate []int // per-source rotating first port, spreading port bindings

	bestDelay []float64 // scratch: per-PORT best delay at the granting dst
	bestSrc   []int32   // scratch: per-PORT best source at the granting dst
}

// NewProjecToR returns the ProjecToR-style matcher.
func NewProjecToR(t topo.Topology, rng *sim.RNG) *ProjecToR {
	return &ProjecToR{
		Negotiator: NewNegotiator(t, rng),
		rotate:     make([]int, t.N()),
		bestDelay:  make([]float64, t.Ports()),
		bestSrc:    make([]int32, t.Ports()),
	}
}

func (m *ProjecToR) Name() string { return "projector" }

// RequestsIdleSafe: the rotating first-port cursor advances on EVERY
// Requests call, demand or not — skipping calls for idle sources (or
// idle rounds) would change later port bindings.
func (m *ProjecToR) RequestsIdleSafe() bool { return false }

// RequestsPure: Requests mutates the rotation cursor and carries a
// clock-dependent waiting delay.
func (m *ProjecToR) RequestsPure() bool { return false }

// Requests binds each demanded destination to a specific source port
// up-front (rotating round-robin across ports), attaching the pair's
// waiting delay. On single-path topologies the bound port is the only path.
func (m *ProjecToR) Requests(src int, view QueueView, now sim.Time, threshold int64, emit func(Request)) {
	s := m.topo.Ports()
	k := m.rotate[src]
	m.rotate[src]++
	m.Negotiator.Requests(src, view, now, threshold, func(r Request) {
		if p := m.topo.PathPort(src, r.Dst); p >= 0 {
			r.Port = p
		} else {
			r.Port = k % s
			k++
		}
		r.Delay = view.WeightedHoL(r.Dst, 0.5)
		emit(r)
	})
}

// Grants picks, per destination port, the largest-delay request bound to
// that port — one pass over the REQUESTS into per-port bests, replacing
// the O(N) domain walk per port (requests already carry their bound port,
// so the port table reduces to S running maxima; ties resolve to the
// smallest source, exactly as the ascending domain scan did).
func (m *ProjecToR) Grants(dst int, reqs []Request, emit func(Grant)) {
	if len(reqs) == 0 {
		return
	}
	s := m.topo.Ports()
	for p := 0; p < s; p++ {
		m.bestDelay[p] = -1
		m.bestSrc[p] = -1
	}
	for _, r := range reqs {
		p := r.Port
		if p < 0 || p >= s {
			continue
		}
		if r.Delay > m.bestDelay[p] || (r.Delay == m.bestDelay[p] && m.bestSrc[p] >= 0 && int32(r.Src) < m.bestSrc[p]) {
			m.bestDelay[p], m.bestSrc[p] = r.Delay, int32(r.Src)
		}
	}
	for port := 0; port < s; port++ {
		if m.bestSrc[port] < 0 {
			continue
		}
		emit(Grant{Dst: dst, Port: port, Src: int(m.bestSrc[port])})
	}
}

// Accepts picks, per source port, the largest-delay granting destination.
func (m *ProjecToR) Accepts(src int, view QueueView, grants []Grant, matches []int32, feedback func(Grant, bool)) {
	m.granters(grants, matches)
	for port, cand := range m.cands {
		best, bestDst := -1.0, int32(-1)
		for _, d := range cand {
			if k := view.WeightedHoL(int(d), 0.5); k > best {
				best, bestDst = k, d
			}
		}
		matches[port] = bestDst
	}
	report(grants, matches, feedback)
}

// BatchStats reports grant/accept counts from a batch matcher for the
// match-ratio metric.
type BatchStats struct {
	Grants, Accepts int64
}

// BatchMatcher computes a whole-fabric matching from one epoch's request
// snapshot in a single call. The fabric engine uses it for the iterative
// variant, whose multiple request/grant/accept rounds would otherwise span
// several predefined phases; the engine models that cost through
// MatchDelay.
type BatchMatcher interface {
	Matcher
	// Match writes matches[src][port] (the matched destination, or -1)
	// for every source it returns in touched — the sources that received
	// at least one grant. Rows of sources NOT in touched are left
	// untouched and must be treated as all-unmatched by the caller; this
	// is what keeps a sparse epoch's Match O(active), with no O(N·S)
	// clear of the whole matrix. touched is unsorted scratch, valid only
	// until the next Match call.
	Match(reqs []Request, matches [][]int32, stats *BatchStats) (touched []int32)
}

// batchScratch is the O(active) bookkeeping the batch matchers share.
// The per-(ToR, port) busy sets are epoch-stamped — bumping the stamp
// clears both in O(1), replacing the O(N·S) srcFree/dstFree sweep that
// used to open every Match — and the touched list records which sources'
// match rows were written (each row is cleared to -1 once, when its
// source first appears in a grant).
type batchScratch struct {
	stamp            uint64
	srcBusy, dstBusy []uint64 // busy iff entry == stamp; index tor*S+port
	touchStamp       []uint64 // matches row cleared this call iff == stamp
	touched          []int32
	cand             []int32 // candidate ToRs of one pick
}

func newBatchScratch(n, s int) batchScratch {
	return batchScratch{
		srcBusy:    make([]uint64, n*s),
		dstBusy:    make([]uint64, n*s),
		touchStamp: make([]uint64, n),
	}
}

// begin opens a Match call: clears both busy sets and the touched list.
func (b *batchScratch) begin() {
	b.stamp++
	b.touched = b.touched[:0]
}

// touch clears src's match row on its first grant of this call.
func (b *batchScratch) touch(src int, matches [][]int32) {
	if b.touchStamp[src] == b.stamp {
		return
	}
	b.touchStamp[src] = b.stamp
	b.touched = append(b.touched, int32(src))
	row := matches[src]
	for p := range row {
		row[p] = -1
	}
}
