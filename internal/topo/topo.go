// Package topo models the flat AWGR-based optical topologies that NegotiaToR
// runs on: the parallel network built from high port-count AWGRs and the
// thin-clos network built from low port-count AWGRs (paper Figure 1).
//
// In both topologies a ToR has S uplink ports, each equipped with a fast
// tunable laser and attached to a passive AWGR; tuning the wavelength selects
// the destination. A physical connection is always "same-index port to
// same-index port": when source i transmits from its port s the bits arrive
// on destination j's port s. The topologies differ in which destinations a
// given port can reach, which in turn shapes the GRANT step of NegotiaToR
// Matching (per-ToR ring on the parallel network, per-port rings on
// thin-clos).
package topo

import "fmt"

// Topology describes the connection capabilities of a flat optical fabric
// interconnecting N ToRs with S uplink ports each. Parallel and ThinClos
// implement it, and the matching layer accepts no other: its round-robin
// rings index their port domains through tables of its own.
//
// Implementations must be stateless and safe for concurrent use.
type Topology interface {
	// N returns the number of ToRs.
	N() int
	// Ports returns the number of uplink ports per ToR (S).
	Ports() int

	// CanReach reports whether source ToR src can transmit to destination
	// ToR dst using port s (on both ends; connections are same-index).
	CanReach(src, s, dst int) bool

	// PortDomain returns the set of source ToRs that can reach destination
	// dst on its port s, i.e. the candidate set of the GRANT arbiter for
	// that port, in the order of that arbiter's ring positions. The
	// returned slice must not be modified. The destination
	// itself is included when the hardware would allow a self-loop; the
	// matching layer never requests self traffic.
	PortDomain(dst, s int) []int

	// PredefinedSlots returns the number of timeslots a predefined phase
	// needs to connect every ordered ToR pair exactly once:
	// ceil((N-1)/S) for the parallel network, W for thin-clos.
	PredefinedSlots() int

	// PredefinedPeer returns the destination that port s of ToR i connects
	// to during timeslot t of a predefined phase with round-robin rotation
	// r, or -1 if the slot is a self-connection (idle). Rotation only has
	// an effect on the parallel network, where it cycles the port used by
	// each ToR pair across epochs for fault resilience (§3.6.1); thin-clos
	// pairs have a single fixed port-to-port path.
	PredefinedPeer(i, s, t, r int) int

	// PathPort returns the single port index connecting src to dst on
	// topologies with unique paths (thin-clos), or -1 when any port works
	// (parallel network). It returns -2 if src == dst.
	PathPort(src, dst int) int

	// PredefinedSlotPort is the inverse of PredefinedPeer: the (slot, port)
	// at which source i connects to j during a predefined phase with
	// rotation r. It returns (-1, -1) if i == j.
	PredefinedSlotPort(i, j, r int) (slot, port int)

	// PredefinedSource is the per-slot inverse of PredefinedPeer: the
	// source i whose port s connects to destination j during timeslot t
	// with rotation r, or -1 if no source reaches j on that port this
	// slot (schedule padding or the self-connection). The predefined
	// schedules are per-(s, t, r) permutations, so
	// PredefinedPeer(i, s, t, r) == j iff PredefinedSource(j, s, t, r) == i.
	PredefinedSource(j, s, t, r int) int

	// SlotSchedule resolves timeslot t of a predefined phase with rotation
	// r for a slot loop, filling peers (the ToR each port connects to, as
	// PredefinedPeer names it) and sources (the ToR each port hears from,
	// as PredefinedSource names it) in place. Where those return -1 the
	// Schedule maps the ToR to itself. It costs one reduction per slot;
	// the loop then resolves a ToR's ports (Schedule.Row) without a
	// division.
	SlotSchedule(t, r int, peers, sources *Schedule)

	// AWGRs returns the number of optical switches the physical build
	// requires and the port count of each.
	AWGRs() (count, ports int)

	// Name returns a short human-readable topology name.
	Name() string
}

// Schedule is one direction of one timeslot of a predefined schedule (see
// Topology.SlotSchedule). Every ToR x has a base b for the slot and every
// port s an offset in [0, N), and the ToR at the far end of x's port s is
// (b + offset) mod N. A connection that ends at x itself is idle: the
// self-connection, or padding on the parallel network. The zero value is
// empty; SlotSchedule fills it and reuses its storage.
type Schedule struct {
	n      int
	w      int // thin-clos group width; 0 on the parallel network, where x's base is x
	shift  int // thin-clos local-index shift in [0, w)
	offset []int
}

// reset sizes the schedule for n ToRs and the given port count.
func (sc *Schedule) reset(n, ports, w, shift int) {
	sc.n, sc.w, sc.shift = n, w, shift
	if cap(sc.offset) < ports {
		sc.offset = make([]int, ports)
	}
	sc.offset = sc.offset[:ports]
}

// Row fills far[s], for every port s, with the ToR at the far end of ToR
// x's port s this slot, x itself on an idle connection; far must hold one
// entry per port. It costs one sign mask per port in place of a mod, and
// no division.
func (sc *Schedule) Row(x int, far []int) {
	b, n := sc.base(x), sc.n
	far = far[:len(sc.offset)]
	for s, o := range sc.offset {
		j := b + o - n // b and o both lie in [0, N)
		far[s] = j + n&(j>>63)
	}
}

// base returns ToR x's base for the slot: x itself on the parallel
// network; on thin-clos, with x = g*W + l, (((l + shift) mod W) - g*W)
// mod N, so that port s (offset s*W) reaches group (s - g) mod G at local
// index (l + shift) mod W.
func (sc *Schedule) base(x int) int {
	if sc.w == 0 {
		return x
	}
	g := x / sc.w
	l := x - g*sc.w + sc.shift
	if l >= sc.w {
		l -= sc.w
	}
	b := l - g*sc.w
	if b < 0 {
		b += sc.n
	}
	return b
}

// Parallel is the parallel network topology (paper Figure 1a): S AWGRs, each
// with N ports; ToR i's port s attaches to AWGR s, which is a full N×N
// wavelength crossbar. Any source can reach any destination on any port.
type Parallel struct {
	n, s    int
	span    int     // PredefinedSlots()*s: the schedule's offset period
	domains [][]int // one shared domain: all ToRs
}

// NewParallel returns a parallel network of n ToRs with s ports each.
func NewParallel(n, s int) (*Parallel, error) {
	if n < 2 || s < 1 {
		return nil, fmt.Errorf("topo: parallel network needs n >= 2, s >= 1 (got n=%d s=%d)", n, s)
	}
	all := make([]int, n)
	for i := range all {
		all[i] = i
	}
	p := &Parallel{n: n, s: s, domains: [][]int{all}}
	p.span = p.PredefinedSlots() * s
	return p, nil
}

func (p *Parallel) N() int     { return p.n }
func (p *Parallel) Ports() int { return p.s }

func (p *Parallel) CanReach(src, s, dst int) bool {
	return src != dst && s >= 0 && s < p.s && src >= 0 && src < p.n && dst >= 0 && dst < p.n
}

func (p *Parallel) PortDomain(dst, s int) []int { return p.domains[0] }

func (p *Parallel) PredefinedSlots() int { return (p.n - 2 + p.s) / p.s } // ceil((n-1)/s)

// PredefinedPeer implements the rotating round-robin schedule. With
// k = (t*S + s + r) mod (slots*S), ToR i connects to (i + 1 + k) mod N.
// For fixed t the S ports of a ToR hit S consecutive offsets, so each slot
// is conflict-free, and over one phase every ordered pair meets exactly
// once. Incrementing the rotation r each epoch shifts which port serves a
// given pair, cycling through all S ports over S epochs.
//
// Offsets k >= N-1 (padding when S doesn't divide N-1, and the wrap onto
// self) are idle, and every other k keeps i + 1 + k below 2N, where one
// conditional subtract replaces the mod. Slot loops resolve a whole slot
// through SlotSchedule instead; this per-connection form is the reference
// it is tested against.
func (p *Parallel) PredefinedPeer(i, s, t, r int) int {
	k := (t*p.s + s + r) % p.span
	if k >= p.n-1 {
		return -1
	}
	j := i + 1 + k
	if j >= p.n {
		j -= p.n
	}
	return j
}

// PredefinedSource inverts the rotating schedule within one slot: the
// same offset k that takes i forward to j takes j back to i. As in
// PredefinedPeer, k < N-1 keeps j - 1 - k above -N, so one conditional
// add replaces the mod.
func (p *Parallel) PredefinedSource(j, s, t, r int) int {
	k := (t*p.s + s + r) % p.span
	if k >= p.n-1 {
		return -1 // schedule padding: no source transmits on this offset
	}
	i := j - 1 - k
	if i < 0 {
		i += p.n
	}
	return i
}

// SlotSchedule implements Topology: the S ports of slot t hit the S
// consecutive offsets k = (t*S + s + r) mod span, one reduction for the
// slot and a wrap at span per port. Port s then takes each ToR forward by
// 1 + k and back by the same amount (offset N-1-k), and a padding offset
// (k >= N-1) maps every ToR to itself.
func (p *Parallel) SlotSchedule(t, r int, peers, sources *Schedule) {
	peers.reset(p.n, p.s, 0, 0)
	sources.reset(p.n, p.s, 0, 0)
	k := (t*p.s + r) % p.span
	for s := 0; s < p.s; s++ {
		fwd, back := 0, 0
		if k < p.n-1 {
			fwd, back = k+1, p.n-1-k
		}
		peers.offset[s], sources.offset[s] = fwd, back
		if k++; k == p.span {
			k = 0
		}
	}
}

func (p *Parallel) PathPort(src, dst int) int {
	if src == dst {
		return -2
	}
	return -1
}

// PredefinedSlotPort inverts the rotating schedule: the offset of j from i
// is k = (j-i-1) mod N, reached when (t*S + s + r) mod span == k.
//
// The predefined phase calls this once per backlogged pair per epoch, so
// it costs one reduction of r plus one fused slot/port division: for
// i != j, j-i-1 lies in [-N, N-2], so one conditional add gives k in
// [0, N-2], and with r >= 0 (a rotation counts elapsed cycles) k - r mod
// span lies in (-span, N-2], where one conditional add replaces the mod.
func (p *Parallel) PredefinedSlotPort(i, j, r int) (slot, port int) {
	if i == j {
		return -1, -1
	}
	k := j - i - 1
	if k < 0 {
		k += p.n
	}
	ts := k - r%p.span
	if ts < 0 {
		ts += p.span
	}
	return ts / p.s, ts % p.s
}

func (p *Parallel) AWGRs() (count, ports int) { return p.s, p.n }
func (p *Parallel) Name() string              { return "parallel" }

// ThinClos is the thin-clos topology (paper Figure 1b) built from W-port
// AWGRs. N = W*G ToRs are arranged in G groups of W, with S = G ports per
// ToR. Port s of ToR i (in group gi) reaches exactly the W ToRs of group
// (s - gi) mod G, so every ordered pair is connected by a single
// port-to-port path with identical port index at both ends (§3.6.1). The
// build uses N*S/W AWGRs of W ports each: at paper scale (N=128, S=8,
// W=16) that is 64 sixteen-port AWGRs.
type ThinClos struct {
	n, s, w int
	domains [][]int // indexed by group: the W members of that group
}

// NewThinClos returns a thin-clos network of n ToRs with s ports per ToR
// and w-port AWGRs. It requires n == s*w (so the s port-reachable sets of
// size w partition the n destinations).
func NewThinClos(n, s, w int) (*ThinClos, error) {
	if n < 2 || s < 1 || w < 1 {
		return nil, fmt.Errorf("topo: thin-clos needs positive dimensions (got n=%d s=%d w=%d)", n, s, w)
	}
	if n != s*w {
		return nil, fmt.Errorf("topo: thin-clos requires n == s*w, got n=%d, s*w=%d", n, s*w)
	}
	t := &ThinClos{n: n, s: s, w: w}
	t.domains = make([][]int, s)
	for g := 0; g < s; g++ {
		members := make([]int, w)
		for l := 0; l < w; l++ {
			members[l] = g*w + l
		}
		t.domains[g] = members
	}
	return t, nil
}

func (t *ThinClos) N() int     { return t.n }
func (t *ThinClos) Ports() int { return t.s }

// W returns the AWGR port count (group size).
func (t *ThinClos) W() int { return t.w }

func (t *ThinClos) group(i int) int { return i / t.w }

func (t *ThinClos) CanReach(src, s, dst int) bool {
	if src == dst || s < 0 || s >= t.s || src < 0 || src >= t.n || dst < 0 || dst >= t.n {
		return false
	}
	return t.group(dst) == (s-t.group(src)+t.s)%t.s
}

// PortDomain: destination dst receives on port s only from sources in group
// (s - g(dst)) mod G.
func (t *ThinClos) PortDomain(dst, s int) []int {
	g := (s - t.group(dst) + t.s) % t.s
	return t.domains[g]
}

func (t *ThinClos) PredefinedSlots() int { return t.w }

// PredefinedPeer: in slot tt, port s of ToR i connects to the member of its
// reachable group with local index (li + tt) mod W. Each destination port
// then hears from exactly one source per slot, and over W slots every
// reachable pair meets exactly once. Rotation r is ignored: thin-clos pairs
// have a unique path, so there is nothing to rotate (the paper handles
// thin-clos failures by relaying instead).
func (t *ThinClos) PredefinedPeer(i, s, tt, r int) int {
	gi := t.group(i)
	gj := (s - gi + t.s) % t.s
	li := i % t.w
	j := gj*t.w + (li+tt)%t.w
	if j == i {
		return -1
	}
	return j
}

// PredefinedSource inverts the thin-clos schedule within one slot:
// destination j (group gj, local index lj) hears port s only from group
// (s - gj) mod G, and slot tt picks the member with local index
// (lj - tt) mod W.
func (t *ThinClos) PredefinedSource(j, s, tt, r int) int {
	gj := t.group(j)
	gi := (s - gj + t.s) % t.s
	li := (j%t.w - tt%t.w + t.w) % t.w
	i := gi*t.w + li
	if i == j {
		return -1
	}
	return i
}

// SlotSchedule implements Topology: slot tt shifts every local index by
// tt mod W, forward for peers and backward for sources, and port s of a
// ToR in group g reaches group (s - g) mod G, offset s*W from the ToR's
// base (see Schedule.base), so the whole slot is one shift; the
// self-connection (shift 0, port 2g mod G) maps a ToR to itself.
func (t *ThinClos) SlotSchedule(tt, r int, peers, sources *Schedule) {
	shift := tt % t.w
	peers.reset(t.n, t.s, t.w, shift)
	sources.reset(t.n, t.s, t.w, (t.w-shift)%t.w)
	for s := range peers.offset {
		peers.offset[s], sources.offset[s] = s*t.w, s*t.w
	}
}

func (t *ThinClos) PathPort(src, dst int) int {
	if src == dst {
		return -2
	}
	return (t.group(src) + t.group(dst)) % t.s
}

// PredefinedSlotPort inverts the thin-clos schedule: the pair's unique port
// and the slot offsetting j's local index from i's.
func (t *ThinClos) PredefinedSlotPort(i, j, r int) (slot, port int) {
	if i == j {
		return -1, -1
	}
	port = t.PathPort(i, j)
	slot = (j%t.w - i%t.w + t.w) % t.w
	return slot, port
}

func (t *ThinClos) AWGRs() (count, ports int) { return t.n * t.s / t.w, t.w }
func (t *ThinClos) Name() string              { return "thin-clos" }
