package match

import (
	"fmt"
	"math/rand"
	"testing"

	"negotiator/internal/sim"
	"negotiator/internal/topo"
)

// TestArbitrationMatchesPickReference pins the base matcher's GRANT and
// ACCEPT steps, and the Stateful variant's GRANT, to the ring semantics of
// paper §3.2: each port's pick is Ring.Pick over the port's domain with a
// membership predicate, and the winner advances the ring. Seeded request
// and grant sets of 0 to 12 candidates, weighted toward the lone and
// paired candidates most picks see, run from random ring pointers on both
// topologies and at widths up to 65,536 ToRs. The emitted grants, the
// match row, the accept feedback, the Stateful matrix row and every ring
// the call touches must equal the reference's.
func TestArbitrationMatchesPickReference(t *testing.T) {
	for _, c := range []struct {
		top    topo.Topology
		trials int
	}{
		{parallel(t, 16, 4), 3000},
		{parallel(t, 128, 8), 3000},
		{parallel(t, 65536, 8), 300},
		{thinclos(t, 128, 8, 16), 3000},
	} {
		t.Run(fmt.Sprintf("%s-%d", c.top.Name(), c.top.N()), func(t *testing.T) {
			n, s := c.top.N(), c.top.Ports()
			m := NewNegotiator(c.top, sim.NewRNG(1))
			rng := rand.New(rand.NewSource(int64(n)))
			member := make([]bool, n)
			matches := make([]int32, s)
			// The Stateful matcher shares m and holds one matrix row,
			// lent to each trial's destination: a full n×n matrix does
			// not fit at 65,536 ToRs.
			const epochBytes = 1000
			st := &Stateful{Negotiator: m, epochBytes: epochBytes, matrix: make([][]int64, n)}
			row, refRow := make([]int64, n), make([]int64, n)
			for trial := 0; trial < c.trials; trial++ {
				fail := func(format string, args ...any) {
					t.Helper()
					t.Fatalf("trial %d: "+format, append([]any{trial}, args...)...)
				}

				// GRANT at a random destination.
				dst := rng.Intn(n)
				rings := m.grantRings[dst]
				scramble(rng, rings)
				ref := copyRings(rings)
				var reqs []Request
				for _, src := range drawCandidates(rng, n, rings[0].Pointer(), func(src int) bool { return src != dst }) {
					reqs = append(reqs, Request{Src: src, Dst: dst, Port: -1})
				}
				var got []Grant
				m.Grants(dst, reqs, func(g Grant) { got = append(got, g) })
				for _, r := range reqs {
					member[r.Src] = true
				}
				var want []Grant
				for port := 0; port < s; port++ {
					ring := &ref[0]
					if len(ref) > 1 {
						ring = &ref[port]
					}
					dom := c.top.PortDomain(dst, port)
					if pos := ring.Pick(func(p int) bool { return member[dom[p]] }); pos >= 0 {
						ring.Advance(pos)
						want = append(want, Grant{Dst: dst, Port: port, Src: dom[pos]})
					}
				}
				for _, r := range reqs {
					member[r.Src] = false
				}
				if fmt.Sprint(got) != fmt.Sprint(want) {
					fail("Grants(%d, %v) = %v, reference %v", dst, reqs, got, want)
				}
				if err := samePointers(rings, ref); err != nil {
					fail("Grants(%d, %v): %v", dst, reqs, err)
				}

				// ACCEPT at a random source: per port, distinct granters
				// drawn from the port's domain.
				src := rng.Intn(n)
				rings = m.acceptRings[src]
				scramble(rng, rings)
				ref = copyRings(rings)
				var grants []Grant
				for port := 0; port < s; port++ {
					dom := c.top.PortDomain(src, port)
					for _, pos := range drawCandidates(rng, len(dom), rings[port].Pointer(), func(p int) bool { return dom[p] != src }) {
						grants = append(grants, Grant{Dst: dom[pos], Port: port, Src: src})
					}
				}
				rng.Shuffle(len(grants), func(i, j int) { grants[i], grants[j] = grants[j], grants[i] })
				var feedback []bool
				m.Accepts(src, nil, grants, matches, func(_ Grant, ok bool) { feedback = append(feedback, ok) })
				for port := 0; port < s; port++ {
					for _, g := range grants {
						if g.Port == port {
							member[g.Dst] = true
						}
					}
					dom := c.top.PortDomain(src, port)
					want := int32(-1)
					if pos := ref[port].Pick(func(p int) bool { return member[dom[p]] }); pos >= 0 {
						ref[port].Advance(pos)
						want = int32(dom[pos])
					}
					for _, g := range grants {
						member[g.Dst] = false
					}
					if matches[port] != want {
						fail("Accepts(%d, %v): port %d matched %d, reference %d", src, grants, port, matches[port], want)
					}
				}
				for i, g := range grants {
					if feedback[i] != (matches[g.Port] == int32(g.Dst)) {
						fail("Accepts(%d, %v): feedback %v for %v, match row %v", src, grants, feedback[i], g, matches)
					}
				}
				if err := samePointers(rings, ref); err != nil {
					fail("Accepts(%d, %v): %v", src, grants, err)
				}

				// Stateful GRANT at a random destination: the candidates
				// are the requesters whose entry is positive once their
				// NewBytes is added, each winner's entry drops by
				// epochBytes, and an entry at or below zero leaves.
				dst = rng.Intn(n)
				rings = m.grantRings[dst]
				scramble(rng, rings)
				ref = copyRings(rings)
				reqs = reqs[:0]
				for _, src := range drawCandidates(rng, n, rings[0].Pointer(), func(src int) bool { return src != dst }) {
					row[src] = rng.Int63n(3*epochBytes) - epochBytes
					refRow[src] = row[src]
					reqs = append(reqs, Request{Src: src, Dst: dst, Port: -1, NewBytes: rng.Int63n(2 * epochBytes)})
				}
				st.matrix[dst] = row
				got = got[:0]
				st.Grants(dst, reqs, func(g Grant) { got = append(got, g) })
				st.matrix[dst] = nil
				for _, r := range reqs {
					refRow[r.Src] += r.NewBytes
					member[r.Src] = refRow[r.Src] > 0
				}
				want = want[:0]
				for port := 0; port < s; port++ {
					ring := &ref[0]
					if len(ref) > 1 {
						ring = &ref[port]
					}
					dom := c.top.PortDomain(dst, port)
					if pos := ring.Pick(func(p int) bool { return member[dom[p]] }); pos >= 0 {
						ring.Advance(pos)
						refRow[dom[pos]] -= epochBytes
						member[dom[pos]] = refRow[dom[pos]] > 0
						want = append(want, Grant{Dst: dst, Port: port, Src: dom[pos]})
					}
				}
				for _, r := range reqs {
					member[r.Src] = false
				}
				if fmt.Sprint(got) != fmt.Sprint(want) {
					fail("Stateful.Grants(%d, %v) = %v, reference %v", dst, reqs, got, want)
				}
				for i := range row {
					if row[i] != refRow[i] {
						fail("Stateful.Grants(%d, %v): matrix entry %d = %d, reference %d", dst, reqs, i, row[i], refRow[i])
					}
				}
				if err := samePointers(rings, ref); err != nil {
					fail("Stateful.Grants(%d, %v): %v", dst, reqs, err)
				}
				for _, r := range reqs {
					row[r.Src], refRow[r.Src] = 0, 0
				}
			}
		})
	}
}

// drawCandidates returns 0 to 12 distinct positions in [0, n) that ok
// accepts, mostly one or two, half the time clustered around ptr so the
// pointer's own neighbourhood and the wrap-around are exercised.
func drawCandidates(rng *rand.Rand, n, ptr int, ok func(int) bool) []int {
	var k int
	switch r := rng.Intn(10); {
	case r == 0:
		k = 0
	case r < 5:
		k = 1
	case r < 8:
		k = 2
	default:
		k = 3 + rng.Intn(10)
	}
	near := rng.Intn(2) == 0
	var out []int
	for tries := 0; len(out) < k && tries < 100; tries++ {
		pos := rng.Intn(n)
		if near {
			pos = ((ptr+rng.Intn(9)-4)%n + n) % n
		}
		dup := false
		for _, p := range out {
			dup = dup || p == pos
		}
		if !dup && ok(pos) {
			out = append(out, pos)
		}
	}
	return out
}

// scramble sets every ring to a random pointer.
func scramble(rng *rand.Rand, rings []*Ring) {
	for _, r := range rings {
		r.ptr = rng.Intn(r.Size())
	}
}

func copyRings(rings []*Ring) []Ring {
	out := make([]Ring, len(rings))
	for i, r := range rings {
		out[i] = *r
	}
	return out
}

func samePointers(rings []*Ring, ref []Ring) error {
	for i, r := range rings {
		if r.Pointer() != ref[i].Pointer() {
			return fmt.Errorf("ring %d pointer %d, reference %d", i, r.Pointer(), ref[i].Pointer())
		}
	}
	return nil
}
