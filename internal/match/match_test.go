package match

import (
	"runtime/debug"
	"testing"
	"testing/quick"

	"negotiator/internal/sim"
	"negotiator/internal/topo"
)

// fakeView is a QueueView backed by plain maps.
type fakeView struct {
	queued map[int]int64
	hol    map[int]float64
}

func (v *fakeView) QueuedBytes(dst int) int64 { return v.queued[dst] }
func (v *fakeView) WeightedHoL(dst int, alpha float64) float64 {
	return v.hol[dst]
}

// NextDemand iterates the queued map's keys in ascending order (a
// superset of the positive-bytes destinations, as the contract requires).
func (v *fakeView) NextDemand(after int) int {
	next := -1
	for dst := range v.queued {
		if dst > after && (next < 0 || dst < next) {
			next = dst
		}
	}
	return next
}

func viewWith(queued map[int]int64) *fakeView {
	return &fakeView{queued: queued, hol: map[int]float64{}}
}

func parallel(t *testing.T, n, s int) topo.Topology {
	t.Helper()
	p, err := topo.NewParallel(n, s)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func thinclos(t *testing.T, n, s, w int) topo.Topology {
	t.Helper()
	tc, err := topo.NewThinClos(n, s, w)
	if err != nil {
		t.Fatal(err)
	}
	return tc
}

// denseMatch runs Match with dense result semantics: every row is reset
// to -1 first, so rows Match leaves untouched (sources with no grant)
// read as unmatched. Tests sweep the whole matrix, so they want this; the
// engine instead consumes the touched list directly.
func denseMatch(m BatchMatcher, reqs []Request, matches [][]int32, stats *BatchStats) {
	for i := range matches {
		for p := range matches[i] {
			matches[i][p] = -1
		}
	}
	m.Match(reqs, matches, stats)
}

var matcherSink Matcher

// TestMatcherAllocationsFlat: every matcher keeps its per-ToR tables (the
// rings, the stateful matrices, the batch scratch) in flat arrays, so
// building one makes as many allocations at 512 ToRs as at 64, on both
// topologies.
func TestMatcherAllocationsFlat(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // no runtime allocations from a collection
	for name, mk := range map[string]func(topo.Topology) Matcher{
		"negotiator": func(top topo.Topology) Matcher { return NewNegotiator(top, sim.NewRNG(1)) },
		"islip":      func(top topo.Topology) Matcher { return NewClassic(top, sim.NewRNG(1), 3, ISLIP) },
		"data-size":  func(top topo.Topology) Matcher { return NewDataSize(top, sim.NewRNG(1)) },
		"stateful":   func(top topo.Topology) Matcher { return NewStateful(top, sim.NewRNG(1), 1000) },
		"projector":  func(top topo.Topology) Matcher { return NewProjecToR(top, sim.NewRNG(1)) },
	} {
		for _, shape := range []struct {
			name string
			top  func(n int) topo.Topology
		}{
			{"parallel", func(n int) topo.Topology { return parallel(t, n, 8) }},
			{"thinclos", func(n int) topo.Topology { return thinclos(t, n, 8, n/8) }},
		} {
			allocs := func(n int) float64 {
				top := shape.top(n)
				return testing.AllocsPerRun(3, func() { matcherSink = mk(top) })
			}
			if small, large := allocs(64), allocs(512); small != large {
				t.Errorf("%s on %s: %v allocations at 64 ToRs, %v at 512", name, shape.name, small, large)
			}
		}
	}
}

func TestRingBasics(t *testing.T) {
	r := NewRing(4, nil)
	if r.Size() != 4 || r.Pointer() != 0 {
		t.Fatalf("ring init: size=%d ptr=%d", r.Size(), r.Pointer())
	}
	got := r.Pick(func(p int) bool { return p == 2 })
	if got != 2 {
		t.Fatalf("Pick = %d, want 2", got)
	}
	r.Advance(2)
	if r.Pointer() != 3 {
		t.Fatalf("pointer after Advance(2) = %d, want 3", r.Pointer())
	}
	// Wrap-around: from 3, candidate 1 is reached cyclically.
	if got := r.Pick(func(p int) bool { return p == 1 }); got != 1 {
		t.Fatalf("cyclic Pick = %d, want 1", got)
	}
	r.Advance(3)
	if r.Pointer() != 0 {
		t.Fatalf("Advance wrap: ptr = %d, want 0", r.Pointer())
	}
	if got := r.Pick(func(int) bool { return false }); got != -1 {
		t.Fatalf("Pick with no candidates = %d, want -1", got)
	}
}

func TestRingLeastRecentlyGranted(t *testing.T) {
	// With everyone always requesting, winners rotate 0,1,2,3,0,...
	r := NewRing(4, nil)
	all := func(int) bool { return true }
	for i := 0; i < 8; i++ {
		w := r.Pick(all)
		if w != i%4 {
			t.Fatalf("round %d: winner %d, want %d", i, w, i%4)
		}
		r.Advance(w)
	}
}

func TestRingNoStarvationProperty(t *testing.T) {
	// A persistent candidate wins within one full revolution no matter
	// what the competition does.
	f := func(seed int64, target uint8, rounds uint8) bool {
		rng := sim.NewRNG(seed)
		n := 8
		r := NewRing(n, rng)
		tgt := int(target) % n
		for round := 0; round < n; round++ {
			w := r.Pick(func(int) bool { return true })
			r.Advance(w)
			if w == tgt {
				return true
			}
		}
		return false
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestRequestsThreshold(t *testing.T) {
	tp := parallel(t, 8, 2)
	m := NewNegotiator(tp, sim.NewRNG(1))
	view := viewWith(map[int]int64{1: 2000, 2: 1785, 3: 1786, 0: 5000})
	var got []Request
	m.Requests(0, view, 0, 1785, func(r Request) { got = append(got, r) })
	if len(got) != 2 {
		t.Fatalf("requests = %+v, want dst 1 and 3 only", got)
	}
	for _, r := range got {
		if r.Dst != 1 && r.Dst != 3 {
			t.Errorf("unexpected request to %d", r.Dst)
		}
		if r.Src != 0 || r.Port != -1 {
			t.Errorf("malformed request %+v", r)
		}
	}
	// Self-demand (dst==src) never requested even if the view has bytes.
}

func collectGrants(m Matcher, dst int, reqs []Request) []Grant {
	var gs []Grant
	m.Grants(dst, reqs, func(g Grant) { gs = append(gs, g) })
	return gs
}

func TestGrantInvariants(t *testing.T) {
	for _, tc := range []struct {
		name string
		top  topo.Topology
	}{
		{"parallel", parallel(t, 16, 4)},
		{"thinclos", thinclos(t, 16, 4, 4)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := NewNegotiator(tc.top, sim.NewRNG(2))
			var reqs []Request
			for src := 0; src < 16; src++ {
				if src != 5 {
					reqs = append(reqs, Request{Src: src, Dst: 5, Port: -1})
				}
			}
			gs := collectGrants(m, 5, reqs)
			if len(gs) != 4 {
				t.Fatalf("grants = %d, want 4 (one per port)", len(gs))
			}
			ports := map[int]bool{}
			for _, g := range gs {
				if ports[g.Port] {
					t.Fatalf("port %d granted twice", g.Port)
				}
				ports[g.Port] = true
				if g.Dst != 5 {
					t.Fatalf("grant from wrong dst: %+v", g)
				}
				if !tc.top.CanReach(g.Src, g.Port, g.Dst) {
					t.Fatalf("grant outside domain: %+v", g)
				}
			}
		})
	}
}

func TestGrantFewRequestersGetMultiplePorts(t *testing.T) {
	// Two requesters, four ports: each gets two ports ("m/n ports per
	// request", §3.2.2).
	tp := parallel(t, 16, 4)
	m := NewNegotiator(tp, sim.NewRNG(3))
	reqs := []Request{{Src: 1, Dst: 0, Port: -1}, {Src: 2, Dst: 0, Port: -1}}
	gs := collectGrants(m, 0, reqs)
	if len(gs) != 4 {
		t.Fatalf("grants = %d, want 4", len(gs))
	}
	count := map[int]int{}
	for _, g := range gs {
		count[g.Src]++
	}
	if count[1] != 2 || count[2] != 2 {
		t.Errorf("port split = %v, want 2/2", count)
	}
}

func TestGrantFairnessAcrossEpochs(t *testing.T) {
	// One port, three persistent requesters: grants rotate.
	tp := parallel(t, 8, 1)
	m := NewNegotiator(tp, sim.NewRNG(4))
	reqs := []Request{{Src: 1, Dst: 0, Port: -1}, {Src: 2, Dst: 0, Port: -1}, {Src: 3, Dst: 0, Port: -1}}
	seen := map[int]int{}
	for e := 0; e < 9; e++ {
		gs := collectGrants(m, 0, reqs)
		if len(gs) != 1 {
			t.Fatalf("epoch %d: %d grants", e, len(gs))
		}
		seen[gs[0].Src]++
	}
	for src := 1; src <= 3; src++ {
		if seen[src] != 3 {
			t.Errorf("src %d granted %d of 9, want 3 (fair rotation)", src, seen[src])
		}
	}
}

func TestAcceptInvariants(t *testing.T) {
	tp := parallel(t, 16, 4)
	m := NewNegotiator(tp, sim.NewRNG(5))
	grants := []Grant{
		{Dst: 3, Port: 0, Src: 7},
		{Dst: 9, Port: 0, Src: 7},
		{Dst: 3, Port: 2, Src: 7},
	}
	matches := make([]int32, 4)
	accepted := map[Grant]bool{}
	m.Accepts(7, viewWith(nil), grants, matches, func(g Grant, ok bool) { accepted[g] = ok })
	if matches[0] != 3 && matches[0] != 9 {
		t.Fatalf("port 0 match = %d, want 3 or 9", matches[0])
	}
	if matches[2] != 3 {
		t.Fatalf("port 2 match = %d, want 3", matches[2])
	}
	if matches[1] != -1 || matches[3] != -1 {
		t.Fatalf("ungranted ports matched: %v", matches)
	}
	nAccepted := 0
	for g, ok := range accepted {
		if ok {
			nAccepted++
			if matches[g.Port] != int32(g.Dst) {
				t.Fatalf("feedback inconsistent with matches")
			}
		}
	}
	if nAccepted != 2 {
		t.Fatalf("accepted = %d, want 2", nAccepted)
	}
}

func TestAcceptFairness(t *testing.T) {
	// Port 0 receives grants from dst 3 and 9 every epoch: accepts rotate.
	tp := parallel(t, 16, 1)
	m := NewNegotiator(tp, sim.NewRNG(6))
	grants := []Grant{{Dst: 3, Port: 0, Src: 7}, {Dst: 9, Port: 0, Src: 7}}
	matches := make([]int32, 1)
	seen := map[int32]int{}
	for e := 0; e < 10; e++ {
		m.Accepts(7, viewWith(nil), grants, matches, nil)
		seen[matches[0]]++
	}
	if seen[3] != 5 || seen[9] != 5 {
		t.Errorf("accept rotation = %v, want 5/5", seen)
	}
}

// runFullMatch runs request->grant->accept for a full backlog and returns
// (grants, accepts, matches per src).
func runFullMatch(m Matcher, top topo.Topology, view QueueView) (int, int, [][]int32) {
	n, s := top.N(), top.Ports()
	reqsByDst := make([][]Request, n)
	for src := 0; src < n; src++ {
		m.Requests(src, view, 0, 0, func(r Request) {
			reqsByDst[r.Dst] = append(reqsByDst[r.Dst], r)
		})
	}
	grantsBySrc := make([][]Grant, n)
	nGrants := 0
	for dst := 0; dst < n; dst++ {
		m.Grants(dst, reqsByDst[dst], func(g Grant) {
			grantsBySrc[g.Src] = append(grantsBySrc[g.Src], g)
			nGrants++
		})
	}
	nAccepts := 0
	matches := make([][]int32, n)
	for src := 0; src < n; src++ {
		matches[src] = make([]int32, s)
		m.Accepts(src, view, grantsBySrc[src], matches[src], func(g Grant, ok bool) {
			m.Feedback(g, ok)
		})
		for _, d := range matches[src] {
			if d >= 0 {
				nAccepts++
			}
		}
	}
	return nGrants, nAccepts, matches
}

func fullBacklogView(n int) *fakeView {
	q := map[int]int64{}
	h := map[int]float64{}
	for d := 0; d < n; d++ {
		q[d] = 1 << 20
		h[d] = 1
	}
	return &fakeView{queued: q, hol: h}
}

func TestMatchRatioTheory(t *testing.T) {
	// Under saturated all-to-all demand the accept/grant ratio should sit
	// near 1-(1-1/n)^n (§3.2.2): ~0.634 for large parallel networks, a bit
	// higher for thin-clos (n=W=4 here: 1-(3/4)^4 = 0.684).
	for _, tc := range []struct {
		name     string
		top      topo.Topology
		lo, hi   float64
		minEpoch int
	}{
		{"parallel-32x4", parallel(t, 32, 4), 0.52, 0.80, 50},
		{"thinclos-16x4", thinclos(t, 16, 4, 4), 0.55, 0.85, 50},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := NewNegotiator(tc.top, sim.NewRNG(7))
			view := fullBacklogView(tc.top.N())
			var g, a int
			for e := 0; e < tc.minEpoch; e++ {
				ge, ae, _ := runFullMatch(m, tc.top, view)
				g += ge
				a += ae
			}
			ratio := float64(a) / float64(g)
			if ratio < tc.lo || ratio > tc.hi {
				t.Errorf("match ratio = %.3f, want in [%.2f,%.2f]", ratio, tc.lo, tc.hi)
			}
		})
	}
}

func TestMatchConflictFreedom(t *testing.T) {
	// Across the whole fabric, no destination port is accepted by two
	// sources (the bufferless-link invariant).
	for _, top := range []topo.Topology{parallel(t, 16, 4), thinclos(t, 16, 4, 4)} {
		m := NewNegotiator(top, sim.NewRNG(8))
		view := fullBacklogView(top.N())
		for e := 0; e < 20; e++ {
			_, _, matches := runFullMatch(m, top, view)
			rx := map[[2]int32]int{}
			for src := range matches {
				for port, dst := range matches[src] {
					if dst < 0 {
						continue
					}
					key := [2]int32{dst, int32(port)}
					rx[key]++
					if rx[key] > 1 {
						t.Fatalf("epoch %d: dst %d port %d accepted twice", e, dst, port)
					}
					if !top.CanReach(src, port, int(dst)) {
						t.Fatalf("match violates reachability: %d -(%d)-> %d", src, port, dst)
					}
				}
			}
		}
	}
}

func TestInformativeDataSizePicksLargest(t *testing.T) {
	tp := parallel(t, 8, 1)
	m := NewDataSize(tp, sim.NewRNG(9))
	reqs := []Request{
		{Src: 1, Dst: 0, Size: 100},
		{Src: 2, Dst: 0, Size: 5000},
		{Src: 3, Dst: 0, Size: 200},
	}
	gs := collectGrants(m, 0, reqs)
	if len(gs) != 1 || gs[0].Src != 2 {
		t.Fatalf("data-size grant = %+v, want src 2", gs)
	}
	// Accept side: choose the dst with the biggest local queue.
	view := viewWith(map[int]int64{4: 100, 5: 9000})
	matches := make([]int32, 1)
	m.Accepts(6, view, []Grant{{Dst: 4, Port: 0, Src: 6}, {Dst: 5, Port: 0, Src: 6}}, matches, nil)
	if matches[0] != 5 {
		t.Fatalf("data-size accept = %d, want 5", matches[0])
	}
}

func TestInformativeHoLPicksLongestWait(t *testing.T) {
	tp := parallel(t, 8, 1)
	m := NewHoLDelay(tp, sim.NewRNG(10))
	reqs := []Request{
		{Src: 1, Dst: 0, Delay: 10},
		{Src: 2, Dst: 0, Delay: 99},
		{Src: 3, Dst: 0, Delay: 50},
	}
	gs := collectGrants(m, 0, reqs)
	if len(gs) != 1 || gs[0].Src != 2 {
		t.Fatalf("hol grant = %+v, want src 2", gs)
	}
}

func TestInformativeRequestsCarryPriority(t *testing.T) {
	tp := parallel(t, 8, 2)
	m := NewDataSize(tp, sim.NewRNG(11))
	view := viewWith(map[int]int64{1: 4000})
	var got []Request
	m.Requests(0, view, 0, 0, func(r Request) { got = append(got, r) })
	if len(got) != 1 || got[0].Size != 4000 {
		t.Fatalf("informative request = %+v", got)
	}
}

func TestStatefulSuppressesDrainedSources(t *testing.T) {
	tp := parallel(t, 8, 1)
	m := NewStateful(tp, sim.NewRNG(12), 1000)
	// Source 1 reports 1500 new bytes; the first two grants are allowed
	// (matrix 1500 -> 500 -> suppressed at 0... second grant drains it).
	reqs := []Request{{Src: 1, Dst: 0, Port: -1, NewBytes: 1500}}
	gs := collectGrants(m, 0, reqs)
	if len(gs) != 1 || gs[0].Src != 1 {
		t.Fatalf("first grant = %+v", gs)
	}
	m.Feedback(gs[0], true) // accepted: decrement stands
	if got := m.Matrix(0, 1); got != 500 {
		t.Fatalf("matrix after accept = %d, want 500", got)
	}
	// Re-request with no new bytes: still grantable (500 left).
	gs = collectGrants(m, 0, []Request{{Src: 1, Dst: 0, Port: -1}})
	if len(gs) != 1 {
		t.Fatalf("second grant missing: %+v", gs)
	}
	m.Feedback(gs[0], true)
	if got := m.Matrix(0, 1); got != 0 {
		t.Fatalf("matrix floor = %d, want 0", got)
	}
	// Drained: requests without new bytes are suppressed.
	gs = collectGrants(m, 0, []Request{{Src: 1, Dst: 0, Port: -1}})
	if len(gs) != 0 {
		t.Fatalf("drained source still granted: %+v", gs)
	}
}

func TestStatefulRevertsOnReject(t *testing.T) {
	tp := parallel(t, 8, 1)
	m := NewStateful(tp, sim.NewRNG(13), 1000)
	gs := collectGrants(m, 0, []Request{{Src: 1, Dst: 0, Port: -1, NewBytes: 1000}})
	if len(gs) != 1 {
		t.Fatal("no grant")
	}
	m.Feedback(gs[0], false) // rejected: matrix reverts to 1000
	if got := m.Matrix(0, 1); got != 1000 {
		t.Fatalf("matrix after reject = %d, want 1000", got)
	}
}

func TestStatefulRequestsReportNewBytesOnce(t *testing.T) {
	tp := parallel(t, 8, 1)
	m := NewStateful(tp, sim.NewRNG(14), 1000)
	view := &fakeView{queued: map[int]int64{2: 500}, hol: map[int]float64{}}
	m.Arrived(0, 2, 500)
	var first, second []Request
	m.Requests(0, view, 0, 0, func(r Request) { first = append(first, r) })
	m.Requests(0, view, 0, 0, func(r Request) { second = append(second, r) })
	if len(first) != 1 || first[0].NewBytes != 500 {
		t.Fatalf("first request = %+v", first)
	}
	if len(second) != 1 || second[0].NewBytes != 0 {
		t.Fatalf("second request should carry 0 new bytes: %+v", second)
	}
}

func TestProjecToRPortBinding(t *testing.T) {
	tp := parallel(t, 8, 4)
	m := NewProjecToR(tp, sim.NewRNG(15))
	q := map[int]int64{}
	for d := 1; d < 6; d++ {
		q[d] = 1000
	}
	view := &fakeView{queued: q, hol: map[int]float64{}}
	var reqs []Request
	m.Requests(0, view, 0, 0, func(r Request) { reqs = append(reqs, r) })
	if len(reqs) != 5 {
		t.Fatalf("requests = %d, want 5", len(reqs))
	}
	ports := map[int]int{}
	for _, r := range reqs {
		if r.Port < 0 || r.Port >= 4 {
			t.Fatalf("unbound port in %+v", r)
		}
		ports[r.Port]++
	}
	if len(ports) != 4 {
		t.Errorf("ports used = %v, want all 4 (round-robin spread)", ports)
	}
}

func TestProjecToRGrantsByDelay(t *testing.T) {
	tp := parallel(t, 8, 2)
	m := NewProjecToR(tp, sim.NewRNG(16))
	reqs := []Request{
		{Src: 1, Dst: 0, Port: 0, Delay: 5},
		{Src: 2, Dst: 0, Port: 0, Delay: 50},
		{Src: 3, Dst: 0, Port: 1, Delay: 1},
	}
	gs := collectGrants(m, 0, reqs)
	if len(gs) != 2 {
		t.Fatalf("grants = %+v, want 2", gs)
	}
	for _, g := range gs {
		switch g.Port {
		case 0:
			if g.Src != 2 {
				t.Errorf("port 0 granted to %d, want 2 (max delay)", g.Src)
			}
		case 1:
			if g.Src != 3 {
				t.Errorf("port 1 granted to %d, want 3", g.Src)
			}
		}
	}
}

func TestProjecToRThinClosUsesPathPort(t *testing.T) {
	tc := thinclos(t, 16, 4, 4)
	m := NewProjecToR(tc, sim.NewRNG(17))
	q := map[int]int64{9: 1000}
	view := &fakeView{queued: q, hol: map[int]float64{}}
	var reqs []Request
	m.Requests(0, view, 0, 0, func(r Request) { reqs = append(reqs, r) })
	if len(reqs) != 1 {
		t.Fatalf("requests = %+v", reqs)
	}
	if want := tc.PathPort(0, 9); reqs[0].Port != want {
		t.Errorf("thin-clos ProjecToR bound port %d, want path port %d", reqs[0].Port, want)
	}
}

func TestIterativeImprovesMatching(t *testing.T) {
	// With saturated demand, more iterations must not match fewer ports,
	// and usually match strictly more.
	top := parallel(t, 32, 4)
	view := fullBacklogView(32)
	countMatched := func(iters int) int {
		m := NewClassic(top, sim.NewRNG(18), iters, RRM)
		var reqs []Request
		for src := 0; src < 32; src++ {
			m.Requests(src, view, 0, 0, func(r Request) { reqs = append(reqs, r) })
		}
		matches := make([][]int32, 32)
		for i := range matches {
			matches[i] = make([]int32, 4)
		}
		var stats BatchStats
		denseMatch(m, reqs, matches, &stats)
		total := 0
		for _, row := range matches {
			for _, d := range row {
				if d >= 0 {
					total++
				}
			}
		}
		if int64(total) != stats.Accepts {
			t.Fatalf("stats.Accepts=%d but matched=%d", stats.Accepts, total)
		}
		return total
	}
	m1, m3, m5 := countMatched(1), countMatched(3), countMatched(5)
	if m3 < m1 || m5 < m3 {
		t.Errorf("iteration must not reduce matching: %d/%d/%d", m1, m3, m5)
	}
	if m5 <= m1 {
		t.Errorf("5 iterations should beat 1 under saturation: %d vs %d", m5, m1)
	}
	if m5 > 32*4 {
		t.Errorf("matched %d > port count", m5)
	}
}

func TestIterativeConflictFreedom(t *testing.T) {
	top := thinclos(t, 16, 4, 4)
	m := NewClassic(top, sim.NewRNG(19), 3, RRM)
	view := fullBacklogView(16)
	var reqs []Request
	for src := 0; src < 16; src++ {
		m.Requests(src, view, 0, 0, func(r Request) { reqs = append(reqs, r) })
	}
	matches := make([][]int32, 16)
	for i := range matches {
		matches[i] = make([]int32, 4)
	}
	denseMatch(m, reqs, matches, nil)
	rx := map[[2]int32]bool{}
	for src := range matches {
		for port, dst := range matches[src] {
			if dst < 0 {
				continue
			}
			if !top.CanReach(src, port, int(dst)) {
				t.Fatalf("unreachable match %d-(%d)->%d", src, port, dst)
			}
			key := [2]int32{dst, int32(port)}
			if rx[key] {
				t.Fatalf("dst %d port %d matched twice", dst, port)
			}
			rx[key] = true
		}
	}
}

func TestMatchDelays(t *testing.T) {
	tp := parallel(t, 8, 2)
	if d := NewNegotiator(tp, sim.NewRNG(1)).MatchDelay(); d != 2 {
		t.Errorf("base delay = %d, want 2", d)
	}
	if d := NewClassic(tp, sim.NewRNG(1), 1, RRM).MatchDelay(); d != 2 {
		t.Errorf("iter-1 delay = %d, want 2", d)
	}
	if d := NewClassic(tp, sim.NewRNG(1), 3, RRM).MatchDelay(); d != 8 {
		t.Errorf("iter-3 delay = %d, want 8", d)
	}
	if d := NewClassic(tp, sim.NewRNG(1), 5, RRM).MatchDelay(); d != 14 {
		t.Errorf("iter-5 delay = %d, want 14", d)
	}
}

func TestNames(t *testing.T) {
	tp := parallel(t, 8, 2)
	rng := sim.NewRNG(1)
	for _, tc := range []struct {
		m    Matcher
		want string
	}{
		{NewNegotiator(tp, rng), "negotiator"},
		{NewDataSize(tp, rng), "data-size"},
		{NewHoLDelay(tp, rng), "hol-delay"},
		{NewStateful(tp, rng, 1000), "stateful"},
		{NewProjecToR(tp, rng), "projector"},
	} {
		if got := tc.m.Name(); got != tc.want {
			t.Errorf("Name = %q, want %q", got, tc.want)
		}
	}
}

// TestMatchLegalityProperty: for arbitrary random demand patterns, the
// full request->grant->accept pipeline must emit grants only to requesters
// (one per destination port) and accepts only against received grants (one
// per source port), on both topologies.
func TestMatchLegalityProperty(t *testing.T) {
	f := func(seed int64, thin bool, rounds uint8) bool {
		var top topo.Topology
		if thin {
			top, _ = topo.NewThinClos(16, 4, 4)
		} else {
			top, _ = topo.NewParallel(16, 4)
		}
		rng := sim.NewRNG(seed)
		m := NewNegotiator(top, rng)
		for round := 0; round < int(rounds%8)+1; round++ {
			// Random demand.
			reqsByDst := make([][]Request, 16)
			requested := map[[2]int]bool{}
			for src := 0; src < 16; src++ {
				for dst := 0; dst < 16; dst++ {
					if dst != src && rng.Intn(3) == 0 {
						reqsByDst[dst] = append(reqsByDst[dst], Request{Src: src, Dst: dst, Port: -1})
						requested[[2]int{src, dst}] = true
					}
				}
			}
			grantsBySrc := make([][]Grant, 16)
			for dst := 0; dst < 16; dst++ {
				ports := map[int]bool{}
				ok := true
				m.Grants(dst, reqsByDst[dst], func(g Grant) {
					if !requested[[2]int{g.Src, dst}] {
						ok = false // grant to a non-requester
					}
					if ports[g.Port] {
						ok = false // destination port granted twice
					}
					ports[g.Port] = true
					grantsBySrc[g.Src] = append(grantsBySrc[g.Src], g)
				})
				if !ok {
					return false
				}
			}
			matches := make([]int32, 4)
			for src := 0; src < 16; src++ {
				granted := map[[2]int32]bool{}
				for _, g := range grantsBySrc[src] {
					granted[[2]int32{int32(g.Dst), int32(g.Port)}] = true
				}
				m.Accepts(src, viewWith(nil), grantsBySrc[src], matches, nil)
				for port, dst := range matches {
					if dst >= 0 && !granted[[2]int32{dst, int32(port)}] {
						return false // accept without grant
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// BenchmarkFullMatchStep measures one whole-fabric scheduling round at
// paper scale (128 ToRs x 8 ports, saturated).
func BenchmarkFullMatchStep(b *testing.B) {
	top, err := topo.NewParallel(128, 8)
	if err != nil {
		b.Fatal(err)
	}
	m := NewNegotiator(top, sim.NewRNG(1))
	view := fullBacklogView(128)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runFullMatch(m, top, view)
	}
}

// BenchmarkIterative3MatchStep is the batch path at paper scale: the
// paper's iterative variant, Classic{RRM} with 3 iterations.
func BenchmarkIterative3MatchStep(b *testing.B) {
	top, err := topo.NewParallel(128, 8)
	if err != nil {
		b.Fatal(err)
	}
	m := NewClassic(top, sim.NewRNG(1), 3, RRM)
	view := fullBacklogView(128)
	var reqs []Request
	for src := 0; src < 128; src++ {
		m.Requests(src, view, 0, 0, func(r Request) { reqs = append(reqs, r) })
	}
	matches := make([][]int32, 128)
	for i := range matches {
		matches[i] = make([]int32, 8)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		denseMatch(m, reqs, matches, nil)
	}
}
