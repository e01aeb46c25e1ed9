package topo

import (
	"testing"
	"testing/quick"
)

func mustParallel(t *testing.T, n, s int) *Parallel {
	t.Helper()
	p, err := NewParallel(n, s)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func mustThinClos(t *testing.T, n, s, w int) *ThinClos {
	t.Helper()
	tc, err := NewThinClos(n, s, w)
	if err != nil {
		t.Fatal(err)
	}
	return tc
}

func TestConstructorValidation(t *testing.T) {
	if _, err := NewParallel(1, 4); err == nil {
		t.Error("NewParallel(1,4) should fail")
	}
	if _, err := NewParallel(8, 0); err == nil {
		t.Error("NewParallel(8,0) should fail")
	}
	if _, err := NewThinClos(128, 8, 15); err == nil {
		t.Error("NewThinClos with n != s*w should fail")
	}
	if _, err := NewThinClos(0, 0, 0); err == nil {
		t.Error("NewThinClos(0,0,0) should fail")
	}
}

func TestPaperScaleDimensions(t *testing.T) {
	p := mustParallel(t, 128, 8)
	if got := p.PredefinedSlots(); got != 16 {
		t.Errorf("parallel predefined slots = %d, want 16 (paper §4.1)", got)
	}
	if c, ports := p.AWGRs(); c != 8 || ports != 128 {
		t.Errorf("parallel AWGRs = %d x %d-port, want 8 x 128-port", c, ports)
	}

	tc := mustThinClos(t, 128, 8, 16)
	if got := tc.PredefinedSlots(); got != 16 {
		t.Errorf("thin-clos predefined slots = %d, want 16 (paper §4.1)", got)
	}
	if c, ports := tc.AWGRs(); c != 64 || ports != 16 {
		t.Errorf("thin-clos AWGRs = %d x %d-port, want 64 x 16-port", c, ports)
	}
}

func TestParallelReachability(t *testing.T) {
	p := mustParallel(t, 16, 4)
	for s := 0; s < 4; s++ {
		if p.CanReach(3, s, 3) {
			t.Errorf("self-reach allowed on port %d", s)
		}
		if !p.CanReach(3, s, 7) {
			t.Errorf("parallel should reach any dst on any port (port %d)", s)
		}
	}
	if p.CanReach(3, 4, 7) {
		t.Error("out-of-range port accepted")
	}
	if p.PathPort(3, 7) != -1 {
		t.Error("parallel PathPort should be -1 (any)")
	}
	if p.PathPort(3, 3) != -2 {
		t.Error("PathPort(self) should be -2")
	}
}

func TestThinClosSinglePath(t *testing.T) {
	tc := mustThinClos(t, 16, 4, 4)
	for src := 0; src < 16; src++ {
		for dst := 0; dst < 16; dst++ {
			if src == dst {
				if tc.PathPort(src, dst) != -2 {
					t.Errorf("PathPort(%d,%d) should be -2", src, dst)
				}
				continue
			}
			// Exactly one port reaches dst.
			count := 0
			path := -1
			for s := 0; s < 4; s++ {
				if tc.CanReach(src, s, dst) {
					count++
					path = s
				}
			}
			if count != 1 {
				t.Fatalf("thin-clos src=%d dst=%d reachable via %d ports, want exactly 1", src, dst, count)
			}
			if got := tc.PathPort(src, dst); got != path {
				t.Errorf("PathPort(%d,%d) = %d, but CanReach says %d", src, dst, got, path)
			}
			// Identical port index on both ends: the reverse path uses
			// the same port (paper §3.6.1).
			if rev := tc.PathPort(dst, src); rev != path {
				t.Errorf("reverse path port %d != forward %d for (%d,%d)", rev, path, src, dst)
			}
		}
	}
}

func TestThinClosPortPartition(t *testing.T) {
	// The S port-reachable sets of a source partition all other ToRs.
	tc := mustThinClos(t, 128, 8, 16)
	for src := 0; src < 128; src += 13 {
		seen := make(map[int]int)
		for s := 0; s < 8; s++ {
			for dst := 0; dst < 128; dst++ {
				if tc.CanReach(src, s, dst) {
					seen[dst]++
				}
			}
		}
		for dst := 0; dst < 128; dst++ {
			want := 1
			if dst == src {
				want = 0
			}
			if seen[dst] != want {
				t.Fatalf("src %d reaches dst %d via %d ports, want %d", src, dst, seen[dst], want)
			}
		}
	}
}

func TestThinClosPortDomain(t *testing.T) {
	tc := mustThinClos(t, 128, 8, 16)
	for dst := 0; dst < 128; dst += 11 {
		for s := 0; s < 8; s++ {
			dom := tc.PortDomain(dst, s)
			if len(dom) != 16 {
				t.Fatalf("PortDomain(%d,%d) size %d, want 16", dst, s, len(dom))
			}
			for _, src := range dom {
				if src != dst && !tc.CanReach(src, s, dst) {
					t.Fatalf("PortDomain(%d,%d) contains %d which cannot reach", dst, s, src)
				}
			}
		}
	}
}

// checkPredefinedPhase asserts the two core invariants of a predefined
// phase under rotation r: (1) conflict-freedom: per slot, each destination
// port hears from at most one source; (2) coverage: every ordered pair
// meets exactly once.
func checkPredefinedPhase(t *testing.T, topo Topology, r int) {
	t.Helper()
	n, S, slots := topo.N(), topo.Ports(), topo.PredefinedSlots()
	pairs := make(map[[2]int]int)
	for tt := 0; tt < slots; tt++ {
		// rx[dst][port] = src
		rx := make(map[[2]int]int)
		for i := 0; i < n; i++ {
			for s := 0; s < S; s++ {
				j := topo.PredefinedPeer(i, s, tt, r)
				if j == -1 {
					continue
				}
				if j == i {
					t.Fatalf("self connection surfaced: i=%d s=%d t=%d", i, s, tt)
				}
				if !topo.CanReach(i, s, j) {
					t.Fatalf("predefined peer unreachable: %d -(port %d)-> %d", i, s, j)
				}
				key := [2]int{j, s}
				if prev, ok := rx[key]; ok {
					t.Fatalf("collision at dst %d port %d slot %d: sources %d and %d", j, s, tt, prev, i)
				}
				rx[key] = i
				pairs[[2]int{i, j}]++
			}
		}
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			if c := pairs[[2]int{i, j}]; c != 1 {
				t.Fatalf("pair (%d,%d) connected %d times in one phase (rotation %d), want 1", i, j, c, r)
			}
		}
	}
}

func TestParallelPredefinedPhase(t *testing.T) {
	for _, r := range []int{0, 1, 7, 100} {
		checkPredefinedPhase(t, mustParallel(t, 16, 4), r)
	}
	checkPredefinedPhase(t, mustParallel(t, 128, 8), 0)
	checkPredefinedPhase(t, mustParallel(t, 128, 8), 3)
	// N-1 not divisible by S (padding slots).
	checkPredefinedPhase(t, mustParallel(t, 10, 4), 0)
	checkPredefinedPhase(t, mustParallel(t, 10, 4), 5)
	// Degenerate two-ToR network.
	checkPredefinedPhase(t, mustParallel(t, 2, 1), 0)
}

func TestThinClosPredefinedPhase(t *testing.T) {
	checkPredefinedPhase(t, mustThinClos(t, 16, 4, 4), 0)
	checkPredefinedPhase(t, mustThinClos(t, 128, 8, 16), 0)
	checkPredefinedPhase(t, mustThinClos(t, 8, 2, 4), 0)
	// Rotation must not break anything even though it is ignored.
	checkPredefinedPhase(t, mustThinClos(t, 16, 4, 4), 9)
}

func TestParallelRotationCyclesPorts(t *testing.T) {
	// Over S consecutive rotations, the port carrying a given pair's
	// predefined connection takes all S values (§3.6.1 fault resilience).
	p := mustParallel(t, 16, 4)
	i, j := 2, 9
	ports := make(map[int]bool)
	for r := 0; r < 4; r++ {
		found := -1
		for tt := 0; tt < p.PredefinedSlots(); tt++ {
			for s := 0; s < 4; s++ {
				if p.PredefinedPeer(i, s, tt, r) == j {
					found = s
				}
			}
		}
		if found == -1 {
			t.Fatalf("pair (%d,%d) not connected at rotation %d", i, j, r)
		}
		ports[found] = true
	}
	if len(ports) != 4 {
		t.Errorf("rotation covered %d distinct ports, want 4: %v", len(ports), ports)
	}
}

func TestPredefinedPhasePropertyQuick(t *testing.T) {
	// Property test over random valid dimensions.
	f := func(a, b, c uint8) bool {
		s := int(a%6) + 1
		w := int(b%6) + 2
		r := int(c)
		tc, err := NewThinClos(s*w, s, w)
		if err != nil {
			return false
		}
		n := s * w
		pairs := 0
		for tt := 0; tt < tc.PredefinedSlots(); tt++ {
			for i := 0; i < n; i++ {
				for ss := 0; ss < s; ss++ {
					if j := tc.PredefinedPeer(i, ss, tt, r); j >= 0 {
						if !tc.CanReach(i, ss, j) {
							return false
						}
						pairs++
					}
				}
			}
		}
		return pairs == n*(n-1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}

	g := func(a, b, c uint8) bool {
		n := int(a%30) + 2
		s := int(b%5) + 1
		r := int(c)
		p, err := NewParallel(n, s)
		if err != nil {
			return false
		}
		pairs := 0
		for tt := 0; tt < p.PredefinedSlots(); tt++ {
			for i := 0; i < n; i++ {
				for ss := 0; ss < s; ss++ {
					if j := p.PredefinedPeer(i, ss, tt, r); j >= 0 {
						pairs++
					}
				}
			}
		}
		return pairs == n*(n-1)
	}
	if err := quick.Check(g, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestNames(t *testing.T) {
	if mustParallel(t, 4, 2).Name() != "parallel" {
		t.Error("parallel name")
	}
	if mustThinClos(t, 4, 2, 2).Name() != "thin-clos" {
		t.Error("thin-clos name")
	}
}

func TestPredefinedSlotPortInverse(t *testing.T) {
	// PredefinedSlotPort must invert PredefinedPeer for every pair, at
	// small rotations and at the large ones a long run reaches (the
	// negotiator engine passes rotations up to 2^30-1).
	t.Run("parallel-quick", func(t *testing.T) {
		inverse := func(q parallelPoint) bool {
			p, err := NewParallel(q.n, q.s)
			if err != nil {
				t.Fatal(err)
			}
			slot, port := p.PredefinedSlotPort(q.i, q.j, q.r)
			if q.i == q.j {
				return slot == -1 && port == -1
			}
			return slot >= 0 && slot < p.PredefinedSlots() && port >= 0 && port < q.s &&
				p.PredefinedPeer(q.i, port, slot, q.r) == q.j
		}
		if err := quick.Check(inverse, &quick.Config{MaxCount: 20000}); err != nil {
			t.Error(err)
		}
	})
	tops := []Topology{
		mustParallel(t, 16, 4),
		mustParallel(t, 10, 4),
		mustParallel(t, 128, 8),
		mustThinClos(t, 16, 4, 4),
		mustThinClos(t, 128, 8, 16),
	}
	for _, top := range tops {
		for _, r := range []int{0, 1, 5, 13, 123456789, 1<<30 - 2, 1<<30 - 1} {
			n := top.N()
			step := 1
			if n > 32 {
				step = 7
			}
			for i := 0; i < n; i += step {
				for j := 0; j < n; j++ {
					if i == j {
						if s, p := top.PredefinedSlotPort(i, j, r); s != -1 || p != -1 {
							t.Fatalf("%s: self pair should give (-1,-1)", top.Name())
						}
						continue
					}
					slot, port := top.PredefinedSlotPort(i, j, r)
					if slot < 0 || slot >= top.PredefinedSlots() || port < 0 || port >= top.Ports() {
						t.Fatalf("%s: slot/port out of range for (%d,%d,r=%d): (%d,%d)",
							top.Name(), i, j, r, slot, port)
					}
					if got := top.PredefinedPeer(i, port, slot, r); got != j {
						t.Fatalf("%s: inverse broken for (%d,%d,r=%d): slot=%d port=%d gives peer %d",
							top.Name(), i, j, r, slot, port, got)
					}
				}
			}
		}
	}
}
