package topo

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// parallelPoint is one random query of a random parallel schedule: N from
// 2 to 300 and S from 1 to 9 (so padded schedules and N=2 occur), a slot
// within the cycle, and a rotation up to 2^40 — the rotation counts
// elapsed cycles and grows without bound over a run.
type parallelPoint struct{ n, s, i, j, port, t, r int }

func (parallelPoint) Generate(rng *rand.Rand, _ int) reflect.Value {
	n, s := 2+rng.Intn(299), 1+rng.Intn(9)
	return reflect.ValueOf(parallelPoint{
		n: n, s: s,
		i: rng.Intn(n), j: rng.Intn(n),
		port: rng.Intn(s), t: rng.Intn((n - 2 + s) / s),
		r: int(rng.Int63n(1<<40 + 1)),
	})
}

// TestPredefinedSourceInverse pins the inverse contract the oblivious
// plane's destination-inverted drain walk relies on: for every (s, t, r),
// PredefinedPeer(·, s, t, r) is a partial permutation and PredefinedSource
// is its exact inverse — PredefinedSource(j, s, t, r) == i if and only if
// PredefinedPeer(i, s, t, r) == j, with -1 exactly where no source exists.
// The quick case pins the parallel schedule to its closed form over random
// dimensions (padding and N=2 included) and rotations far past one run's
// worth of cycles.
func TestPredefinedSourceInverse(t *testing.T) {
	t.Run("parallel-closed-form", func(t *testing.T) {
		closedForm := func(q parallelPoint) bool {
			p, err := NewParallel(q.n, q.s)
			if err != nil {
				t.Fatal(err)
			}
			n := q.n
			k := (q.t*q.s + q.port + q.r) % (p.PredefinedSlots() * q.s)
			wantPeer, wantSrc := -1, -1
			if k < n-1 {
				wantPeer = (q.i + 1 + k) % n
				wantSrc = ((q.j-1-k)%n + n) % n
			}
			return p.PredefinedPeer(q.i, q.port, q.t, q.r) == wantPeer &&
				p.PredefinedSource(q.j, q.port, q.t, q.r) == wantSrc &&
				(wantPeer < 0 || p.PredefinedSource(wantPeer, q.port, q.t, q.r) == q.i)
		}
		if err := quick.Check(closedForm, &quick.Config{MaxCount: 20000}); err != nil {
			t.Error(err)
		}
	})

	par, err := NewParallel(24, 5)
	if err != nil {
		t.Fatal(err)
	}
	tc, err := NewThinClos(24, 6, 4)
	if err != nil {
		t.Fatal(err)
	}
	for name, top := range map[string]Topology{"parallel": par, "thin-clos": tc} {
		n, s := top.N(), top.Ports()
		for r := 0; r < 3; r++ {
			for tt := 0; tt < top.PredefinedSlots(); tt++ {
				for port := 0; port < s; port++ {
					// src[j] = the unique i with PredefinedPeer(i) == j.
					src := make([]int, n)
					for j := range src {
						src[j] = -1
					}
					for i := 0; i < n; i++ {
						j := top.PredefinedPeer(i, port, tt, r)
						if j < 0 {
							continue
						}
						if src[j] != -1 {
							t.Fatalf("%s: (s=%d t=%d r=%d) peers %d and %d both hit %d",
								name, port, tt, r, src[j], i, j)
						}
						src[j] = i
					}
					for j := 0; j < n; j++ {
						if got := top.PredefinedSource(j, port, tt, r); got != src[j] {
							t.Errorf("%s: PredefinedSource(%d, s=%d, t=%d, r=%d) = %d, want %d",
								name, j, port, tt, r, got, src[j])
						}
					}
				}
			}
		}
	}
}

// thinClosPoint is one random query of a random thin-clos schedule: G
// from 1 to 100 groups (ports) of W from 1 to 20 ToRs, so more than 64
// ports occur, and a slot past one cycle.
type thinClosPoint struct{ s, w, i, j, port, t, r int }

func (thinClosPoint) Generate(rng *rand.Rand, _ int) reflect.Value {
	s, w := 1+rng.Intn(100), 1+rng.Intn(20)
	if s*w < 2 {
		s = 2
	}
	n := s * w
	return reflect.ValueOf(thinClosPoint{
		s: s, w: w,
		i: rng.Intn(n), j: rng.Intn(n),
		port: rng.Intn(s), t: rng.Intn(3 * w), r: rng.Intn(1 << 20),
	})
}

// resolved is the Schedule form of a per-connection reference answer:
// the ToR itself where the reference reports no connection.
func resolved(x, ref int) int {
	if ref < 0 {
		return x
	}
	return ref
}

// TestSlotScheduleMatchesReference pins SlotSchedule to the per-connection
// schedule it replaces in the slot loops: for every ToR x and port s,
// peers.Row(x)[s] is PredefinedPeer(x, s, t, r) and sources.Row(x)[s] is
// PredefinedSource(x, s, t, r), with x itself where those report -1.
// The quick cases draw random dimensions,
// slots and rotations on both topologies (more than 64 ports included)
// and refill one pair of schedules throughout, so storage reuse across
// sizes is covered too; the exhaustive cases sweep every ToR, port and
// slot of padded, multi-word and single-group fabrics.
func TestSlotScheduleMatchesReference(t *testing.T) {
	var peers, sources Schedule
	fwd, back := make([]int, 100), make([]int, 100) // the widest fabric drawn
	agree := func(top Topology, x, port, tt, r int) bool {
		top.SlotSchedule(tt, r, &peers, &sources)
		peers.Row(x, fwd)
		sources.Row(x, back)
		return fwd[port] == resolved(x, top.PredefinedPeer(x, port, tt, r)) &&
			back[port] == resolved(x, top.PredefinedSource(x, port, tt, r))
	}
	t.Run("parallel-quick", func(t *testing.T) {
		f := func(q parallelPoint) bool {
			p, err := NewParallel(q.n, q.s)
			if err != nil {
				t.Fatal(err)
			}
			return agree(p, q.i, q.port, q.t, q.r) && agree(p, q.j, q.port, q.t, q.r)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 20000}); err != nil {
			t.Error(err)
		}
	})
	t.Run("thin-clos-quick", func(t *testing.T) {
		f := func(q thinClosPoint) bool {
			tc, err := NewThinClos(q.s*q.w, q.s, q.w)
			if err != nil {
				t.Fatal(err)
			}
			return agree(tc, q.i, q.port, q.t, q.r) && agree(tc, q.j, q.port, q.t, q.r)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 20000}); err != nil {
			t.Error(err)
		}
	})
	var tops []Topology
	for _, d := range [][2]int{{24, 5}, {150, 70}, {2, 1}, {9, 12}} {
		p, err := NewParallel(d[0], d[1])
		if err != nil {
			t.Fatal(err)
		}
		tops = append(tops, p)
	}
	for _, d := range [][3]int{{24, 6, 4}, {140, 70, 2}, {8, 1, 8}, {128, 8, 16}} {
		tc, err := NewThinClos(d[0], d[1], d[2])
		if err != nil {
			t.Fatal(err)
		}
		tops = append(tops, tc)
	}
	for _, top := range tops {
		for r := 0; r < top.Ports()+2; r++ {
			for tt := 0; tt < top.PredefinedSlots(); tt++ {
				top.SlotSchedule(tt, r, &peers, &sources)
				for x := 0; x < top.N(); x++ {
					peers.Row(x, fwd)
					sources.Row(x, back)
					for port := 0; port < top.Ports(); port++ {
						if got, want := fwd[port], resolved(x, top.PredefinedPeer(x, port, tt, r)); got != want {
							t.Fatalf("%s %dx%d: peer of %d on port %d, slot %d, rotation %d = %d, want %d",
								top.Name(), top.N(), top.Ports(), x, port, tt, r, got, want)
						}
						if got, want := back[port], resolved(x, top.PredefinedSource(x, port, tt, r)); got != want {
							t.Fatalf("%s %dx%d: source of %d on port %d, slot %d, rotation %d = %d, want %d",
								top.Name(), top.N(), top.Ports(), x, port, tt, r, got, want)
						}
					}
				}
			}
		}
	}
}
