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
