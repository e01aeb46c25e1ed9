package workload

import (
	"fmt"

	"negotiator/internal/sim"
)

// Permutation generates the saturated-but-sparse traffic matrix the
// sparse-scale benchmarks use (promoted from the PR-4 inline bench
// generators): the first `active` ToRs each send one size-byte flow to
// their cyclic successor within the active set at time t, and the other
// n-active ToRs stay idle. With active == n this is the classic full
// permutation (one active destination per source); with active << n it is
// the regime where fabric memory and per-round cost must follow occupancy,
// not topology size.
type Permutation struct {
	n, active, i int
	size         int64
	t            sim.Time
}

// NewPermutation returns the generator. active == 0 means all n ToRs;
// size must be at least 1 byte.
func NewPermutation(n, active int, size int64, t sim.Time) (*Permutation, error) {
	if active == 0 {
		active = n
	}
	if active < 2 || active > n {
		return nil, fmt.Errorf("workload: permutation needs 2 <= active <= n, got active=%d n=%d", active, n)
	}
	if size < 1 {
		return nil, fmt.Errorf("workload: permutation flow size %d is below 1 byte", size)
	}
	return &Permutation{n: n, active: active, size: size, t: t}, nil
}

// Next implements Generator.
func (g *Permutation) Next() (Arrival, bool) {
	if g.i >= g.active {
		return Arrival{}, false
	}
	a := Arrival{Time: g.t, Src: g.i, Dst: (g.i + 1) % g.active, Size: g.size}
	g.i++
	return a, true
}

// Hotspot generates skewed background traffic: the same Poisson arrival
// process and flow-size distribution as Poisson, but a fraction hotFrac
// of flows target one of the first hotTors destinations (the "hot set"),
// modelling the popularity skew real datacenter services exhibit. The
// remaining flows choose uniformly among all ToRs. Sources stay uniform,
// so the offered network load is the same L = F/(R·N·τ) as the uniform
// workload — only the destination matrix tilts.
type Hotspot struct {
	arrivalClock
	hotTors int
	hotFrac float64
}

// NewHotspot returns a skewed Poisson generator. hotTors must be in
// [1, n-1]; hotFrac in [0, 1] (0 degenerates to the uniform workload).
func NewHotspot(dist SizeDist, n int, load float64, hostRate sim.Rate, hotTors int, hotFrac float64, seed int64) (*Hotspot, error) {
	if hotTors < 1 || hotTors >= n {
		return nil, fmt.Errorf("workload: hotspot needs 1 <= hotTors < n, got %d (n=%d)", hotTors, n)
	}
	if hotFrac < 0 || hotFrac > 1 {
		return nil, fmt.Errorf("workload: hotFrac %v outside [0, 1]", hotFrac)
	}
	g := &Hotspot{newArrivalClock(dist, n, load, hostRate, seed), hotTors, hotFrac}
	g.step()
	return g, nil
}

// Next implements Generator. Like Poisson's, the process ends only when
// its clock passes the int64 range.
func (g *Hotspot) Next() (Arrival, bool) {
	t, ok := g.now()
	if !ok {
		return Arrival{}, false
	}
	src := g.rng.Intn(g.n)
	var dst int
	// A hot pick that cannot avoid src (single-ToR hot set containing
	// src) falls through to the uniform draw, keeping dst != src without
	// rejection sampling.
	if g.rng.Float64() < g.hotFrac && !(g.hotTors == 1 && src == 0) {
		if src < g.hotTors {
			dst = otherThan(g.rng, g.hotTors, src)
		} else {
			dst = g.rng.Intn(g.hotTors)
		}
	} else {
		dst = otherThan(g.rng, g.n, src)
	}
	a := Arrival{Time: t, Src: src, Dst: dst, Size: g.dist.Sample(g.rng)}
	g.step()
	return a, true
}
