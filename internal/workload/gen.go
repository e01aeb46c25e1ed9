package workload

import (
	"container/heap"
	"fmt"
	"math"

	"negotiator/internal/sim"
)

// Arrival is one flow arrival produced by a Generator. Tag groups flows
// belonging to the same application event: 0 marks background traffic and
// positive values identify incast events (used for incast finish time).
//
// Count > 1 makes the arrival a FLOW GROUP: one record standing for Count
// identical host flows of Size bytes each (0 and 1 both mean a single
// flow). The fabric injects one flows.Flow carrying the count; per-member
// FCTs are emitted at delivered-byte boundary crossings, so the metric
// stream matches Count separate arrivals wherever delivery is FIFO.
type Arrival struct {
	Time  sim.Time
	Src   int
	Dst   int
	Size  int64
	Tag   int
	Count int32
}

// Members reports how many host flows the arrival stands for (≥ 1).
func (a Arrival) Members() int64 {
	if a.Count > 1 {
		return int64(a.Count)
	}
	return 1
}

// Generator yields flow arrivals in non-decreasing time order. A generator
// may be infinite; engines stop pulling at their horizon.
type Generator interface {
	// Next returns the next arrival. ok is false when the generator is
	// exhausted.
	Next() (a Arrival, ok bool)
}

// Grouped is the flow-group adapter: every arrival of the wrapped
// generator comes out with its member count multiplied by k, so a
// single-flow arrival stands for k identical host flows behind one record.
// Nothing else changes: one record out per record in, with the same time,
// endpoints, size and tag, so k == 1 passes the stream through untouched.
type Grouped struct {
	g Generator
	k int64
}

// NewGroupBy wraps g with the flow-group factor k, which must lie in
// [1, MaxInt32]. Wrapping a *Grouped folds the two factors into one adapter
// over the inner generator (nested groups multiply). k times the largest
// group the inner generator can emit (see groupFactor) must not exceed
// MaxInt32.
func NewGroupBy(g Generator, k int) (*Grouped, error) {
	if k < 1 || k > math.MaxInt32 {
		return nil, fmt.Errorf("workload: flow-group factor %d outside [1, %d]", k, math.MaxInt32)
	}
	if inner := groupFactor(g); int64(k)*inner > math.MaxInt32 {
		return nil, fmt.Errorf("workload: nested flow-group factors %d x %d exceed %d", inner, k, math.MaxInt32)
	}
	f := int64(k)
	if in, ok := g.(*Grouped); ok {
		f *= in.k
		g = in.g
	}
	return &Grouped{g: g, k: f}, nil
}

// groupFactor returns the largest member count g can put on one arrival,
// as far as this package can tell: a Grouped's factor times its source's,
// the largest among a Merge's sources, 1 for any other generator.
func groupFactor(g Generator) int64 {
	switch v := g.(type) {
	case *Grouped:
		return v.k * groupFactor(v.g)
	case *Merge:
		f := int64(1)
		for _, src := range v.srcs {
			f = max(f, groupFactor(src))
		}
		return f
	}
	return 1
}

// Next implements Generator. It panics when an arrival's member count
// times k exceeds MaxInt32. NewGroupBy bounds k by every group this
// package's generators can emit, so only a caller's own generator that
// emits groups (Count > 1) can get there.
func (g *Grouped) Next() (Arrival, bool) {
	a, ok := g.g.Next()
	if !ok {
		return Arrival{}, false
	}
	if cnt := a.Members() * g.k; cnt > 1 {
		if cnt > math.MaxInt32 {
			panic(fmt.Sprintf("workload: flow group of %d members overflows the count", cnt))
		}
		a.Count = int32(cnt)
	}
	return a, true
}

// Load computes the paper's network load for a mean flow size F (bytes),
// per-ToR host bandwidth R, N ToRs and mean inter-arrival τ:
// L = F / (R·N·τ).
func Load(meanFlowBytes float64, hostRate sim.Rate, n int, interArrival sim.Duration) float64 {
	denom := hostRate.BytesPerSecond() * float64(n) * interArrival.Seconds()
	if denom == 0 {
		return 0
	}
	return meanFlowBytes / denom
}

// InterArrivalFor inverts the load equation: the mean flow inter-arrival
// time τ that produces the requested load, rounded to the nearest
// nanosecond. At paper scale τ is a few tens of nanoseconds, so treat the
// result as informational; the Poisson generator keeps sub-nanosecond
// precision internally.
func InterArrivalFor(load float64, dist SizeDist, hostRate sim.Rate, n int) sim.Duration {
	if load <= 0 {
		return 1 << 60
	}
	tau := dist.Mean() / (hostRate.BytesPerSecond() * float64(n) * load)
	d := sim.Duration(tau*float64(sim.Second) + 0.5)
	if d < 1 {
		d = 1
	}
	return d
}

// maxTimeNs is 2^63 ns: the first float clock value sim.Time cannot hold.
const maxTimeNs = float64(1 << 63)

// arrivalClock is the Poisson arrival process Poisson, Hotspot and Diurnal
// share: the load equation L = F/(R·N·τ) (§4.1) sets the mean gap (10^18 ns
// at a load of zero or less, infinite below two ToRs), and step draws
// exponential gaps from the generator's RNG. Time accumulates in float64
// nanoseconds: at paper scale the mean gap is a few tens of nanoseconds,
// where integer truncation would bias the offered load by several percent.
// A clock outside [0, 2^63) ns ends the stream instead of converting to a
// wrapped, negative time.
type arrivalClock struct {
	dist   SizeDist
	n      int
	rng    *sim.RNG
	meanNs float64
	t      float64
}

func newArrivalClock(dist SizeDist, n int, load float64, hostRate sim.Rate, seed int64) arrivalClock {
	c := arrivalClock{dist: dist, n: n, rng: sim.NewRNG(seed), meanNs: 1e18}
	switch {
	case n < 2:
		// No pair of distinct ToRs: an infinite gap ends the stream
		// before its first arrival (at n = 0 the load equation already
		// gives one).
		c.meanNs = math.Inf(1)
	case load > 0:
		tauSec := dist.Mean() / (hostRate.BytesPerSecond() * float64(n) * load)
		c.meanNs = tauSec * 1e9
	}
	return c
}

// step adds one exponential gap.
func (c *arrivalClock) step() {
	u := c.rng.Float64()
	for u == 0 {
		u = c.rng.Float64()
	}
	c.t += -math.Log(u) * c.meanNs
}

// now reports the clock as a sim.Time; ok is false once it has left the
// range sim.Time can hold.
func (c *arrivalClock) now() (t sim.Time, ok bool) {
	if !(c.t >= 0 && c.t < maxTimeNs) {
		return 0, false
	}
	return sim.Time(c.t), true
}

// otherThan draws uniformly from [0, n) without x.
func otherThan(rng *sim.RNG, n, x int) int {
	d := rng.Intn(n - 1)
	if d >= x {
		d++
	}
	return d
}

// Poisson generates background traffic: flows arrive as a Poisson process
// with sources and destinations chosen uniformly at random (distinct), and
// sizes drawn from dist — the paper's workload model (§4.1).
type Poisson struct{ arrivalClock }

// NewPoisson returns a Poisson generator for n ToRs at the given load.
func NewPoisson(dist SizeDist, n int, load float64, hostRate sim.Rate, seed int64) *Poisson {
	g := &Poisson{newArrivalClock(dist, n, load, hostRate, seed)}
	g.step()
	return g
}

// Next implements Generator. The process ends only when its clock passes
// the int64 range (load 0 gets there in a few draws).
func (g *Poisson) Next() (Arrival, bool) {
	t, ok := g.now()
	if !ok {
		return Arrival{}, false
	}
	src := g.rng.Intn(g.n)
	dst := otherThan(g.rng, g.n, src)
	a := Arrival{Time: t, Src: src, Dst: dst, Size: g.dist.Sample(g.rng)}
	g.step()
	return a, true
}

// Incast generates one incast event: degree distinct sources each send one
// flow of size bytes to dst simultaneously at t (paper §4.2, Figure 7a).
type Incast struct {
	arrivals []Arrival
	pos      int
}

// NewIncast builds the event. Sources are chosen deterministically from
// seed among all ToRs except dst; degree must lie in [1, n-1].
func NewIncast(n, dst, degree int, size int64, t sim.Time, tag int, seed int64) (*Incast, error) {
	if degree < 1 {
		return nil, fmt.Errorf("workload: incast degree %d is below 1", degree)
	}
	if degree > n-1 {
		return nil, fmt.Errorf("workload: incast degree %d exceeds n-1=%d", degree, n-1)
	}
	rng := sim.NewRNG(seed)
	perm := make([]int, n)
	rng.Perm(perm)
	ev := &Incast{}
	for _, src := range perm {
		if src == dst {
			continue
		}
		ev.arrivals = append(ev.arrivals, Arrival{Time: t, Src: src, Dst: dst, Size: size, Tag: tag})
		if len(ev.arrivals) == degree {
			break
		}
	}
	return ev, nil
}

func (g *Incast) Next() (Arrival, bool) {
	if g.pos >= len(g.arrivals) {
		return Arrival{}, false
	}
	a := g.arrivals[g.pos]
	g.pos++
	return a, true
}

// AllToAll generates the synchronous all-to-all workload: at time t each
// ToR sends one flow of size bytes to every other ToR (paper §4.2,
// Figure 7b).
type AllToAll struct {
	n    int
	size int64
	t    sim.Time
	i, j int
}

// NewAllToAll returns the generator for n ToRs.
func NewAllToAll(n int, size int64, t sim.Time) *AllToAll {
	return &AllToAll{n: n, size: size, t: t}
}

func (g *AllToAll) Next() (Arrival, bool) {
	if g.j == g.i {
		g.j++
	}
	if g.j >= g.n {
		g.i++
		g.j = 0
		if g.j == g.i {
			g.j++
		}
	}
	if g.i >= g.n {
		return Arrival{}, false
	}
	a := Arrival{Time: g.t, Src: g.i, Dst: g.j, Size: g.size}
	g.j++
	return a, true
}

// SinglePair generates one very large flow between a fixed pair, modelling
// the continuously-transmitting pair of the failure micro-observation
// (paper Appendix A.4, Figure 19).
type SinglePair struct {
	done bool
	a    Arrival
}

// NewSinglePair returns the generator.
func NewSinglePair(src, dst int, size int64, t sim.Time) *SinglePair {
	return &SinglePair{a: Arrival{Time: t, Src: src, Dst: dst, Size: size}}
}

func (g *SinglePair) Next() (Arrival, bool) {
	if g.done {
		return Arrival{}, false
	}
	g.done = true
	return g.a, true
}

// IncastMix generates Poisson-arriving incast events: each event has the
// given degree and per-flow size, and events arrive so that incast traffic
// consumes bwFraction of the aggregate host downlink bandwidth (paper §4.4,
// Figure 13a: degree 20, 1 KB flows, 2%). Event times accumulate in whole
// nanoseconds. A mean gap or an event time that sim.Time cannot hold (a
// bwFraction of zero or less, or one so small that the gaps pass the int64
// range) ends the stream, and so does an event that would carry no bytes
// (a degree or a size below 1).
type IncastMix struct {
	n        int
	degree   int
	size     int64
	mean     sim.Duration
	rng      *sim.RNG
	nextTime sim.Time
	done     bool // no event at nextTime or after
	tag      int
	pending  []Arrival
	pos      int
}

// NewIncastMix returns the generator. Tags start at firstTag and increment
// per event.
func NewIncastMix(n, degree int, size int64, bwFraction float64, hostRate sim.Rate, firstTag int, seed int64) *IncastMix {
	g := &IncastMix{n: n, degree: degree, size: size, rng: sim.NewRNG(seed), tag: firstTag}
	eventBytes := float64(degree) * float64(size)
	rate := bwFraction * hostRate.BytesPerSecond() * float64(n) / eventBytes // events/s
	meanNs := float64(sim.Second) / rate
	if degree < 1 || size < 1 || !(rate > 0 && meanNs < maxTimeNs) {
		g.done = true
		return g
	}
	g.mean = sim.Duration(meanNs)
	if g.mean < 1 {
		g.mean = 1
	}
	g.advance()
	return g
}

// advance draws the gap to the next event, ending the stream when the gap
// or the event time passes the int64 range.
func (g *IncastMix) advance() {
	gap, ok := g.rng.ExpDuration(g.mean)
	if !ok || gap > math.MaxInt64-sim.Duration(g.nextTime) {
		g.done = true
		return
	}
	g.nextTime = g.nextTime.Add(gap)
}

func (g *IncastMix) Next() (Arrival, bool) {
	if g.pos >= len(g.pending) {
		if g.done {
			return Arrival{}, false
		}
		// Synthesise the next event.
		dst := g.rng.Intn(g.n)
		ev, err := NewIncast(g.n, dst, g.degree, g.size, g.nextTime, g.tag, int64(g.rng.Uint64()))
		if err != nil {
			return Arrival{}, false
		}
		g.pending = ev.arrivals
		g.pos = 0
		g.tag++
		g.advance()
	}
	a := g.pending[g.pos]
	g.pos++
	return a, true
}

// Merge combines generators into one stream ordered by arrival time.
type Merge struct {
	h    mergeHeap
	srcs []Generator // every source, exhausted or not (see groupFactor)
}

type mergeEntry struct {
	a   Arrival
	gen Generator
}

type mergeHeap []mergeEntry

func (h mergeHeap) Len() int            { return len(h) }
func (h mergeHeap) Less(i, j int) bool  { return h[i].a.Time < h[j].a.Time }
func (h mergeHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *mergeHeap) Push(x interface{}) { *h = append(*h, x.(mergeEntry)) }
func (h *mergeHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// NewMerge merges the given generators.
func NewMerge(gens ...Generator) *Merge {
	m := &Merge{srcs: gens}
	for _, g := range gens {
		if a, ok := g.Next(); ok {
			m.h = append(m.h, mergeEntry{a, g})
		}
	}
	heap.Init(&m.h)
	return m
}

func (m *Merge) Next() (Arrival, bool) {
	if m.h.Len() == 0 {
		return Arrival{}, false
	}
	top := m.h[0]
	if a, ok := top.gen.Next(); ok {
		m.h[0] = mergeEntry{a, top.gen}
		heap.Fix(&m.h, 0)
	} else {
		heap.Pop(&m.h)
	}
	return top.a, true
}
