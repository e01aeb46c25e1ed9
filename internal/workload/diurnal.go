package workload

import (
	"fmt"
	"math"

	"negotiator/internal/sim"
)

// Diurnal generates background traffic whose offered load follows a
// day/night cycle: the same uniform endpoints and trace-driven sizes as
// Poisson, but the arrival process is an inhomogeneous Poisson process
// whose rate swings sinusoidally between floor·peak and peak over each
// period, starting at the trough. Datacenter fabrics spend most of a real
// day far below peak; this is the workload shape that makes quiet-time
// simulation cost (and the event-skip run loop that removes it) visible.
//
// Arrivals are drawn by thinning against the peak rate: candidate events
// come from a homogeneous Poisson process at the peak rate and survive
// with probability equal to the instantaneous rate fraction. The sequence
// is a deterministic function of the seed, independent of how the
// simulator consumes it.
type Diurnal struct {
	arrivalClock         // candidate arrivals at the PEAK rate
	period       float64 // cycle length in ns
	floor        float64 // trough rate as a fraction of peak
}

// NewDiurnal returns a diurnal generator: peakLoad is the network load
// (L = F/(R·N·τ), §4.1) at the top of the cycle, period the cycle length,
// floor the trough-to-peak load ratio in [0, 1).
func NewDiurnal(dist SizeDist, n int, peakLoad float64, hostRate sim.Rate, period sim.Duration, floor float64, seed int64) (*Diurnal, error) {
	if period <= 0 {
		return nil, fmt.Errorf("workload: diurnal period must be positive, got %v", period)
	}
	if floor < 0 || floor >= 1 {
		return nil, fmt.Errorf("workload: diurnal floor %v outside [0, 1)", floor)
	}
	g := &Diurnal{newArrivalClock(dist, n, peakLoad, hostRate, seed), float64(period), floor}
	g.advance()
	return g, nil
}

// rate is the instantaneous rate as a fraction of peak: floor at t = 0
// (and every whole period), 1 at each half period.
func (g *Diurnal) rate(tNs float64) float64 {
	return g.floor + (1-g.floor)*(0.5-0.5*math.Cos(2*math.Pi*tNs/g.period))
}

// advance moves the clock to the next accepted arrival: exponential
// candidate gaps at the peak rate, thinned by the rate fraction at the
// candidate time. A clock past the int64 range stops the search; Next then
// ends the stream.
func (g *Diurnal) advance() {
	for {
		g.step()
		if _, ok := g.now(); !ok || g.rng.Float64() < g.rate(g.t) {
			return
		}
	}
}

// Next implements Generator. Like Poisson's, the process ends only when
// its clock passes the int64 range.
func (g *Diurnal) Next() (Arrival, bool) {
	t, ok := g.now()
	if !ok {
		return Arrival{}, false
	}
	src := g.rng.Intn(g.n)
	dst := otherThan(g.rng, g.n, src)
	a := Arrival{Time: t, Src: src, Dst: dst, Size: g.dist.Sample(g.rng)}
	g.advance()
	return a, true
}
