// Package workload generates the traffic the paper evaluates on: flow-size
// distributions modelled after published datacenter traces, Poisson arrival
// processes following the paper's load definition L = F/(R·N·τ) (§4.1), and
// the synthetic incast, all-to-all, single-pair and mixed-incast workloads
// of §4.2 and §4.4.
//
// Poisson, Hotspot and Diurnal share one arrival clock, and IncastMix keeps
// an integer one; a stream ends when its clock leaves the int64 range.
// Flow groups have one path, the Grouped adapter (NewGroupBy): no generator
// emits groups itself.
//
// The published traces themselves (Meta Hadoop, DCTCP web search, Google
// aggregated) are not redistributable, so each is reproduced as a piecewise
// log-linear CDF matching every property the paper states about it; see
// DESIGN.md for the substitution rationale.
package workload

import (
	"fmt"
	"math"
	"sort"

	"negotiator/internal/sim"
)

// SizeDist samples flow sizes in bytes.
type SizeDist interface {
	// Sample draws one flow size.
	Sample(r *sim.RNG) int64
	// Mean returns the distribution's expected flow size in bytes.
	Mean() float64
	// Name returns a short identifier.
	Name() string
}

// CDFPoint anchors a piecewise log-linear size CDF: Frac of flows are of
// size <= Size bytes.
type CDFPoint struct {
	Size int64
	Frac float64
}

// CDF is a flow-size distribution interpolated log-linearly between anchor
// points, the standard way DCN papers encode trace size distributions.
type CDF struct {
	name string
	pts  []CDFPoint
	mean float64
}

// NewCDF builds a distribution from anchor points. Points must have sizes
// of at least 1 byte, strictly increasing, and fractions in [0, 1],
// non-decreasing and ending at 1.0. An implicit starting anchor at
// (minSize, 0) is added using the first point's size scaled down if the
// first fraction is positive.
func NewCDF(name string, pts []CDFPoint) (*CDF, error) {
	if len(pts) < 1 {
		return nil, fmt.Errorf("workload: CDF %q needs at least one point", name)
	}
	for i, p := range pts {
		if p.Size < 1 || !(p.Frac >= 0 && p.Frac <= 1) {
			return nil, fmt.Errorf("workload: CDF %q point %d (%d B, fraction %v) needs a size of at least 1 and a fraction in [0, 1]",
				name, i, p.Size, p.Frac)
		}
	}
	sorted := make([]CDFPoint, 0, len(pts)+1)
	if pts[0].Frac > 0 {
		first := pts[0].Size / 2
		if first < 1 {
			first = 1
		}
		sorted = append(sorted, CDFPoint{Size: first, Frac: 0})
	}
	sorted = append(sorted, pts...)
	for i := 1; i < len(sorted); i++ {
		if sorted[i].Size <= sorted[i-1].Size {
			return nil, fmt.Errorf("workload: CDF %q sizes not increasing at %d", name, i)
		}
		if sorted[i].Frac < sorted[i-1].Frac {
			return nil, fmt.Errorf("workload: CDF %q fractions decreasing at %d", name, i)
		}
	}
	if last := sorted[len(sorted)-1]; last.Frac != 1 {
		return nil, fmt.Errorf("workload: CDF %q must end at fraction 1, got %v", name, last.Frac)
	}
	c := &CDF{name: name, pts: sorted}
	c.mean = c.computeMean()
	return c, nil
}

// MustCDF is NewCDF that panics on error, for package-level trace tables.
func MustCDF(name string, pts []CDFPoint) *CDF {
	c, err := NewCDF(name, pts)
	if err != nil {
		panic(err)
	}
	return c
}

func (c *CDF) Name() string  { return c.name }
func (c *CDF) Mean() float64 { return c.mean }

// computeMean integrates the log-linear segments analytically:
// over a segment from (s0,f0) to (s1,f1), size(u) = s0·(s1/s0)^((u-f0)/(f1-f0)),
// whose integral over u is (f1-f0)·(s1-s0)/ln(s1/s0).
func (c *CDF) computeMean() float64 {
	var mean float64
	for i := 1; i < len(c.pts); i++ {
		p0, p1 := c.pts[i-1], c.pts[i]
		df := p1.Frac - p0.Frac
		if df == 0 {
			continue
		}
		s0, s1 := float64(p0.Size), float64(p1.Size)
		// The segment's mean, the log mean of s0 and s1, lies between them;
		// for anchors float64 barely tells apart it rounds outside (or to
		// 0/0), and s0 is as good an estimate.
		m := df * (s1 - s0) / math.Log(s1/s0)
		if !(m >= df*s0 && m <= df*s1) {
			m = df * s0
		}
		mean += m
	}
	// Fraction differences rounded apart can sum past 1.
	return min(mean, float64(c.pts[len(c.pts)-1].Size))
}

// Sample draws a size by inverse transform with log-linear interpolation.
func (c *CDF) Sample(r *sim.RNG) int64 {
	u := r.Float64()
	i := sort.Search(len(c.pts), func(i int) bool { return c.pts[i].Frac >= u })
	if i == 0 {
		return c.pts[0].Size
	}
	if i >= len(c.pts) {
		return c.pts[len(c.pts)-1].Size
	}
	p0, p1 := c.pts[i-1], c.pts[i]
	df := p1.Frac - p0.Frac
	if df == 0 {
		return p1.Size
	}
	frac := (u - p0.Frac) / df
	s := float64(p0.Size) * math.Pow(float64(p1.Size)/float64(p0.Size), frac)
	if s >= float64(p1.Size) {
		// Rounding, or an anchor float64 rounds up, must not pass p1.
		return p1.Size
	}
	return int64(math.Round(s))
}

// FracBelow returns the fraction of flows strictly smaller than size,
// evaluated on the anchor polyline (used by tests asserting the paper's
// stated trace properties).
func (c *CDF) FracBelow(size int64) float64 {
	if size <= c.pts[0].Size {
		return 0
	}
	last := c.pts[len(c.pts)-1]
	if size >= last.Size {
		return 1
	}
	i := sort.Search(len(c.pts), func(i int) bool { return c.pts[i].Size >= size })
	p0, p1 := c.pts[i-1], c.pts[i]
	frac := math.Log(float64(size)/float64(p0.Size)) / math.Log(float64(p1.Size)/float64(p0.Size))
	return p0.Frac + frac*(p1.Frac-p0.Frac)
}

// ByteFracAbove estimates the fraction of bytes contributed by flows of at
// least size bytes, via numeric quadrature over the CDF.
func (c *CDF) ByteFracAbove(size int64) float64 {
	const steps = 100000
	var total, above float64
	for k := 0; k < steps; k++ {
		u := (float64(k) + 0.5) / steps
		s := c.quantile(u)
		total += s
		if s >= float64(size) {
			above += s
		}
	}
	if total == 0 {
		return 0
	}
	return above / total
}

func (c *CDF) quantile(u float64) float64 {
	i := sort.Search(len(c.pts), func(i int) bool { return c.pts[i].Frac >= u })
	if i == 0 {
		return float64(c.pts[0].Size)
	}
	if i >= len(c.pts) {
		return float64(c.pts[len(c.pts)-1].Size)
	}
	p0, p1 := c.pts[i-1], c.pts[i]
	df := p1.Frac - p0.Frac
	if df == 0 {
		return float64(p1.Size)
	}
	frac := (u - p0.Frac) / df
	return float64(p0.Size) * math.Pow(float64(p1.Size)/float64(p0.Size), frac)
}

// Hadoop returns the Meta Hadoop-cluster distribution (paper §4.1, after
// Roy et al. [41]): highly tailed, ~60% of flows below 1 KB while >80% of
// bytes come from flows larger than 100 KB.
func Hadoop() *CDF {
	return MustCDF("hadoop", []CDFPoint{
		{Size: 150, Frac: 0.10},
		{Size: 350, Frac: 0.40},
		{Size: 1 << 10, Frac: 0.60},
		{Size: 5 << 10, Frac: 0.70},
		{Size: 20 << 10, Frac: 0.78},
		{Size: 100 << 10, Frac: 0.85},
		{Size: 500 << 10, Frac: 0.92},
		{Size: 2 << 20, Frac: 0.97},
		{Size: 5 << 20, Frac: 0.99},
		{Size: 10 << 20, Frac: 1.0},
	})
}

// WebSearch returns the DCTCP web-search distribution (paper §4.4, after
// Alizadeh et al. [1]): heavier, with >80% of flows exceeding 10 KB.
func WebSearch() *CDF {
	return MustCDF("websearch", []CDFPoint{
		{Size: 6 << 10, Frac: 0.10},
		{Size: 13 << 10, Frac: 0.18},
		{Size: 19 << 10, Frac: 0.28},
		{Size: 33 << 10, Frac: 0.40},
		{Size: 53 << 10, Frac: 0.53},
		{Size: 133 << 10, Frac: 0.60},
		{Size: 667 << 10, Frac: 0.70},
		{Size: 1460 << 10, Frac: 0.80},
		{Size: 3333 << 10, Frac: 0.90},
		{Size: 6667 << 10, Frac: 0.95},
		{Size: 20 << 20, Frac: 0.98},
		{Size: 30 << 20, Frac: 1.0},
	})
}

// GoogleAgg returns the aggregated Google-datacenter distribution (paper
// §4.4, after Montazeri et al. [34] and Sivaram [46]): light per-flow —
// >80% of flows below 1 KB — with a long tail carrying most bytes.
func GoogleAgg() *CDF {
	return MustCDF("google", []CDFPoint{
		{Size: 100, Frac: 0.40},
		{Size: 300, Frac: 0.60},
		{Size: 575, Frac: 0.75},
		{Size: 1 << 10, Frac: 0.82},
		{Size: 10 << 10, Frac: 0.92},
		{Size: 100 << 10, Frac: 0.96},
		{Size: 1 << 20, Frac: 0.985},
		{Size: 10 << 20, Frac: 0.998},
		{Size: 64 << 20, Frac: 1.0},
	})
}

// Fixed returns a degenerate distribution of one size, used by the incast
// and all-to-all microbenchmarks.
func Fixed(size int64) *CDF {
	return &CDF{name: fmt.Sprintf("fixed-%dB", size),
		pts: []CDFPoint{{Size: size, Frac: 1}}, mean: float64(size)}
}
