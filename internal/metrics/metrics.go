// Package metrics provides the measurement primitives used by the
// evaluation harness: flow-completion-time statistics with percentiles and
// CDFs, goodput accounting, bandwidth time series, and per-epoch ratio
// tracking (e.g. NegotiaToR Matching's accept/grant match ratio).
package metrics

import (
	"fmt"
	"math"

	"negotiator/internal/sim"
)

// MiceFlowBytes is the paper's mice-flow threshold: flows smaller than
// 10 KB are mice (§4.1).
const MiceFlowBytes = 10 << 10

// FCTStats accumulates flow completion times, classified into mice and
// all flows. The zero value is ready to use.
//
// Samples are stored in fixed-size blocks (see samples). P and Max read
// the all-flows class by radix select over those blocks, with no copy
// and no allocation; MiceP and MiceCDF share one ascending copy of the
// mice class, radix-sorted on the first such query after a change. The
// last rank selected and the sorted copy are kept until a sample arrives,
// so a repeated query is free.
//
// Every derived statistic has a defined zero result on an empty sample
// set — P, MiceP, Mean, MiceMean and Max return 0, MiceCDF returns nil —
// so per-shard instances that happened to record nothing (a legitimate
// state under sharded engine execution) are safe to query or merge.
type FCTStats struct {
	all, mice samples
}

// Record adds one completed flow.
func (s *FCTStats) Record(size int64, fct sim.Duration) {
	s.all.add(fct)
	if size < MiceFlowBytes {
		s.mice.add(fct)
	}
}

// Merge folds another accumulator's samples into s by reference: o's
// sample blocks are shared, not copied, and o may keep recording without
// changing what s holds. Every derived statistic is a function of the
// sample multiset, so the merge is order-independent: merging per-shard
// accumulators in any order yields the same percentiles, means and CDFs
// as recording all samples into one instance. o is not modified.
func (s *FCTStats) Merge(o *FCTStats) {
	if o == nil {
		return
	}
	s.all.merge(&o.all)
	s.mice.merge(&o.mice)
}

// Count returns the number of completed flows (all classes).
func (s *FCTStats) Count() int { return s.all.n }

// MiceCount returns the number of completed mice flows.
func (s *FCTStats) MiceCount() int { return s.mice.n }

// rank is the ascending index of the p-th percentile among n > 0
// samples: the smallest sample with at least p% of them at or below it.
func rank(n int, p float64) int {
	return min(max(int(math.Ceil(p/100*float64(n)))-1, 0), n-1)
}

func percentile(xs []sim.Duration, p float64) sim.Duration {
	if len(xs) == 0 {
		return 0
	}
	return xs[rank(len(xs), p)]
}

// P returns the p-th percentile FCT over all flows.
func (s *FCTStats) P(p float64) sim.Duration {
	if s.all.n == 0 {
		return 0
	}
	return s.all.nth(rank(s.all.n, p))
}

// MiceP returns the p-th percentile FCT over mice flows.
func (s *FCTStats) MiceP(p float64) sim.Duration {
	return percentile(s.mice.ascending(), p)
}

// Mean returns the mean FCT over all flows.
func (s *FCTStats) Mean() sim.Duration { return s.all.mean() }

// MiceMean returns the mean FCT over mice flows.
func (s *FCTStats) MiceMean() sim.Duration { return s.mice.mean() }

// Max returns the largest recorded FCT.
func (s *FCTStats) Max() sim.Duration { return s.P(100) }

// CDFPoint is one point of an empirical CDF.
type CDFPoint struct {
	Value sim.Duration
	Frac  float64 // fraction of samples <= Value
}

// MiceCDF returns an empirical CDF of mice-flow FCTs sampled at up to
// points evenly spaced quantiles (paper Figure 6).
func (s *FCTStats) MiceCDF(points int) []CDFPoint {
	return cdf(s.mice.ascending(), points)
}

func cdf(xs []sim.Duration, points int) []CDFPoint {
	if len(xs) == 0 || points < 2 {
		return nil
	}
	out := make([]CDFPoint, 0, points)
	for k := 1; k <= points; k++ {
		idx := k*len(xs)/points - 1
		if idx < 0 {
			idx = 0
		}
		out = append(out, CDFPoint{Value: xs[idx], Frac: float64(idx+1) / float64(len(xs))})
	}
	return out
}

// Goodput accumulates payload bytes delivered to their final-destination
// ToRs.
type Goodput struct {
	perToR []int64
	total  int64
}

// NewGoodput returns a goodput accumulator for n ToRs.
func NewGoodput(n int) *Goodput { return &Goodput{perToR: make([]int64, n)} }

// Deliver records n payload bytes arriving at their destination dst.
func (g *Goodput) Deliver(dst int, n int64) {
	g.perToR[dst] += n
	g.total += n
}

// Merge adds another accumulator's per-ToR byte counts into g — a
// commutative sum, so merging per-shard goodput accumulators in any order
// equals recording every delivery into one instance. Sizes must match.
func (g *Goodput) Merge(o *Goodput) {
	if o == nil {
		return
	}
	if len(o.perToR) != len(g.perToR) {
		panic(fmt.Sprintf("metrics: merging goodput over %d ToRs into %d", len(o.perToR), len(g.perToR)))
	}
	for i, b := range o.perToR {
		g.perToR[i] += b
	}
	g.total += o.total
}

// TotalBytes returns all delivered payload bytes.
func (g *Goodput) TotalBytes() int64 { return g.total }

// Normalized returns goodput normalised to the per-ToR host aggregate
// bandwidth (the paper's normalisation, §4.1): average over ToRs of
// delivered-rate / hostRate.
func (g *Goodput) Normalized(d sim.Duration, hostRate sim.Rate) float64 {
	if d <= 0 || len(g.perToR) == 0 {
		return 0
	}
	capacity := hostRate.BytesPerSecond() * d.Seconds() * float64(len(g.perToR))
	return float64(g.total) / capacity
}

// PerToRGbps returns the average delivered Gbps of one ToR.
func (g *Goodput) PerToRGbps(d sim.Duration) float64 {
	if d <= 0 || len(g.perToR) == 0 {
		return 0
	}
	bytesPerToR := float64(g.total) / float64(len(g.perToR))
	return bytesPerToR * 8 / d.Seconds() / 1e9
}

// TimeSeries buckets byte counts over simulated time, producing bandwidth
// traces like the paper's receiver-bandwidth micro-observations
// (Figures 17-19).
type TimeSeries struct {
	bucket  sim.Duration
	buckets []int64
}

// NewTimeSeries returns a time series with the given bucket width.
func NewTimeSeries(bucket sim.Duration) *TimeSeries {
	if bucket <= 0 {
		panic("metrics: non-positive bucket")
	}
	return &TimeSeries{bucket: bucket}
}

// Add records n bytes at time t.
func (ts *TimeSeries) Add(t sim.Time, n int64) {
	if t < 0 {
		return
	}
	idx := int(int64(t) / int64(ts.bucket))
	for len(ts.buckets) <= idx {
		ts.buckets = append(ts.buckets, 0)
	}
	ts.buckets[idx] += n
}

// Gbps returns the series as bandwidth per bucket in Gbps.
func (ts *TimeSeries) Gbps() []float64 {
	out := make([]float64, len(ts.buckets))
	secs := ts.bucket.Seconds()
	for i, b := range ts.buckets {
		out[i] = float64(b) * 8 / secs / 1e9
	}
	return out
}

// MeanGbpsBetween returns the mean bandwidth between the two times (Gbps).
func (ts *TimeSeries) MeanGbpsBetween(from, to sim.Time) float64 {
	if to <= from {
		return 0
	}
	lo, hi := int(int64(from)/int64(ts.bucket)), int(int64(to)/int64(ts.bucket))
	var sum int64
	for i := lo; i <= hi && i < len(ts.buckets); i++ {
		if i < 0 {
			continue
		}
		sum += ts.buckets[i]
	}
	return float64(sum) * 8 / to.Sub(from).Seconds() / 1e9
}

// DrainBuffer models a queue fed by discrete arrival events and drained at
// a constant rate — the receiver-side ToR-to-host buffer of paper §3.6.5,
// where the 2x optical speedup can deliver bursts faster than the host
// aggregate drains them. It reports the peak backlog, the figure a switch
// designer sizes SRAM against.
type DrainBuffer struct {
	rate    sim.Rate
	last    sim.Time
	backlog int64
	peak    int64
}

// NewDrainBuffer returns a buffer draining at the given rate.
func NewDrainBuffer(rate sim.Rate) DrainBuffer {
	return DrainBuffer{rate: rate}
}

// Add drains the buffer up to time at, then adds n arriving bytes.
// Slightly out-of-order timestamps are tolerated (arrivals from different
// ports of one epoch jitter by less than an epoch): draining only moves
// forward, so the peak estimate errs conservatively high by at most one
// epoch of arrivals.
func (b *DrainBuffer) Add(at sim.Time, n int64) {
	if at > b.last {
		b.backlog -= b.rate.BytesIn(at.Sub(b.last))
		if b.backlog < 0 {
			b.backlog = 0
		}
		b.last = at
	}
	b.backlog += n
	if b.backlog > b.peak {
		b.peak = b.backlog
	}
}

// Backlog returns the bytes queued as of the last Add.
func (b *DrainBuffer) Backlog() int64 { return b.backlog }

// Peak returns the largest backlog observed.
func (b *DrainBuffer) Peak() int64 { return b.peak }

// Ratio tracks a per-epoch numerator/denominator ratio, such as the
// accept/grant match ratio (paper Appendix A.1).
type Ratio struct {
	num, den []int64
}

// Observe appends one epoch's counts.
func (r *Ratio) Observe(num, den int64) {
	r.num = append(r.num, num)
	r.den = append(r.den, den)
}

// Mean returns the aggregate ratio (sum of numerators over sum of
// denominators), ignoring epochs with zero denominator.
func (r *Ratio) Mean() float64 {
	var n, d int64
	for i := range r.num {
		n += r.num[i]
		d += r.den[i]
	}
	if d == 0 {
		return 0
	}
	return float64(n) / float64(d)
}

// Series returns the per-epoch ratios (NaN-free: zero-denominator epochs
// are reported as 0), or nil when nothing was observed.
func (r *Ratio) Series() []float64 {
	if len(r.num) == 0 {
		return nil
	}
	out := make([]float64, len(r.num))
	for i := range r.num {
		if r.den[i] != 0 {
			out[i] = float64(r.num[i]) / float64(r.den[i])
		}
	}
	return out
}

// Len returns the number of observations.
func (r *Ratio) Len() int { return len(r.num) }

// EpochsOf expresses a duration in units of the given epoch length, the
// unit used by the paper's Table 2.
func EpochsOf(d, epoch sim.Duration) float64 {
	if epoch <= 0 {
		return 0
	}
	return float64(d) / float64(epoch)
}

// String summarises the stats for debugging.
func (s *FCTStats) String() string {
	return fmt.Sprintf("flows=%d mice=%d mice99p=%v miceAvg=%v",
		s.Count(), s.MiceCount(), s.MiceP(99), s.MiceMean())
}
