// Checkpoint accessors: the accumulators keep their fields private (the
// engines may only feed them through Record/Observe/Deliver), so the
// snapshot subsystem gets explicit state getters and setters here. Every
// derived statistic either sorts first (FCTStats) or is a commutative sum
// (Goodput, Ratio), which is what lets a restore concentrate merged
// samples into a single shard without changing any queried result.
package metrics

import (
	"iter"

	"negotiator/internal/sim"
)

// Samples yields the raw recorded FCT samples of each class in recording
// order; a merged accumulator yields each merged-in accumulator's samples
// in merge order. The sorted copies the order statistics use never show
// here, so what a checkpoint writes does not depend on earlier queries.
func (s *FCTStats) Samples() (all, mice iter.Seq[sim.Duration]) {
	return s.all.values, s.mice.values
}

// RestoreSamples replaces the recorded samples with copies in fresh
// blocks, so accumulators merged from s earlier keep what they held.
// Restored sample order is irrelevant to every derived statistic.
func (s *FCTStats) RestoreSamples(all, mice []sim.Duration) {
	s.all, s.mice = samples{}, samples{}
	for _, x := range all {
		s.all.add(x)
	}
	for _, x := range mice {
		s.mice.add(x)
	}
}

// PerToR exposes the per-destination delivered byte counts.
func (g *Goodput) PerToR() []int64 { return g.perToR }

// RestorePerToR replaces the per-destination byte counts and recomputes
// the total. The length must match the accumulator's ToR count.
func (g *Goodput) RestorePerToR(perToR []int64) {
	copy(g.perToR, perToR)
	g.total = 0
	for _, b := range g.perToR {
		g.total += b
	}
}

// State exposes a drain buffer's simulation-time state (the drain rate is
// configuration, not state).
func (b *DrainBuffer) State() (last sim.Time, backlog, peak int64) {
	return b.last, b.backlog, b.peak
}

// RestoreState sets a drain buffer's simulation-time state.
func (b *DrainBuffer) RestoreState(last sim.Time, backlog, peak int64) {
	b.last, b.backlog, b.peak = last, backlog, peak
}

// Counts exposes the raw per-observation numerators and denominators.
func (r *Ratio) Counts() (num, den []int64) { return r.num, r.den }

// RestoreCounts replaces the observation history.
func (r *Ratio) RestoreCounts(num, den []int64) {
	r.num = append(r.num[:0], num...)
	r.den = append(r.den[:0], den...)
}
