package negotiator

import "negotiator/internal/workload"

// Trace identifies a flow-size distribution modelled after a published
// datacenter trace (§4.1, §4.4).
type Trace int

const (
	// Hadoop is Meta's Hadoop-cluster trace: 60% of flows under 1 KB,
	// >80% of bytes in flows over 100 KB (the paper's default workload).
	Hadoop Trace = iota
	// WebSearch is the DCTCP web-search trace: >80% of flows over 10 KB.
	WebSearch
	// Google is the aggregated Google-datacenter trace: >80% of flows
	// under 1 KB.
	Google
)

func (t Trace) String() string {
	switch t {
	case WebSearch:
		return "websearch"
	case Google:
		return "google"
	default:
		return "hadoop"
	}
}

func (t Trace) dist() *workload.CDF {
	switch t {
	case WebSearch:
		return workload.WebSearch()
	case Google:
		return workload.GoogleAgg()
	default:
		return workload.Hadoop()
	}
}

// MeanFlowBytes returns the trace's mean flow size.
func (t Trace) MeanFlowBytes() float64 { return t.dist().Mean() }

// PoissonWorkload generates background traffic at the given network load
// (L = F/(R·N·τ), §4.1): Poisson arrivals, uniform random distinct
// endpoints, sizes from the trace. Like every clock-driven workload here,
// the stream ends when its clock passes the int64 nanosecond range, which
// at load 0 happens within a few draws.
func PoissonWorkload(spec Spec, trace Trace, load float64, seed int64) Workload {
	return workload.NewPoisson(trace.dist(), spec.ToRs, load, spec.HostRate, seed)
}

// FixedSizeWorkload is PoissonWorkload with a degenerate single-size
// distribution.
func FixedSizeWorkload(spec Spec, size int64, load float64, seed int64) Workload {
	return workload.NewPoisson(workload.Fixed(size), spec.ToRs, load, spec.HostRate, seed)
}

// IncastWorkload generates one incast event: degree sources each send one
// size-byte flow to dst at time at (§4.2, Figure 7a). The event is tagged
// so Events()[tag].FinishTime() reports the incast finish time.
func IncastWorkload(spec Spec, dst, degree int, size int64, at Time, tag int, seed int64) (Workload, error) {
	return workload.NewIncast(spec.ToRs, dst, degree, size, at, tag, seed)
}

// AllToAllWorkload makes every ToR send one size-byte flow to every other
// ToR at time at (§4.2, Figure 7b).
func AllToAllWorkload(spec Spec, size int64, at Time) Workload {
	return workload.NewAllToAll(spec.ToRs, size, at)
}

// SinglePairWorkload injects one long transfer between a fixed pair
// (Appendix A.4, Figure 19).
func SinglePairWorkload(src, dst int, size int64, at Time) Workload {
	return workload.NewSinglePair(src, dst, size, at)
}

// MixedIncastWorkload layers Poisson incast events (degree, per-flow size,
// consuming bwFraction of aggregate host bandwidth) over background
// traffic from the trace at the given load (§4.4, Figure 13a). Incast
// events are tagged starting from firstTag; a bwFraction of zero or less
// adds none.
func MixedIncastWorkload(spec Spec, trace Trace, load float64, degree int, size int64, bwFraction float64, firstTag int, seed int64) Workload {
	bg := workload.NewPoisson(trace.dist(), spec.ToRs, load, spec.HostRate, seed)
	inc := workload.NewIncastMix(spec.ToRs, degree, size, bwFraction, spec.HostRate, firstTag, seed+1)
	return workload.NewMerge(bg, inc)
}

// PermutationWorkload generates the saturated-but-sparse permutation
// matrix: the first active ToRs (0 means all) each send one size-byte
// flow to their cyclic successor within the active set at time at. This
// is the sparse-scale benchmark regime promoted into the workload layer.
func PermutationWorkload(spec Spec, active int, size int64, at Time) (Workload, error) {
	return workload.NewPermutation(spec.ToRs, active, size, at)
}

// HotspotWorkload is PoissonWorkload with destination skew: a fraction
// hotFrac of flows target one of the first hotTors destinations, the rest
// choose uniformly. Sources stay uniform, so the offered load equation is
// unchanged — only the traffic matrix tilts.
func HotspotWorkload(spec Spec, trace Trace, load float64, hotTors int, hotFrac float64, seed int64) (Workload, error) {
	return workload.NewHotspot(trace.dist(), spec.ToRs, load, spec.HostRate, hotTors, hotFrac, seed)
}

// DiurnalWorkload is PoissonWorkload with a day/night cycle: the offered
// load swings sinusoidally between floor·peakLoad (at the start of each
// period) and peakLoad (at each half period). Most of a real fabric's day
// is spent far below peak; this is the workload that makes the event-skip
// run loop's quiet-time savings visible end to end.
func DiurnalWorkload(spec Spec, trace Trace, peakLoad float64, period Duration, floor float64, seed int64) (Workload, error) {
	return workload.NewDiurnal(trace.dist(), spec.ToRs, peakLoad, spec.HostRate, period, floor, seed)
}

// GroupWorkload applies the flow-group knob: every arrival of w stands
// for k identical host flows behind one flow record (k times its count if
// it already is a group) — the aggregation that fits millions of host
// flows in a flow table sized by records. It wraps every generator alike
// in one adapter (workload.Grouped) that multiplies the count and changes
// nothing else: k == 1 is a strict no-op on the arrival stream (and is
// what the golden-equivalence tests run), and grouping a GroupWorkload
// result multiplies the two factors. k must lie in [1, MaxInt32], and so
// must a nested product.
//
// Per-member FCT emission is exact under FIFO delivery; see the README's
// "Flow groups" subsection for when the grouped FCT stream equals the
// ungrouped one byte for byte.
func GroupWorkload(w Workload, k int) (Workload, error) {
	g, err := workload.NewGroupBy(w, k)
	if err != nil {
		return nil, err
	}
	return g, nil
}

// MergeWorkloads combines arrival streams in time order.
func MergeWorkloads(ws ...Workload) Workload {
	gens := make([]workload.Generator, len(ws))
	for i, w := range ws {
		gens[i] = w
	}
	return workload.NewMerge(gens...)
}

// LoadFor reports the network load that a mean inter-arrival time would
// produce for a trace on this spec, exposing the paper's load equation.
func LoadFor(spec Spec, trace Trace, interArrival Duration) float64 {
	return workload.Load(trace.dist().Mean(), spec.HostRate, spec.ToRs, interArrival)
}
