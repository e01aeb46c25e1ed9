package exp

import (
	"fmt"
	"io"

	negotiator "negotiator"
	"negotiator/internal/metrics"
	"negotiator/internal/sim"
)

func init() {
	register(Experiment{ID: "fig17", Title: "Figure 17 (A.3): receiver bandwidth, incast degree 15", Run: runFig17})
	register(Experiment{ID: "fig18", Title: "Figure 18 (A.3): receiver bandwidth, all-to-all 30KB", Run: runFig18})
	register(Experiment{ID: "fig19", Title: "Figure 19 (A.4): single-pair bandwidth across link failures", Run: runFig19})
}

// observeReceiver runs a fabric while sampling the bandwidth arriving at
// one destination, returning the Gbps series.
func observeReceiver(spec negotiator.Spec, dst int, wl negotiator.Workload, dur, bucket sim.Duration) (recv, transit []float64, err error) {
	rx := metrics.NewTimeSeries(bucket)
	tx := metrics.NewTimeSeries(bucket)
	spec.OnDeliver = func(d int, at sim.Time, n int64) {
		if d == dst {
			rx.Add(at, n)
		}
	}
	spec.OnTransit = func(k int, at sim.Time, n int64) {
		if k == dst {
			tx.Add(at, n)
		}
	}
	fab, err := spec.Build()
	if err != nil {
		return nil, nil, err
	}
	fab.SetWorkload(wl)
	fab.Run(dur)
	return rx.Gbps(), tx.Gbps(), nil
}

func printSeries(w io.Writer, bucket sim.Duration, series ...[]float64) {
	maxLen := 0
	for _, s := range series {
		if len(s) > maxLen {
			maxLen = len(s)
		}
	}
	for i := 0; i < maxLen; i++ {
		t := sim.Duration(int64(i) * int64(bucket))
		fmt.Fprintf(w, "%10.2f", t.Micros())
		for _, s := range series {
			v := 0.0
			if i < len(s) {
				v = s[i]
			}
			fmt.Fprintf(w, " | %8.1f", v)
		}
		fmt.Fprintln(w)
	}
}

// runFig17 samples the incast destination's receive bandwidth for incast
// degree 15 on the three systems. Flows are injected at 10µs; the
// oblivious receiver goes quiet while data detours through intermediates.
// Each system runs as one cell that stores its series into a private slot;
// the combined table is printed after the cells complete.
func runFig17(o Options, w io.Writer) error {
	const dst = 3
	inject := sim.Time(10 * sim.Microsecond)
	bucket := sim.Duration(2 * sim.Microsecond)
	dur := 60 * sim.Microsecond
	systems := []struct {
		name  string
		top   negotiator.Topology
		plane negotiator.ControlPlaneKind
	}{
		{"negotiator/parallel", negotiator.ParallelNetwork, negotiator.NegotiaToRPlane},
		{"negotiator/thin-clos", negotiator.ThinClos, negotiator.NegotiaToRPlane},
		{"oblivious/thin-clos", negotiator.ThinClos, negotiator.ObliviousPlane},
	}
	all := make([][]float64, len(systems))
	r := o.runner()
	for idx, sys := range systems {
		r.Cell(func(io.Writer) error {
			spec := o.baseSpec()
			spec.Topology = sys.top
			spec.ControlPlane = sys.plane
			deg := 15
			if deg > spec.ToRs-1 {
				deg = spec.ToRs - 1
			}
			wl, err := negotiator.IncastWorkload(spec, dst, deg, 1000, inject, 1, 5+o.Seed)
			if err != nil {
				return err
			}
			recv, _, err := observeReceiver(spec, dst, wl, dur, bucket)
			if err != nil {
				return err
			}
			all[idx] = recv
			return nil
		})
	}
	r.Header("%-10s | %-8s | %-8s | %-8s", "t (µs)", "neg/par", "neg/tc", "obl(Gbps)")
	r.Text(func(w io.Writer) error {
		printSeries(w, bucket, all...)
		return nil
	})
	return r.Flush(w)
}

// runFig18 samples a receiver under the 30 KB all-to-all workload. For the
// oblivious system the transit (to-be-forwarded) arrivals are reported
// separately — bandwidth that does not contribute to the receiver's
// goodput. Cells fill fixed series slots; the table prints afterwards.
func runFig18(o Options, w io.Writer) error {
	const dst = 3
	inject := sim.Time(10 * sim.Microsecond)
	bucket := sim.Duration(4 * sim.Microsecond)
	dur := 200 * sim.Microsecond
	systems := []struct {
		top   negotiator.Topology
		plane negotiator.ControlPlaneKind
	}{
		{negotiator.ParallelNetwork, negotiator.NegotiaToRPlane},
		{negotiator.ThinClos, negotiator.NegotiaToRPlane},
		{negotiator.ThinClos, negotiator.ObliviousPlane},
	}
	// Column order: recv per system, plus the oblivious transit series.
	all := make([][]float64, len(systems)+1)
	r := o.runner()
	for idx, sys := range systems {
		r.Cell(func(io.Writer) error {
			spec := o.baseSpec()
			spec.Topology = sys.top
			spec.ControlPlane = sys.plane
			recv, transit, err := observeReceiver(spec, dst,
				negotiator.AllToAllWorkload(spec, 30<<10, inject), dur, bucket)
			if err != nil {
				return err
			}
			all[idx] = recv
			if sys.plane == negotiator.ObliviousPlane {
				all[len(systems)] = transit // the dedicated extra last column
			}
			return nil
		})
	}
	r.Header("%-10s | %-8s | %-8s | %-8s | %-8s", "t (µs)", "neg/par", "neg/tc", "obl", "obl-transit")
	r.Text(func(w io.Writer) error {
		printSeries(w, bucket, all...)
		return nil
	})
	return r.Flush(w)
}

// runFig19 lets one pair transmit continuously on the parallel network and
// fails a growing set of the source's egress links mid-run: bandwidth
// occupation steps down with failures, shows zero-bandwidth epochs while
// scheduling messages are lost, and recovers. A single simulation: one cell.
func runFig19(o Options, w io.Writer) error {
	r := o.runner()
	r.Cell(func(w io.Writer) error {
		spec := o.baseSpec()
		spec.Topology = negotiator.ParallelNetwork
		epoch := negotiatorEpoch(spec)
		src, dst := 2, 9
		// Fail half the source's egress links.
		var links []negotiator.FailedLink
		for p := 0; p < spec.Ports/2; p++ {
			links = append(links, negotiator.FailedLink{ToR: src, Port: p})
		}
		failAt := sim.Time(60 * epoch)
		recoverAt := sim.Time(140 * epoch)
		spec.Failures = &negotiator.FailurePlan{
			Links:  links,
			FailAt: failAt, RecoverAt: recoverAt,
			DetectDelay: 3 * epoch,
		}
		series := metrics.NewTimeSeries(epoch)
		spec.OnDeliver = func(d int, at sim.Time, n int64) {
			if d == dst {
				series.Add(at, n)
			}
		}
		fab, err := spec.Build()
		if err != nil {
			return err
		}
		fab.SetWorkload(negotiator.SinglePairWorkload(src, dst, 1<<40, 0))
		fab.Run(200 * epoch)
		fmt.Fprintf(w, "single pair %d->%d, %d/%d egress links failed at %.1fµs, recovered at %.1fµs\n",
			src, dst, len(links), spec.Ports, sim.Duration(failAt).Micros(), sim.Duration(recoverAt).Micros())
		header(w, "%-10s | %-10s", "t (µs)", "recv Gbps")
		for i, v := range series.Gbps() {
			t := sim.Duration(int64(i) * int64(epoch))
			fmt.Fprintf(w, "%10.2f | %10.1f\n", t.Micros(), v)
		}
		return nil
	})
	return r.Flush(w)
}
