package exp

import (
	"fmt"
	"io"

	negotiator "negotiator"
	"negotiator/internal/metrics"
	"negotiator/internal/sim"
)

func init() {
	register(Experiment{ID: "table2", Title: "Table 2: PB/PQ ablation — mice FCT (99p/avg, epochs) at 100% load", Run: runTable2})
	register(Experiment{ID: "fig6", Title: "Figure 6: CDF of mice flow FCT at 100% load", Run: runFig6})
	register(Experiment{ID: "fig7a", Title: "Figure 7(a): incast finish time vs degree", Run: runFig7a})
	register(Experiment{ID: "fig7b", Title: "Figure 7(b): all-to-all goodput vs flow size", Run: runFig7b})
	register(Experiment{ID: "fig8", Title: "Figure 8: performance under various reconfiguration delays at 100% load", Run: runFig8})
}

// runTable2 reproduces Table 2: data piggybacking (PB) and priority queues
// (PQ) separately enabled and disabled, mice flow FCT in epochs at 100%
// load on both topologies. Each (variant, topology) run is one cell
// emitting its table fragment.
func runTable2(o Options, w io.Writer) error {
	d := o.duration()
	r := o.runner()
	r.Header("%-10s | %-21s | %-21s", "variant", "parallel 99p/avg (ep)", "thin-clos 99p/avg (ep)")
	rows := []struct {
		name   string
		pb, pq bool
	}{
		{"-", false, false},
		{"PB", true, false},
		{"PQ", false, true},
		{"PB and PQ", true, true},
	}
	for _, row := range rows {
		r.Textf("%-10s", row.name)
		for _, top := range []negotiator.Topology{negotiator.ParallelNetwork, negotiator.ThinClos} {
			r.Cell(func(w io.Writer) error {
				spec := o.baseSpec()
				spec.Topology = top
				spec.Piggyback = row.pb
				spec.PriorityQueues = row.pq
				sum, err := run(spec, negotiator.PoissonWorkload(spec, negotiator.Hadoop, 1.0, 7+o.Seed), d)
				if err != nil {
					return err
				}
				fmt.Fprintf(w, " | %8.1f /%7.1f",
					metrics.EpochsOf(sum.Mice99p, sum.EpochLen),
					metrics.EpochsOf(sum.MiceMean, sum.EpochLen))
				return nil
			})
		}
		r.Textf("\n")
	}
	return r.Flush(w)
}

// runFig6 reproduces Figure 6: the CDF of mice-flow FCT at 100% load with
// PB and PQ enabled, on both topologies, with the epoch boundaries marked.
// Each topology is one cell.
func runFig6(o Options, w io.Writer) error {
	d := o.duration()
	points := 20
	if o.Quick {
		points = 8
	}
	r := o.runner()
	for _, top := range []negotiator.Topology{negotiator.ParallelNetwork, negotiator.ThinClos} {
		r.Cell(func(w io.Writer) error {
			spec := o.baseSpec()
			spec.Topology = top
			fab, err := spec.Build()
			if err != nil {
				return err
			}
			fab.SetWorkload(negotiator.PoissonWorkload(spec, negotiator.Hadoop, 1.0, 7+o.Seed))
			fab.Run(d)
			sum := fab.Summary()
			fmt.Fprintf(w, "%s (epoch=%v; 1st epoch ends %v, 2nd %v)\n",
				top, sum.EpochLen, sum.EpochLen, 2*sum.EpochLen)
			header(w, "%-12s | %-8s", "FCT (µs)", "CDF")
			var within2 float64
			for _, p := range fab.MiceCDF(points) {
				fmt.Fprintf(w, "%12.2f | %8.4f\n", p.Value.Micros(), p.Frac)
			}
			// Fraction finishing within 2 epochs (the paper: over 80%).
			cdf := fab.MiceCDF(400)
			for _, p := range cdf {
				if p.Value <= 2*sum.EpochLen {
					within2 = p.Frac
				}
			}
			fmt.Fprintf(w, "fraction bypassing the scheduling delay (<= 2 epochs): %.1f%%\n\n", 100*within2)
			return nil
		})
	}
	return r.Flush(w)
}

// runFig7a reproduces Figure 7(a): a set of ToRs synchronously send one
// 1 KB flow to the same ToR; finish time vs incast degree for NegotiaToR on
// both topologies and the traffic-oblivious baseline. Each (degree, system)
// run is one cell emitting its row fragment.
func runFig7a(o Options, w io.Writer) error {
	degrees := []int{1, 10, 20, 30, 40, 50}
	if o.Quick {
		degrees = []int{1, 20, 50}
	}
	r := o.runner()
	r.Header("%-7s | %-16s | %-16s | %-16s", "degree",
		"negotiator/par", "negotiator/tc", "oblivious (µs)")
	inject := sim.Time(10 * sim.Microsecond)
	for _, deg := range degrees {
		r.Textf("%-7d", deg)
		for _, sys := range []struct {
			top   negotiator.Topology
			plane negotiator.ControlPlaneKind
		}{
			{negotiator.ParallelNetwork, negotiator.NegotiaToRPlane},
			{negotiator.ThinClos, negotiator.NegotiaToRPlane},
			{negotiator.ThinClos, negotiator.ObliviousPlane},
		} {
			r.Cell(func(w io.Writer) error {
				spec := o.baseSpec()
				spec.Topology = sys.top
				spec.ControlPlane = sys.plane
				if deg > spec.ToRs-1 {
					fmt.Fprintf(w, " | %16s", "      n/a")
					return nil
				}
				wl, err := negotiator.IncastWorkload(spec, 3, deg, 1000, inject, 1, 5+o.Seed)
				if err != nil {
					return err
				}
				fab, err := spec.Build()
				if err != nil {
					return err
				}
				fab.SetWorkload(wl)
				fab.Run(sim.Duration(inject) + 2*sim.Millisecond)
				ev := fab.Events()[1]
				if ev.Done < ev.Flows {
					fmt.Fprintf(w, " | %16s", " unfinished")
					return nil
				}
				fmt.Fprintf(w, " | %16s", fmtUs(ev.FinishTime()))
				return nil
			})
		}
		r.Textf("\n")
	}
	return r.Flush(w)
}

// runFig7b reproduces Figure 7(b): each ToR synchronously sends equal-sized
// flows to all other ToRs; average per-ToR goodput during the transmission.
// Each (size, system) run is one cell emitting its row fragment.
func runFig7b(o Options, w io.Writer) error {
	sizesKB := []int64{1, 5, 30, 100, 500}
	if o.Quick {
		sizesKB = []int64{1, 30, 500}
	}
	r := o.runner()
	r.Header("%-9s | %-15s | %-15s | %-15s", "size(KB)",
		"negotiator/par", "negotiator/tc", "oblivious(Gbps)")
	inject := sim.Time(10 * sim.Microsecond)
	for _, kb := range sizesKB {
		r.Textf("%-9d", kb)
		for _, sys := range []struct {
			top   negotiator.Topology
			plane negotiator.ControlPlaneKind
		}{
			{negotiator.ParallelNetwork, negotiator.NegotiaToRPlane},
			{negotiator.ThinClos, negotiator.NegotiaToRPlane},
			{negotiator.ThinClos, negotiator.ObliviousPlane},
		} {
			r.Cell(func(w io.Writer) error {
				spec := o.baseSpec()
				spec.Topology = sys.top
				spec.ControlPlane = sys.plane
				var last sim.Time
				spec.OnDeliver = func(dst int, at sim.Time, n int64) {
					if at > last {
						last = at
					}
				}
				fab, err := spec.Build()
				if err != nil {
					return err
				}
				fab.SetWorkload(negotiator.AllToAllWorkload(spec, kb<<10, inject))
				if !fab.Drain(50_000_000) {
					fmt.Fprintf(w, " | %15s", "  undrained")
					return nil
				}
				sum := fab.Summary()
				makespan := last.Sub(inject)
				gbps := float64(sum.Delivered) * 8 / makespan.Seconds() / 1e9 / float64(spec.ToRs)
				fmt.Fprintf(w, " | %15s", fmt.Sprintf("%10.1f", gbps))
				return nil
			})
		}
		r.Textf("\n")
	}
	return r.Flush(w)
}

// runFig8 reproduces Figure 8: goodput and mice FCT under reconfiguration
// delays of 10-100 ns at 100% load, with the scheduled phase stretched to
// hold the guardband share constant. Each (topology, delay) run is a cell.
func runFig8(o Options, w io.Writer) error {
	d := o.duration()
	delays := []sim.Duration{10, 20, 50, 100}
	if o.Quick {
		delays = []sim.Duration{10, 100}
	}
	r := o.runner()
	for _, top := range []negotiator.Topology{negotiator.ParallelNetwork, negotiator.ThinClos} {
		r.Textf("%s:\n", top)
		r.Header("%-11s | %-12s | %-8s", "reconf (ns)", "99p FCT (ms)", "goodput")
		for _, delay := range delays {
			r.Cell(func(w io.Writer) error {
				spec := o.baseSpec()
				spec.Topology = top
				spec.ReconfigDelay = delay
				// Stretch the scheduled phase to keep guardband share
				// constant (paper: "the length of the scheduled phase is
				// accordingly adjusted").
				spec.ScheduledSlots = int(30 * delay / 10)
				sum, err := run(spec, negotiator.PoissonWorkload(spec, negotiator.Hadoop, 1.0, 7+o.Seed), d)
				if err != nil {
					return err
				}
				fmt.Fprintf(w, "%-11d | %s | %8.3f\n", delay, fmtFCT(sum.Mice99p), sum.GoodputNormalized)
				return nil
			})
		}
		r.Textf("\n")
	}
	return r.Flush(w)
}
