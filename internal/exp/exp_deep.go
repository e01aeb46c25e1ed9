package exp

import (
	"fmt"
	"io"

	negotiator "negotiator"
	"negotiator/internal/sim"
)

func init() {
	register(Experiment{ID: "fig12a", Title: "Figure 12(a): sensitivity of predefined-phase timeslot duration", Run: runFig12a})
	register(Experiment{ID: "fig12b", Title: "Figure 12(b): sensitivity of scheduled-phase length", Run: runFig12b})
	register(Experiment{ID: "fig13a", Title: "Figure 13(a): Hadoop mixed with incasts", Run: runFig13a})
	register(Experiment{ID: "fig13b", Title: "Figure 13(b): web search workload", Run: runFig13b})
	register(Experiment{ID: "fig13c", Title: "Figure 13(c): Google datacenter workload", Run: runFig13c})
	register(Experiment{ID: "fig14", Title: "Figure 14 (A.1): match ratio vs theory", Run: runFig14})
}

// runFig12a sweeps the predefined-phase timeslot duration (guardband
// included) from 20 to 120 ns on the parallel network, reporting mice 99p
// FCT per load. Each (load, slot) run is one cell emitting its fragment.
func runFig12a(o Options, w io.Writer) error {
	d := o.duration()
	slots := []sim.Duration{20, 30, 60, 90, 120}
	if o.Quick {
		slots = []sim.Duration{20, 60, 120}
	}
	loads := o.loads()
	head := fmt.Sprintf("%-8s", "load(%)")
	for _, st := range slots {
		head += fmt.Sprintf(" | %4dns 99p(µs)", st)
	}
	r := o.runner()
	r.Header("%s", head)
	for _, load := range loads {
		r.Textf("%-8.0f", load*100)
		for _, st := range slots {
			r.Cell(func(w io.Writer) error {
				spec := o.baseSpec()
				spec.Topology = negotiator.ParallelNetwork
				spec.PredefinedSlotTime = st
				sum, err := run(spec, negotiator.PoissonWorkload(spec, negotiator.Hadoop, load, 7+o.Seed), d)
				if err != nil {
					return err
				}
				fmt.Fprintf(w, " | %15.1f", sum.Mice99p.Micros())
				return nil
			})
		}
		r.Textf("\n")
	}
	return r.Flush(w)
}

// runFig12b sweeps the scheduled-phase length from 10 to 500 timeslots on
// the parallel network, reporting mice 99p FCT and goodput per load.
func runFig12b(o Options, w io.Writer) error {
	d := o.duration()
	lengths := []int{10, 30, 50, 100, 500}
	if o.Quick {
		lengths = []int{10, 30, 500}
	}
	r := o.runner()
	for _, n := range lengths {
		r.Textf("scheduled phase = %d timeslots:\n", n)
		r.Header("%-8s | %-12s | %-8s", "load(%)", "99p FCT (ms)", "goodput")
		for _, load := range o.loads() {
			r.Cell(func(w io.Writer) error {
				spec := o.baseSpec()
				spec.Topology = negotiator.ParallelNetwork
				spec.ScheduledSlots = n
				sum, err := run(spec, negotiator.PoissonWorkload(spec, negotiator.Hadoop, load, 7+o.Seed), d)
				if err != nil {
					return err
				}
				fmt.Fprintf(w, "%-8.0f | %s | %8.3f\n", load*100, fmtFCT(sum.Mice99p), sum.GoodputNormalized)
				return nil
			})
		}
		r.Textf("\n")
	}
	return r.Flush(w)
}

// runFig13a mixes degree-20 1 KB incasts consuming 2% of aggregate downlink
// bandwidth into the Hadoop background (paper §4.4): background mice FCT,
// average incast finish time, and overall goodput per system and load.
func runFig13a(o Options, w io.Writer) error {
	d := o.duration()
	systems := mainResultSystems()
	if o.Quick {
		systems = []system{systems[0], systems[2], systems[4]}
	}
	r := o.runner()
	for _, sys := range systems {
		r.Textf("%s:\n", sys.name)
		r.Header("%-8s | %-12s | %-16s | %-8s", "load(%)", "bg 99p (ms)", "incast avg (ms)", "goodput")
		for _, load := range o.loads() {
			r.Cell(func(w io.Writer) error {
				spec := o.baseSpec()
				spec.Topology = sys.top
				spec.ControlPlane = sys.plane
				spec.PriorityQueues = sys.pq
				degree := 20
				if degree > spec.ToRs-1 {
					degree = spec.ToRs - 1
				}
				fab, err := spec.Build()
				if err != nil {
					return err
				}
				fab.SetWorkload(negotiator.MixedIncastWorkload(spec, negotiator.Hadoop, load, degree, 1000, 0.02, 1, 7+o.Seed))
				fab.Run(d)
				sum := fab.Summary()
				var total sim.Duration
				var done int
				for _, ev := range fab.Events() {
					if ft := ev.FinishTime(); ft > 0 {
						total += ft
						done++
					}
				}
				avg := sim.Duration(0)
				if done > 0 {
					avg = total / sim.Duration(done)
				}
				fmt.Fprintf(w, "%-8.0f | %s | %16.4f | %8.3f\n",
					load*100, fmtFCT(sum.Mice99p), avg.Millis(), sum.GoodputNormalized)
				return nil
			})
		}
		r.Textf("\n")
	}
	return r.Flush(w)
}

func runFig13b(o Options, w io.Writer) error {
	return runLoadSweep(o, w, negotiator.WebSearch, nil)
}

func runFig13c(o Options, w io.Writer) error {
	return runLoadSweep(o, w, negotiator.Google, nil)
}

// runFig14 reproduces Appendix A.1: the per-epoch accept/grant match ratio
// at 100% load on both topologies, against the theoretical 1-(1-1/n)^n.
// Each topology is one cell.
func runFig14(o Options, w io.Writer) error {
	d := o.duration()
	r := o.runner()
	for _, top := range []negotiator.Topology{negotiator.ParallelNetwork, negotiator.ThinClos} {
		r.Cell(func(w io.Writer) error {
			spec := o.baseSpec()
			spec.Topology = top
			// Theory: n = number of competitors per grant ring (N for
			// parallel, W for thin-clos).
			n := spec.ToRs
			if top == negotiator.ThinClos {
				n = spec.AWGRPorts
			}
			theory := theoreticalMatchRatio(n)
			fab, err := spec.Build()
			if err != nil {
				return err
			}
			fab.SetWorkload(negotiator.PoissonWorkload(spec, negotiator.Hadoop, 1.0, 7+o.Seed))
			fab.Run(d)
			series := fab.MatchRatioSeries()
			sum := fab.Summary()
			fmt.Fprintf(w, "%s: theory E[Y]=%.3f measured mean=%.3f\n", top, theory, sum.MatchRatio)
			header(w, "%-10s | %-10s", "time (ms)", "ratio")
			step := len(series) / 10
			if step == 0 {
				step = 1
			}
			for i := step; i < len(series); i += step {
				t := sim.Duration(int64(i) * int64(sum.EpochLen))
				fmt.Fprintf(w, "%10.2f | %10.3f\n", t.Millis(), series[i])
			}
			fmt.Fprintln(w)
			return nil
		})
	}
	return r.Flush(w)
}

// theoreticalMatchRatio is 1-(1-1/n)^n (paper §3.2.2).
func theoreticalMatchRatio(n int) float64 {
	p := 1.0
	base := 1 - 1/float64(n)
	for i := 0; i < n; i++ {
		p *= base
	}
	return 1 - p
}
