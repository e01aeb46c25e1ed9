package exp

import (
	"fmt"
	"io"

	negotiator "negotiator"
	"negotiator/internal/metrics"
	"negotiator/internal/sim"
)

func init() {
	register(Experiment{ID: "fig9", Title: "Figure 9: mice FCT and goodput at various loads (main result)", Run: runFig9})
	register(Experiment{ID: "fig10", Title: "Figure 10: bandwidth usage across link failure and recovery", Run: runFig10})
	register(Experiment{ID: "fig11", Title: "Figure 11: FCT and goodput at various loads with no speedup", Run: runFig11})
}

// mainResultSystems is the system matrix of Figures 9/11/13: NegotiaToR on
// both topologies and the traffic-oblivious baseline on thin-clos, each
// with and without priority queues.
type system struct {
	name  string
	top   negotiator.Topology
	plane negotiator.ControlPlaneKind
	pq    bool
}

func mainResultSystems() []system {
	return []system{
		{"negotiator/parallel", negotiator.ParallelNetwork, negotiator.NegotiaToRPlane, true},
		{"negotiator/parallel w/o PQ", negotiator.ParallelNetwork, negotiator.NegotiaToRPlane, false},
		{"negotiator/thin-clos", negotiator.ThinClos, negotiator.NegotiaToRPlane, true},
		{"negotiator/thin-clos w/o PQ", negotiator.ThinClos, negotiator.NegotiaToRPlane, false},
		{"oblivious/thin-clos", negotiator.ThinClos, negotiator.ObliviousPlane, true},
		{"oblivious/thin-clos w/o PQ", negotiator.ThinClos, negotiator.ObliviousPlane, false},
	}
}

// runLoadSweep renders the FCT/goodput-vs-load matrix shared by Figures 9,
// 11 and 13(b)/(c). Every (system, load) point is an independent cell.
func runLoadSweep(o Options, w io.Writer, trace negotiator.Trace, mutate func(*negotiator.Spec)) error {
	d := o.duration()
	systems := mainResultSystems()
	if o.Quick {
		systems = []system{systems[0], systems[2], systems[4]}
	}
	r := o.runner()
	for _, sys := range systems {
		r.Textf("%s:\n", sys.name)
		r.Header("%-8s | %-12s | %-8s", "load(%)", "99p FCT (ms)", "goodput")
		for _, load := range o.loads() {
			r.Cell(func(w io.Writer) error {
				spec := o.baseSpec()
				spec.Topology = sys.top
				spec.ControlPlane = sys.plane
				spec.PriorityQueues = sys.pq
				if mutate != nil {
					mutate(&spec)
				}
				sum, err := run(spec, negotiator.PoissonWorkload(spec, trace, load, 7+o.Seed), d)
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

func runFig9(o Options, w io.Writer) error {
	return runLoadSweep(o, w, negotiator.Hadoop, nil)
}

// runFig11 removes the 2x speedup: uplink aggregate equals the host
// aggregate (50 Gbps per port at paper scale).
func runFig11(o Options, w io.Writer) error {
	return runLoadSweep(o, w, negotiator.Hadoop, func(s *negotiator.Spec) {
		s.LinkRate = sim.Rate(int64(s.HostRate) / int64(s.Ports))
	})
}

// runFig10 reproduces Figure 10: simultaneous link failures at ratios
// 2-10%, recovered mid-run; the table reports BWpost-failure/BWpre-failure
// and BWpre-recovery/BWpost-recovery under a saturating workload on the
// parallel network. Each failure ratio is one cell.
func runFig10(o Options, w io.Writer) error {
	ratios := []float64{0.02, 0.04, 0.06, 0.08, 0.10}
	if o.Quick {
		ratios = []float64{0.02, 0.10}
	}
	r := o.runner()
	r.Header("%-12s | %-22s | %-22s", "failure(%)",
		"BWpost_fail/BWpre_fail", "BWpre_recov/BWpost_recov")
	for _, ratio := range ratios {
		r.Cell(func(w io.Writer) error {
			spec := o.baseSpec()
			spec.Topology = negotiator.ParallelNetwork
			epoch := negotiatorEpoch(spec)
			// Timeline: warm up, fail, hold, recover, hold.
			failAt := sim.Time(400 * epoch)
			recoverAt := sim.Time(800 * epoch)
			endAt := sim.Duration(1200 * epoch)
			series := metrics.NewTimeSeries(10 * epoch)
			spec.OnDeliver = func(dst int, at sim.Time, n int64) { series.Add(at, n) }
			spec.Failures = &negotiator.FailurePlan{
				Fraction: ratio,
				FailAt:   failAt, RecoverAt: recoverAt,
				Seed: 11 + o.Seed,
			}
			fab, err := spec.Build()
			if err != nil {
				return err
			}
			// Saturating uniform traffic so bandwidth usage tracks capacity.
			fab.SetWorkload(negotiator.FixedSizeWorkload(spec, 1<<20, 1.2, 13+o.Seed))
			fab.Run(endAt)
			// Windows avoid the detection transients.
			preFail := series.MeanGbpsBetween(sim.Time(200*epoch), failAt)
			postFail := series.MeanGbpsBetween(sim.Time(500*epoch), recoverAt)
			postRecov := series.MeanGbpsBetween(sim.Time(1000*epoch), sim.Time(endAt))
			fmt.Fprintf(w, "%-12.0f | %22.3f | %22.3f\n",
				ratio*100, postFail/preFail, preFail/postRecov)
			return nil
		})
	}
	return r.Flush(w)
}

// negotiatorEpoch computes the spec's epoch length without building a
// fabric.
func negotiatorEpoch(spec negotiator.Spec) sim.Duration {
	fab, err := spec.Build()
	if err != nil {
		return 3660
	}
	return fab.Summary().EpochLen
}
