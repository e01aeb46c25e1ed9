package exp

import (
	"fmt"
	"io"
	"time"

	negotiator "negotiator"
	"negotiator/internal/par"
)

func init() {
	register(Experiment{
		ID:        "scale-sweep",
		Title:     "Extension: fabric-size scaling with intra-run ToR shards (256/512 ToRs)",
		Run:       runScaleSweep,
		WallClock: true, // the epochs/s column is wall-clock-derived
	})
}

// runScaleSweep pushes the fabric beyond the paper's 128 ToRs — the sizes
// the sequential engines made wall-clock-prohibitive — using the sharded
// epoch execution (Spec.Workers): each run splits its ToRs into
// worker-owned shards with barrier-synchronized phases, so one large
// simulation can use every core while producing results identical to a
// sequential run. The table reports, per size and system, the headline
// metrics plus the wall-clock epoch throughput. Unlike every other
// experiment, the cells run sequentially regardless of -parallel: each
// cell times itself, and concurrent wall-clock-timed cells would contend
// for the cores the shard gang is supposed to use, understating and
// noising the epochs/s column.
func runScaleSweep(o Options, w io.Writer) error {
	workers := o.Workers
	if workers <= 0 {
		// This experiment exists to exercise intra-run sharding: default to
		// all cores rather than Options' usual sequential default.
		workers = par.Effective(0)
	}
	sizes := []int{128, 256, 512}
	if o.Quick {
		sizes = []int{64, 128, 256}
	}
	d := o.Duration
	if d == 0 {
		d = 2 * negotiator.Millisecond // 512 ToRs at 6ms would dominate '-exp all'
	}
	const load = 0.5

	r := NewRunner(1) // sequential cells: each times its own epoch throughput
	r.Textf("intra-run workers: %d (ToR shards per simulation; results are identical at any value)\n", workers)
	r.Header("%-6s | %-22s | %-7s | %-12s | %-8s | %-10s | %-10s", "ToRs",
		"system", "flows", "99p FCT (ms)", "goodput", "epochs", "epochs/s")
	for _, size := range sizes {
		for _, sys := range []struct {
			name  string
			plane negotiator.ControlPlaneKind
		}{
			{"negotiator/parallel", negotiator.NegotiaToRPlane},
			{"oblivious/thin-clos", negotiator.ObliviousPlane},
		} {
			r.Cell(func(w io.Writer) error {
				spec := o.sizedSpec(size)
				spec.Workers = workers
				spec.ControlPlane = sys.plane
				if sys.plane == negotiator.ObliviousPlane {
					spec.Topology = negotiator.ThinClos
				}
				fab, err := spec.Build()
				if err != nil {
					return err
				}
				fab.SetWorkload(negotiator.PoissonWorkload(spec, negotiator.Hadoop, load, 7+o.Seed))
				start := time.Now()
				fab.Run(d)
				wall := time.Since(start)
				sum := fab.Summary()
				perSec := float64(sum.Epochs) / wall.Seconds()
				fmt.Fprintf(w, "%-6d | %-22s | %7d | %s | %8.3f | %10d | %10.0f\n",
					size, sys.name, sum.Flows, fmtFCT(sum.Mice99p), sum.GoodputNormalized,
					sum.Epochs, perSec)
				return nil
			})
		}
	}
	r.Textf("(epochs = scheduling rounds: NegotiaToR epochs, baseline round-robin cycles; %v simulated at %.0f%% load)\n", d, load*100)
	return r.Flush(w)
}
