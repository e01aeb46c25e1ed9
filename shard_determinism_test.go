package negotiator_test

import (
	"fmt"
	"testing"

	negotiator "negotiator"
)

// allSchedulers is every scheduling policy the facade exposes.
var allSchedulers = []negotiator.Scheduler{
	negotiator.Matching,
	negotiator.Iterative1,
	negotiator.Iterative3,
	negotiator.Iterative5,
	negotiator.DataSizePriority,
	negotiator.HoLDelayPriority,
	negotiator.Stateful,
	negotiator.ProjecToRStyle,
	negotiator.PIMStyle,
	negotiator.ISLIPStyle,
}

// shardRun builds the spec's fabric with the given worker count, runs it
// for a fixed number of epochs, and renders Summary and MiceCDF into one
// comparable string.
func shardRun(t *testing.T, spec negotiator.Spec, workers, epochs int, load float64) string {
	t.Helper()
	spec.Workers = workers
	fab, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	fab.SetWorkload(negotiator.PoissonWorkload(spec, negotiator.Hadoop, load, spec.Seed+6))
	fab.RunEpochs(epochs)
	return fmt.Sprintf("%+v | cdf=%v", fab.Summary(), fab.MiceCDF(24))
}

// TestShardDeterminism is the facade-level determinism contract: the
// sharded epoch execution must produce byte-identical Summary and MiceCDF
// at every worker count, for every scheduler variant, both topologies,
// and the traffic-oblivious baseline. CI runs this under -race with
// -cpu 1,2,4.
func TestShardDeterminism(t *testing.T) {
	type variant struct {
		name string
		spec negotiator.Spec
	}
	var variants []variant
	for _, sched := range allSchedulers {
		for _, top := range []negotiator.Topology{negotiator.ParallelNetwork, negotiator.ThinClos} {
			spec := negotiator.SmallSpec()
			spec.Scheduler = sched
			spec.Topology = top
			variants = append(variants, variant{fmt.Sprintf("%v/%v", sched, top), spec})
		}
	}
	obl := negotiator.SmallSpec()
	obl.ControlPlane = negotiator.ObliviousPlane
	obl.Topology = negotiator.ThinClos
	variants = append(variants, variant{"oblivious/thin-clos", obl})
	for _, top := range []negotiator.Topology{negotiator.ParallelNetwork, negotiator.ThinClos} {
		hyb := negotiator.SmallSpec()
		hyb.ControlPlane = negotiator.HybridPlane
		hyb.Topology = top
		variants = append(variants, variant{fmt.Sprintf("hybrid/%v", top), hyb})
	}

	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			epochs := 300
			if testing.Short() {
				epochs = 120
			}
			want := shardRun(t, v.spec, 1, epochs, 0.7)
			for _, workers := range []int{2, 4, 8} {
				if got := shardRun(t, v.spec, workers, epochs, 0.7); got != want {
					t.Fatalf("workers=%d diverges from sequential\n got: %.400s\nwant: %.400s", workers, got, want)
				}
			}
		})
	}
}

// TestShardDeterminismLargeFabric repeats the contract at 256 ToRs — the
// scale the sharded execution exists for — on a scheduler subset.
func TestShardDeterminismLargeFabric(t *testing.T) {
	if testing.Short() {
		t.Skip("256-ToR fabrics in -short mode")
	}
	base := negotiator.DefaultSpec()
	base.ToRs, base.Ports, base.AWGRPorts = 256, 16, 16
	base.HostRate = negotiator.Gbps(800)
	for _, sched := range []negotiator.Scheduler{negotiator.Matching, negotiator.Stateful, negotiator.Iterative3} {
		spec := base
		spec.Scheduler = sched
		t.Run(sched.String(), func(t *testing.T) {
			want := shardRun(t, spec, 1, 50, 0.6)
			for _, workers := range []int{2, 4, 8} {
				if got := shardRun(t, spec, workers, 50, 0.6); got != want {
					t.Fatalf("workers=%d diverges at 256 ToRs\n got: %.400s\nwant: %.400s", workers, got, want)
				}
			}
		})
	}
	t.Run("oblivious", func(t *testing.T) {
		spec := base
		spec.ControlPlane = negotiator.ObliviousPlane
		spec.Topology = negotiator.ThinClos
		want := shardRun(t, spec, 1, 12, 0.6)
		for _, workers := range []int{2, 4, 8} {
			if got := shardRun(t, spec, workers, 12, 0.6); got != want {
				t.Fatalf("workers=%d diverges at 256 ToRs\n got: %.400s\nwant: %.400s", workers, got, want)
			}
		}
	})
}

// TestSummaryEpochsAndRunEpochs: the facade surfaces the scheduling-round
// count, and RunEpochs steps exactly whole rounds on every plane.
func TestSummaryEpochsAndRunEpochs(t *testing.T) {
	for _, plane := range negotiator.ControlPlanes() {
		spec := negotiator.SmallSpec()
		spec.ControlPlane = plane
		fab, err := spec.Build()
		if err != nil {
			t.Fatal(err)
		}
		fab.RunEpochs(37)
		sum := fab.Summary()
		if sum.Epochs != 37 {
			t.Errorf("%v: Epochs = %d after RunEpochs(37)", plane, sum.Epochs)
		}
		if want := 37 * int64(sum.EpochLen); int64(sum.Duration) != want {
			t.Errorf("%v: duration %v, want %d epoch lengths", plane, sum.Duration, want)
		}
	}
}

// TestSummaryLostBytes: failure injection surfaces cumulative destroyed
// bytes through the facade.
func TestSummaryLostBytes(t *testing.T) {
	spec := negotiator.SmallSpec()
	epoch := int64(200) // well past failure onset at default timing
	spec.Failures = &negotiator.FailurePlan{
		Fraction:  0.25,
		FailAt:    0,
		RecoverAt: negotiator.Time(1 * negotiator.Millisecond),
		Seed:      3,
	}
	fab, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	fab.SetWorkload(negotiator.PoissonWorkload(spec, negotiator.Hadoop, 0.8, 7))
	fab.RunEpochs(int(epoch))
	if got := fab.Summary().LostBytes; got <= 0 {
		t.Errorf("LostBytes = %d under 25%% link failures, want > 0", got)
	}
	// No failures: must be zero.
	clean := negotiator.SmallSpec()
	fab2, _ := clean.Build()
	fab2.SetWorkload(negotiator.PoissonWorkload(clean, negotiator.Hadoop, 0.8, 7))
	fab2.RunEpochs(100)
	if got := fab2.Summary().LostBytes; got != 0 {
		t.Errorf("LostBytes = %d without failures", got)
	}
}
