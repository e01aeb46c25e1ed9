package hybrid

import (
	"fmt"
	"testing"

	"negotiator/internal/failure"
	"negotiator/internal/sim"
	"negotiator/internal/workload"
)

// hybridFailurePlan cuts 20% of links for the middle of a short run, long
// enough past recovery that every loss detects, requeues and drains.
func hybridFailurePlan(detect sim.Duration, seed int64) *failure.Plan {
	return failure.Random(16, 4, 0.2,
		sim.Time(10*sim.Microsecond), sim.Time(30*sim.Microsecond), detect, seed)
}

// TestFailureConservation runs the hybrid plane under mid-run link
// failures with per-round invariant checking on (the core runs
// fabric.Core.CheckConservation after every round). Both
// halves lose bytes — mice on the predefined sweep, elephants on their
// negotiated matches — and after recovery everything requeues and drains.
// Run in CI under -race at -cpu 1,2,4.
func TestFailureConservation(t *testing.T) {
	for _, pq := range []bool{false, true} {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("pq=%v/workers=%d", pq, workers), func(t *testing.T) {
				cfg := testConfig(t, 16, 4)
				cfg.PriorityQueues = pq
				cfg.Workers = workers
				cfg.Failures = hybridFailurePlan(2*sim.Microsecond, 9)
				e, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				e.SetWorkload(workload.NewPoisson(workload.Hadoop(), 16, 0.8, cfg.HostRate, 7))
				e.Run(60 * sim.Microsecond)
				e.SetWorkload(nil)
				if !e.Drain(50_000) {
					t.Fatal("fabric did not drain after recovery")
				}
				r := e.Results()
				if r.LostBytes <= 0 {
					t.Error("no bytes destroyed despite 20% links down mid-run")
				}
				if e.Ledger.Lost != 0 {
					t.Errorf("%d bytes still lost after recovery + drain", e.Ledger.Lost)
				}
				if r.Delivered != r.Injected {
					t.Errorf("delivered %d of %d injected", r.Delivered, r.Injected)
				}
				if e.Requeued() != r.LostBytes {
					t.Errorf("requeued %d != destroyed %d after full drain", e.Requeued(), r.LostBytes)
				}
			})
		}
	}
}

// TestFailureDeterminism: loss recording on both the mice sweep and the
// elephant matches must be worker-count invariant.
func TestFailureDeterminism(t *testing.T) {
	fingerprint := func(workers int) string {
		cfg := testConfig(t, 16, 4)
		cfg.CheckInvariants = false
		cfg.Workers = workers
		cfg.Failures = hybridFailurePlan(2*sim.Microsecond, 9)
		e, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		e.SetWorkload(workload.NewPoisson(workload.Hadoop(), 16, 0.8, cfg.HostRate, 7))
		e.Run(60 * sim.Microsecond)
		r := e.Results()
		return fmt.Sprintf("inj=%d del=%d lost=%d match=%v fct99=%v mice=%v cdf=%v",
			r.Injected, r.Delivered, r.LostBytes, r.MatchRatio.Mean(), r.FCT.P(99), r.FCT.MiceMean(), r.FCT.MiceCDF(16))
	}
	want := fingerprint(1)
	for _, workers := range []int{2, 4, 8, 16} {
		if got := fingerprint(workers); got != want {
			t.Fatalf("workers=%d diverges under failures\n got: %s\nwant: %s", workers, got, want)
		}
	}
}

// TestZeroDetectDelayNoLoss: with instant detection the mice gate and the
// elephant match gate both see the true state, so nothing is destroyed.
func TestZeroDetectDelayNoLoss(t *testing.T) {
	cfg := testConfig(t, 16, 4)
	cfg.Failures = hybridFailurePlan(0, 9)
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	e.SetWorkload(workload.NewPoisson(workload.Hadoop(), 16, 0.8, cfg.HostRate, 7))
	e.Run(60 * sim.Microsecond)
	e.SetWorkload(nil)
	if !e.Drain(50_000) {
		t.Fatal("fabric did not drain")
	}
	r := e.Results()
	if r.LostBytes != 0 {
		t.Errorf("instant detection still destroyed %d bytes", r.LostBytes)
	}
	if r.Delivered != r.Injected {
		t.Errorf("delivered %d of %d", r.Delivered, r.Injected)
	}
}

// TestPortGroupScenario: one AWGR dying takes the same port off every
// ToR; the predefined sweep loses exactly the slots mapping to that port
// and the schedulers route elephants around it, yet the run still drains.
func TestPortGroupScenario(t *testing.T) {
	cfg := testConfig(t, 16, 4)
	cfg.Failures = failure.PortGroup(16, 4, 1,
		sim.Time(10*sim.Microsecond), sim.Time(30*sim.Microsecond), 2*sim.Microsecond)
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	e.SetWorkload(workload.NewPoisson(workload.Hadoop(), 16, 0.8, cfg.HostRate, 7))
	e.Run(60 * sim.Microsecond)
	e.SetWorkload(nil)
	if !e.Drain(50_000) {
		t.Fatal("fabric did not drain after the AWGR recovered")
	}
	r := e.Results()
	if r.LostBytes <= 0 {
		t.Error("port-group outage destroyed nothing")
	}
	if r.Delivered != r.Injected {
		t.Errorf("delivered %d of %d after recovery", r.Delivered, r.Injected)
	}
}
