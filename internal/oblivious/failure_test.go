package oblivious

import (
	"fmt"
	"testing"

	"negotiator/internal/failure"
	"negotiator/internal/sim"
	"negotiator/internal/workload"
)

// failurePlan cuts 20% of links for the middle of a short run: long
// enough past recovery that every loss detects, requeues and drains.
func failurePlan(detect sim.Duration, seed int64) *failure.Plan {
	return failure.Random(16, 4, 0.2,
		sim.Time(10*sim.Microsecond), sim.Time(30*sim.Microsecond), detect, seed)
}

// TestFailureConservation runs every service discipline under mid-run
// link failures with per-round invariant checking on (the core runs
// fabric.Core.CheckConservation after every slot: destroyed bytes
// reconcile against ledger, outstanding records and the cumulative
// requeue counter). After recovery and drain, every
// injected byte must be delivered — losses requeue, nothing leaks. Run in
// CI under -race at -cpu 1,2,4.
func TestFailureConservation(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Config)
	}{
		{"sirius-lanes", func(c *Config) {}},
		{"opportunistic", func(c *Config) { c.OpportunisticDirect = true }},
	}
	for _, c := range cases {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/workers=%d", c.name, workers), func(t *testing.T) {
				cfg := testConfig(t)
				cfg.Workers = workers
				cfg.Failures = failurePlan(2*sim.Microsecond, 9)
				c.mut(&cfg)
				e, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				e.SetWorkload(workload.NewPoisson(workload.Hadoop(), 16, 0.7, cfg.HostRate, 7))
				e.Run(60 * sim.Microsecond)
				e.SetWorkload(nil)
				if !e.Drain(200_000) {
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

// TestFailureDeterminism: failure injection, loss recording and requeue
// must be worker-count invariant — the full results fingerprint at
// workers 2..16 matches the sequential run byte for byte.
func TestFailureDeterminism(t *testing.T) {
	fingerprint := func(workers int) string {
		cfg := testConfig(t)
		cfg.CheckInvariants = false
		cfg.Workers = workers
		cfg.Failures = failurePlan(2*sim.Microsecond, 9)
		var relayed int64
		countTransit(&cfg, &relayed)
		e, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		e.SetWorkload(workload.NewPoisson(workload.Hadoop(), 16, 0.8, cfg.HostRate, 7))
		e.Run(60 * sim.Microsecond)
		r := e.Results()
		return fmt.Sprintf("inj=%d del=%d lost=%d relayed=%d fct99=%v mice=%v cdf=%v",
			r.Injected, r.Delivered, r.LostBytes, relayed, r.FCT.P(99), r.FCT.MiceMean(), r.FCT.MiceCDF(16))
	}
	want := fingerprint(1)
	for _, workers := range []int{2, 4, 8, 16} {
		if got := fingerprint(workers); got != want {
			t.Fatalf("workers=%d diverges under failures\n got: %s\nwant: %s", workers, got, want)
		}
	}
}

// TestZeroDetectDelayNoLoss: with instant detection the known state never
// lags the actual state, so the spray/lane/relay gates exclude every
// failed link before any byte is destroyed.
func TestZeroDetectDelayNoLoss(t *testing.T) {
	cfg := testConfig(t)
	cfg.Failures = failurePlan(0, 9)
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	e.SetWorkload(workload.NewPoisson(workload.Hadoop(), 16, 0.7, cfg.HostRate, 7))
	e.Run(60 * sim.Microsecond)
	e.SetWorkload(nil)
	if !e.Drain(200_000) {
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

// TestToRDownScenario: powering one ToR down severs both its directions;
// the dark interval destroys bytes addressed to (and sprayed through) it,
// and after restart everything still drains to completion.
func TestToRDownScenario(t *testing.T) {
	cfg := testConfig(t)
	cfg.Failures = failure.ToRDown(16, 4, 5,
		sim.Time(10*sim.Microsecond), sim.Time(30*sim.Microsecond), 2*sim.Microsecond)
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	e.SetWorkload(workload.NewPoisson(workload.Hadoop(), 16, 0.7, cfg.HostRate, 7))
	e.Run(60 * sim.Microsecond)
	e.SetWorkload(nil)
	if !e.Drain(200_000) {
		t.Fatal("fabric did not drain after the ToR restarted")
	}
	r := e.Results()
	if r.LostBytes <= 0 {
		t.Error("whole-ToR outage destroyed nothing")
	}
	if r.Delivered != r.Injected {
		t.Errorf("delivered %d of %d after restart", r.Delivered, r.Injected)
	}
}
