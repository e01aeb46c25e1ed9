package negotiator

import (
	"testing"

	"negotiator/internal/failure"
	"negotiator/internal/match"
	"negotiator/internal/metrics"
	"negotiator/internal/sim"
	"negotiator/internal/topo"
	"negotiator/internal/workload"
)

func testTopo(t *testing.T, kind string) topo.Topology {
	t.Helper()
	switch kind {
	case "parallel":
		p, err := topo.NewParallel(16, 4)
		if err != nil {
			t.Fatal(err)
		}
		return p
	case "thinclos":
		tc, err := topo.NewThinClos(16, 4, 4)
		if err != nil {
			t.Fatal(err)
		}
		return tc
	}
	t.Fatalf("unknown topo %q", kind)
	return nil
}

func testConfig(t *testing.T, kind string) Config {
	return Config{
		Topology:        testTopo(t, kind),
		HostRate:        sim.Gbps(200), // 4 ports x 100G = 2x speedup
		Piggyback:       true,
		PriorityQueues:  true,
		Seed:            1,
		CheckInvariants: true,
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("nil topology accepted")
	}
	cfg := testConfig(t, "parallel")
	cfg.Relay = &RelayConfig{}
	if _, err := New(cfg); err == nil {
		t.Error("relay on parallel network accepted (thin-clos only)")
	}
}

func TestSingleFlowPiggybackOnly(t *testing.T) {
	// A flow smaller than the request threshold completes purely via
	// piggybacking, bypassing the scheduling delay (§3.4.1).
	for _, kind := range []string{"parallel", "thinclos"} {
		t.Run(kind, func(t *testing.T) {
			e, err := New(testConfig(t, kind))
			if err != nil {
				t.Fatal(err)
			}
			// 1000 B < threshold 3*595: never requested, sent as 595+405.
			e.SetWorkload(workload.NewSinglePair(2, 9, 1000, 0))
			e.Run(10 * e.epochLn)
			r := e.Results()
			if r.FCT.Count() != 1 {
				t.Fatalf("completed flows = %d, want 1", r.FCT.Count())
			}
			fct := r.FCT.MiceP(100)
			// Two piggyback opportunities: done within 2 epochs + prop.
			max := 2*e.epochLn + 2*sim.Microsecond
			if fct > max {
				t.Errorf("piggyback-only FCT = %v, want <= %v", fct, max)
			}
			if r.Delivered != 1000 {
				t.Errorf("delivered = %d, want 1000", r.Delivered)
			}
		})
	}
}

func TestScheduledPathTiming(t *testing.T) {
	// A large flow must wait the ~2-epoch scheduling delay before bulk
	// transmission (paper §3.3.2): nothing beyond piggybacks moves in
	// epochs 0-1, bulk moves from epoch 2.
	e, err := New(testConfig(t, "parallel"))
	if err != nil {
		t.Fatal(err)
	}
	const size = 1 << 20
	e.SetWorkload(workload.NewSinglePair(0, 5, size, 0))
	piggy := e.timing.PiggybackBytes()
	e.RunEpochs(2)
	r := e.Results()
	if r.Delivered > 2*piggy {
		t.Fatalf("delivered %d bytes before scheduling delay elapsed, want <= %d", r.Delivered, 2*piggy)
	}
	e.RunEpochs(1)
	r = e.Results()
	wantBulk := int64(e.timing.ScheduledSlots) * e.timing.DataPayloadBytes()
	if r.Delivered < wantBulk {
		t.Fatalf("after epoch 2: delivered %d, want >= one port-epoch %d", r.Delivered, wantBulk)
	}
}

func TestElephantUsesMultiplePortsOnParallel(t *testing.T) {
	// On the parallel network a single backlogged pair can be granted
	// several ports of the destination at once.
	e, err := New(testConfig(t, "parallel"))
	if err != nil {
		t.Fatal(err)
	}
	e.SetWorkload(workload.NewSinglePair(0, 5, 8<<20, 0))
	e.RunEpochs(4)
	perPort := int64(e.timing.ScheduledSlots) * e.timing.DataPayloadBytes()
	r := e.Results()
	// With 4 ports and one competitor-free pair, epoch 2 and 3 should each
	// move ~4 port-epochs of data.
	if r.Delivered < 4*perPort {
		t.Errorf("delivered %d, want >= %d (multi-port grants)", r.Delivered, 4*perPort)
	}
}

func TestThinClosSinglePathLimitsPair(t *testing.T) {
	// On thin-clos one pair has exactly one port-to-port path, so a
	// backlogged pair moves at most one port-epoch per epoch.
	e, err := New(testConfig(t, "thinclos"))
	if err != nil {
		t.Fatal(err)
	}
	e.SetWorkload(workload.NewSinglePair(0, 5, 8<<20, 0))
	e.RunEpochs(4)
	perPort := int64(e.timing.ScheduledSlots) * e.timing.DataPayloadBytes()
	piggy := e.timing.PiggybackBytes()
	r := e.Results()
	maxPossible := 2*perPort + 4*piggy // epochs 2,3 scheduled + all piggybacks
	if r.Delivered > maxPossible {
		t.Errorf("delivered %d, want <= %d (single path)", r.Delivered, maxPossible)
	}
}

func TestConservationUnderLoad(t *testing.T) {
	// CheckInvariants panics on conservation or conflict violations; this
	// test passes if a loaded run completes.
	for _, kind := range []string{"parallel", "thinclos"} {
		cfg := testConfig(t, kind)
		e, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		e.SetWorkload(workload.NewPoisson(workload.Hadoop(), 16, 1.0, cfg.HostRate, 7))
		e.Run(300 * sim.Microsecond)
		r := e.Results()
		if r.FCT.Count() == 0 {
			t.Errorf("%s: no flows completed", kind)
		}
		if r.Delivered <= 0 || r.Delivered > r.Injected {
			t.Errorf("%s: delivered %d of %d injected", kind, r.Delivered, r.Injected)
		}
	}
}

func TestDrain(t *testing.T) {
	cfg := testConfig(t, "parallel")
	e, _ := New(cfg)
	e.SetWorkload(workload.NewAllToAll(16, 50<<10, 0))
	e.Run(100 * sim.Microsecond)
	if !e.Drain(100000) {
		t.Fatal("all-to-all failed to drain")
	}
	r := e.Results()
	if r.Delivered != r.Injected {
		t.Errorf("drained but delivered %d != injected %d", r.Delivered, r.Injected)
	}
	if r.FCT.Count() != 16*15 {
		t.Errorf("completed %d flows, want 240", r.FCT.Count())
	}
}

func TestIncastBypassFlat(t *testing.T) {
	// Incast finish time should be roughly flat in degree (paper Fig. 7a):
	// the predefined phase serves all sources of one destination in
	// parallel.
	finish := func(degree int) sim.Duration {
		cfg := testConfig(t, "parallel")
		e, _ := New(cfg)
		inc, err := workload.NewIncast(16, 3, degree, 1000, sim.Time(10*sim.Microsecond), 1, 5)
		if err != nil {
			t.Fatal(err)
		}
		e.SetWorkload(inc)
		e.Run(200 * sim.Microsecond)
		ts := e.Results().Tags[1]
		if ts == nil || ts.Done != degree {
			t.Fatalf("degree %d: incast incomplete: %+v", degree, ts)
		}
		return ts.End.Sub(ts.Start)
	}
	f2, f14 := finish(2), finish(14)
	if f14 > 2*f2+sim.Duration(2*e2e(t)) {
		t.Errorf("incast finish grows with degree: %v (2) vs %v (14)", f2, f14)
	}
}

func e2e(t *testing.T) sim.Duration {
	return DefaultTiming().EpochLen(testTopo(t, "parallel").PredefinedSlots())
}

func TestTagTracking(t *testing.T) {
	cfg := testConfig(t, "parallel")
	e, _ := New(cfg)
	inc, _ := workload.NewIncast(16, 0, 5, 800, 1000, 42, 3)
	e.SetWorkload(inc)
	e.Run(50 * sim.Microsecond)
	ts := e.Results().Tags[42]
	if ts == nil {
		t.Fatal("tag not tracked")
	}
	if ts.Flows != 5 || ts.Done != 5 {
		t.Errorf("tag stats: %+v", ts)
	}
	if ts.Start != 1000 || ts.End <= ts.Start {
		t.Errorf("tag window: %+v", ts)
	}
}

func TestMatchRatioUnderSaturation(t *testing.T) {
	// Appendix A.1: the per-epoch accept/grant ratio at heavy load sits
	// near 1-(1-1/n)^n.
	cfg := testConfig(t, "parallel")
	e, _ := New(cfg)
	e.SetWorkload(workload.NewAllToAll(16, 1<<20, 0))
	e.Run(500 * sim.Microsecond)
	ratio := e.Results().MatchRatio.Mean()
	if ratio < 0.5 || ratio > 0.85 {
		t.Errorf("match ratio = %.3f, want ~0.63", ratio)
	}
}

func TestPriorityQueuesImproveMiceFCT(t *testing.T) {
	run := func(pq bool) sim.Duration {
		cfg := testConfig(t, "parallel")
		cfg.PriorityQueues = pq
		e, _ := New(cfg)
		e.SetWorkload(workload.NewPoisson(workload.Hadoop(), 16, 1.0, cfg.HostRate, 11))
		e.Run(2 * sim.Millisecond)
		return e.Results().FCT.MiceP(99)
	}
	withPQ, withoutPQ := run(true), run(false)
	if withPQ > withoutPQ {
		t.Errorf("PQ made mice 99p FCT worse: %v vs %v", withPQ, withoutPQ)
	}
}

func TestPiggybackImprovesMiceFCT(t *testing.T) {
	run := func(pb bool) sim.Duration {
		cfg := testConfig(t, "parallel")
		cfg.Piggyback = pb
		cfg.PriorityQueues = false
		e, _ := New(cfg)
		e.SetWorkload(workload.NewPoisson(workload.Hadoop(), 16, 0.9, cfg.HostRate, 13))
		e.Run(2 * sim.Millisecond)
		return e.Results().FCT.MiceMean()
	}
	withPB, withoutPB := run(true), run(false)
	if withPB >= withoutPB {
		t.Errorf("piggybacking made mice mean FCT worse: %v vs %v", withPB, withoutPB)
	}
}

func TestMatcherVariantsRun(t *testing.T) {
	// Every variant completes a loaded run with invariants on.
	factories := map[string]func(tp topo.Topology, tm Timing, rng *sim.RNG) match.Matcher{
		"stateful": func(tp topo.Topology, tm Timing, rng *sim.RNG) match.Matcher {
			return match.NewStateful(tp, rng, tm.EpochPortBytes())
		},
		"datasize": func(tp topo.Topology, tm Timing, rng *sim.RNG) match.Matcher {
			return match.NewDataSize(tp, rng)
		},
		"holdelay": func(tp topo.Topology, tm Timing, rng *sim.RNG) match.Matcher {
			return match.NewHoLDelay(tp, rng)
		},
		"projector": func(tp topo.Topology, tm Timing, rng *sim.RNG) match.Matcher {
			return match.NewProjecToR(tp, rng)
		},
		"iterative3": func(tp topo.Topology, tm Timing, rng *sim.RNG) match.Matcher {
			return match.NewIterative(tp, rng, 3)
		},
	}
	for name, f := range factories {
		t.Run(name, func(t *testing.T) {
			cfg := testConfig(t, "parallel")
			cfg.NewMatcher = f
			e, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			e.SetWorkload(workload.NewPoisson(workload.Hadoop(), 16, 0.8, cfg.HostRate, 17))
			e.Run(500 * sim.Microsecond)
			r := e.Results()
			if r.FCT.Count() == 0 {
				t.Error("no completions")
			}
		})
	}
}

func TestIterativeDelaysHurtFCT(t *testing.T) {
	// Appendix A.2.1: iteration lengthens the scheduling delay, hurting
	// FCT. Compare mice FCT of iterative-5 vs base at moderate load with
	// piggybacking off (so the scheduled path dominates).
	run := func(iters int) sim.Duration {
		cfg := testConfig(t, "parallel")
		cfg.Piggyback = false
		if iters > 0 {
			cfg.NewMatcher = func(tp topo.Topology, tm Timing, rng *sim.RNG) match.Matcher {
				return match.NewIterative(tp, rng, iters)
			}
		}
		e, _ := New(cfg)
		e.SetWorkload(workload.NewPoisson(workload.Hadoop(), 16, 0.5, cfg.HostRate, 23))
		e.Run(1 * sim.Millisecond)
		return e.Results().FCT.MiceMean()
	}
	base, iter5 := run(0), run(5)
	if iter5 <= base {
		t.Errorf("iterative-5 mean mice FCT %v should exceed base %v", iter5, base)
	}
}

func TestFailureLosesAndRecovers(t *testing.T) {
	cfg := testConfig(t, "parallel")
	epoch := DefaultTiming().EpochLen(4) // 16 ToRs, 4 ports: 4 predefined slots... computed below
	_ = epoch
	e0, _ := New(cfg)
	failAt := sim.Time(20 * e0.epochLn)
	recoverAt := sim.Time(60 * e0.epochLn)
	cfg.Failures = failure.Random(16, 4, 0.15, failAt, recoverAt, 3*e0.epochLn, 9)
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	e.SetWorkload(workload.NewPoisson(workload.Hadoop(), 16, 0.8, cfg.HostRate, 31))
	e.Run(120 * e0.epochLn)
	r := e.Results()
	if r.LostBytes == 0 {
		t.Error("no bytes lost despite 15% link failures")
	}
	if r.FCT.Count() == 0 {
		t.Error("no flows completed across failure")
	}
	// Conservation (ledger) held throughout via CheckInvariants.
}

func TestFailureBandwidthDrop(t *testing.T) {
	// During failures, delivered bandwidth drops; after recovery it
	// returns (paper Fig. 10).
	cfg := testConfig(t, "parallel")
	e0, _ := New(cfg)
	ep := e0.epochLn
	series := metrics.NewTimeSeries(10 * ep)
	cfg.OnDeliver = func(dst int, at sim.Time, n int64) { series.Add(at, n) }
	cfg.Failures = failure.Random(16, 4, 0.25, sim.Time(100*ep), sim.Time(200*ep), 3*ep, 10)
	e, _ := New(cfg)
	e.SetWorkload(workload.NewPoisson(workload.Fixed(1<<20), 16, 0.9, cfg.HostRate, 37))
	e.Run(300 * ep)
	pre := series.MeanGbpsBetween(sim.Time(50*ep), sim.Time(100*ep))
	during := series.MeanGbpsBetween(sim.Time(130*ep), sim.Time(200*ep))
	post := series.MeanGbpsBetween(sim.Time(240*ep), sim.Time(300*ep))
	if during >= pre {
		t.Errorf("failure did not reduce bandwidth: pre=%.1f during=%.1f", pre, during)
	}
	if post < during {
		t.Errorf("recovery did not restore bandwidth: during=%.1f post=%.1f", during, post)
	}
}

func TestSelectiveRelayRuns(t *testing.T) {
	cfg := testConfig(t, "thinclos")
	cfg.Relay = &RelayConfig{}
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	e.SetWorkload(workload.NewPoisson(workload.Hadoop(), 16, 0.5, cfg.HostRate, 41))
	e.Run(1 * sim.Millisecond)
	r := e.Results()
	if r.FCT.Count() == 0 {
		t.Fatal("no completions with relay enabled")
	}
	if r.Delivered > r.Injected {
		t.Fatal("over-delivery with relay")
	}
}

func TestOnDeliverObserver(t *testing.T) {
	cfg := testConfig(t, "parallel")
	var observed int64
	cfg.OnDeliver = func(dst int, at sim.Time, n int64) {
		if dst == 9 {
			observed += n
		}
	}
	e, _ := New(cfg)
	e.SetWorkload(workload.NewSinglePair(2, 9, 40<<10, 0))
	e.Run(200 * sim.Microsecond)
	if observed != 40<<10 {
		t.Errorf("observer saw %d bytes, want %d", observed, 40<<10)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() (int64, sim.Duration) {
		cfg := testConfig(t, "thinclos")
		e, _ := New(cfg)
		e.SetWorkload(workload.NewPoisson(workload.Hadoop(), 16, 0.7, cfg.HostRate, 99))
		e.Run(500 * sim.Microsecond)
		r := e.Results()
		return r.Delivered, r.FCT.MiceP(99)
	}
	d1, f1 := run()
	d2, f2 := run()
	if d1 != d2 || f1 != f2 {
		t.Errorf("non-deterministic: (%d,%v) vs (%d,%v)", d1, f1, d2, f2)
	}
}
