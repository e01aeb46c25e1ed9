package negotiator

import (
	"fmt"
	"testing"

	"negotiator/internal/failure"
	"negotiator/internal/match"
	"negotiator/internal/sim"
	"negotiator/internal/topo"
	"negotiator/internal/workload"
)

// shardFingerprint runs an engine for a fixed number of epochs and renders
// everything observable about the run — summary metrics, CDF, per-epoch
// match-ratio series, ledger — into one comparable string.
func shardFingerprint(t *testing.T, cfg Config, epochs int) string {
	t.Helper()
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	e.SetWorkload(workload.NewPoisson(workload.Hadoop(), cfg.Topology.N(), 0.8, sim.Gbps(200), 33))
	e.RunEpochs(epochs)
	r := e.Results()
	return fmt.Sprintf("fct=%v flows=%d mice=%d p99=%v mp99=%v mean=%v goodput=%d per=%v ratio=%.6f series=%v inj=%d del=%d lost=%d tags=%v cdf=%v",
		r.FCT, r.FCT.Count(), r.FCT.MiceCount(), r.FCT.P(99), r.FCT.MiceP(99), r.FCT.Mean(),
		r.Goodput.TotalBytes(), r.Goodput.PerToRGbps(r.Duration), r.MatchRatio.Mean(), r.MatchRatio.Series(),
		r.Injected, r.Delivered, r.LostBytes, r.Tags, r.FCT.MiceCDF(16))
}

// TestShardDeterminismEngine: the engine must produce identical results at
// every worker count, for both topologies, every sharded matcher, the
// batch matchers, and under failure injection.
func TestShardDeterminismEngine(t *testing.T) {
	const n, s, w = 16, 4, 4
	newParallel := func() topo.Topology { p, _ := topo.NewParallel(n, s); return p }
	newThinClos := func() topo.Topology { tc, _ := topo.NewThinClos(n, s, w); return tc }

	matchers := map[string]func(topo.Topology, *sim.RNG) match.Matcher{
		"base":      nil,
		"data-size": func(tp topo.Topology, r *sim.RNG) match.Matcher { return match.NewDataSize(tp, r) },
		"hol-delay": func(tp topo.Topology, r *sim.RNG) match.Matcher { return match.NewHoLDelay(tp, r) },
		"stateful":  func(tp topo.Topology, r *sim.RNG) match.Matcher { return match.NewStateful(tp, r, 20000) },
		"projector": func(tp topo.Topology, r *sim.RNG) match.Matcher { return match.NewProjecToR(tp, r) },
		"iter3":     func(tp topo.Topology, r *sim.RNG) match.Matcher { return match.NewClassic(tp, r, 3, match.RRM) },
		"islip":     func(tp topo.Topology, r *sim.RNG) match.Matcher { return match.NewClassic(tp, r, 3, match.ISLIP) },
	}
	for _, topoKind := range []string{"parallel", "thinclos"} {
		for name, mk := range matchers {
			t.Run(topoKind+"/"+name, func(t *testing.T) {
				build := func(workers int) Config {
					var tp topo.Topology
					if topoKind == "parallel" {
						tp = newParallel()
					} else {
						tp = newThinClos()
					}
					cfg := Config{
						Topology:        tp,
						HostRate:        sim.Gbps(200),
						Piggyback:       true,
						PriorityQueues:  true,
						Seed:            1,
						CheckInvariants: true,
						Workers:         workers,
					}
					if mk != nil {
						m := mk
						cfg.NewMatcher = func(tp topo.Topology, tm Timing, r *sim.RNG) match.Matcher { return m(tp, r) }
					}
					return cfg
				}
				epochs, counts := 400, []int{2, 3, 4, 8, 16}
				if testing.Short() {
					epochs, counts = 150, []int{2, 4, 16}
				}
				want := shardFingerprint(t, build(1), epochs)
				for _, workers := range counts {
					if got := shardFingerprint(t, build(workers), epochs); got != want {
						t.Fatalf("workers=%d diverges from sequential\n got: %.300s\nwant: %.300s", workers, got, want)
					}
				}
			})
		}
	}
}

// TestShardDeterminismUnderFailures: failure injection (loss, detection,
// requeue) must also be worker-count-independent.
func TestShardDeterminismUnderFailures(t *testing.T) {
	build := func(workers int) Config {
		tp, _ := topo.NewParallel(16, 4)
		ep := DefaultTiming().EpochLen(16)
		return Config{
			Topology:        tp,
			HostRate:        sim.Gbps(200),
			Piggyback:       true,
			PriorityQueues:  true,
			Seed:            1,
			CheckInvariants: true,
			Workers:         workers,
			Failures:        failure.Random(16, 4, 0.2, sim.Time(20*ep), sim.Time(150*ep), 3*ep, 9),
		}
	}
	epochs := 300
	if testing.Short() {
		epochs = 150
	}
	want := shardFingerprint(t, build(1), epochs)
	for _, workers := range []int{2, 4, 8} {
		if got := shardFingerprint(t, build(workers), epochs); got != want {
			t.Fatalf("workers=%d diverges under failures\n got: %.300s\nwant: %.300s", workers, got, want)
		}
	}
}

// TestWorkersClampedForSequentialFeatures: features that need globally
// ordered mutation must force sequential execution.
func TestWorkersClampedForSequentialFeatures(t *testing.T) {
	tc, _ := topo.NewThinClos(16, 4, 4)
	base := Config{Topology: tc, Workers: 4}

	cfg := base
	cfg.Relay = true
	if e, _ := New(cfg); e.Workers != 1 {
		t.Errorf("relay: workers = %d, want 1", e.Workers)
	}
	cfg = base
	cfg.TrackReceiverBuffers = true
	if e, _ := New(cfg); e.Workers != 1 {
		t.Errorf("rx buffers: workers = %d, want 1", e.Workers)
	}
	cfg = base
	cfg.OnDeliver = func(int, sim.Time, int64) {}
	if e, _ := New(cfg); e.Workers != 1 {
		t.Errorf("OnDeliver: workers = %d, want 1", e.Workers)
	}
	cfg = base
	if e, _ := New(cfg); e.Workers != 4 {
		t.Errorf("plain: workers = %d, want 4", e.Workers)
	}
	cfg = base
	cfg.Workers = 1000 // capped at ToR count
	if e, _ := New(cfg); e.Workers != 16 {
		t.Errorf("cap: workers = %d, want 16", e.Workers)
	}
}

// unshardedMatcher wraps the base matcher but hides its Fork, simulating a
// custom scheduler that predates match.Sharded.
type unshardedMatcher struct{ m match.Matcher }

func (u *unshardedMatcher) Name() string    { return "unsharded" }
func (u *unshardedMatcher) MatchDelay() int { return u.m.MatchDelay() }
func (u *unshardedMatcher) Requests(src int, v match.QueueView, now sim.Time, thr int64, emit func(match.Request)) {
	u.m.Requests(src, v, now, thr, emit)
}
func (u *unshardedMatcher) Grants(dst int, reqs []match.Request, emit func(match.Grant)) {
	u.m.Grants(dst, reqs, emit)
}
func (u *unshardedMatcher) Accepts(src int, v match.QueueView, gs []match.Grant, matches []int32, fb func(match.Grant, bool)) {
	u.m.Accepts(src, v, gs, matches, fb)
}
func (u *unshardedMatcher) Feedback(g match.Grant, ok bool) { u.m.Feedback(g, ok) }

func TestWorkersClampedForUnshardedMatcher(t *testing.T) {
	tp, _ := topo.NewParallel(16, 4)
	cfg := Config{
		Topology: tp,
		Workers:  4,
		NewMatcher: func(tp topo.Topology, tm Timing, r *sim.RNG) match.Matcher {
			return &unshardedMatcher{m: match.NewNegotiator(tp, r)}
		},
	}
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if e.Workers != 1 {
		t.Errorf("custom non-Sharded matcher: workers = %d, want 1", e.Workers)
	}
}
