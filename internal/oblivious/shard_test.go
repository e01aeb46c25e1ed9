package oblivious

import (
	"fmt"
	"strings"
	"testing"

	"negotiator/internal/sim"
	"negotiator/internal/topo"
	"negotiator/internal/workload"
)

// obFingerprint runs the baseline for a fixed duration and renders every
// observable of the run into one comparable string, including the
// per-delivery and per-transit observer streams (the strictest ordering
// witness: the serial merge must replay them identically at any worker
// count).
func obFingerprint(t *testing.T, cfg Config, d sim.Duration, load float64) string {
	t.Helper()
	var obs strings.Builder
	var relayed int64
	cfg.OnDeliver = func(dst int, at sim.Time, n int64) { fmt.Fprintf(&obs, "d%d@%d:%d;", dst, at, n) }
	cfg.OnTransit = func(k int, at sim.Time, n int64) {
		relayed += n
		fmt.Fprintf(&obs, "t%d@%d:%d;", k, at, n)
	}
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	e.SetWorkload(workload.NewPoisson(workload.Hadoop(), cfg.Topology.N(), load, cfg.HostRate, 21))
	e.Run(d)
	r := e.Results()
	return fmt.Sprintf("flows=%d mice=%d p99=%v mp99=%v mean=%v goodput=%d slots=%d inj=%d del=%d rel=%d tags=%v cdf=%v obslen=%d obs=%s",
		r.FCT.Count(), r.FCT.MiceCount(), r.FCT.P(99), r.FCT.MiceP(99), r.FCT.Mean(),
		r.Goodput.TotalBytes(), e.Rounds(), r.Injected, r.Delivered, relayed,
		r.Tags, r.FCT.MiceCDF(16), obs.Len(), obs.String())
}

// TestShardDeterminismOblivious: the baseline must produce identical
// results — including observer callback order — at every worker count,
// for both service disciplines.
func TestShardDeterminismOblivious(t *testing.T) {
	for _, disc := range []struct {
		name string
		mod  func(*Config)
	}{
		{"vlb-lanes", func(*Config) {}},
		{"opportunistic", func(c *Config) { c.OpportunisticDirect = true }},
	} {
		t.Run(disc.name, func(t *testing.T) {
			d := 120 * sim.Microsecond
			counts := []int{2, 3, 4, 8, 16}
			if testing.Short() {
				d, counts = 50*sim.Microsecond, []int{2, 4, 16}
			}
			build := func(workers int) Config {
				tc, _ := topo.NewThinClos(16, 4, 4)
				cfg := Config{
					Topology:        tc,
					HostRate:        sim.Gbps(200),
					PriorityQueues:  true,
					Seed:            1,
					CheckInvariants: true,
					Workers:         workers,
				}
				disc.mod(&cfg)
				return cfg
			}
			want := obFingerprint(t, build(1), d, 0.8)
			for _, workers := range counts {
				if got := obFingerprint(t, build(workers), d, 0.8); got != want {
					t.Fatalf("workers=%d diverges from sequential\n got: %.400s\nwant: %.400s", workers, got, want)
				}
			}
		})
	}
}

// TestRunCycles: RunEpochs(k) advances exactly k round-robin cycles of
// slots timeslots each.
func TestRunCycles(t *testing.T) {
	e, err := New(testConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	e.RunEpochs(3)
	if got := e.Rounds(); got != int64(3*e.slots) {
		t.Errorf("slots = %d, want %d", got, 3*e.slots)
	}
	if got, want := e.Now(), sim.Time(3*e.slots)*sim.Time(e.timing.Slot); got != want {
		t.Errorf("now = %v, want %v", got, want)
	}
}

// TestWorkersCappedAtToRs: worker counts beyond the ToR count clamp.
func TestWorkersCappedAtToRs(t *testing.T) {
	cfg := testConfig(t)
	cfg.Workers = 1000
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if e.Workers != 16 {
		t.Errorf("workers = %d, want 16", e.Workers)
	}
}
