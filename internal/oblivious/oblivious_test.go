package oblivious

import (
	"testing"

	"negotiator/internal/sim"
	"negotiator/internal/topo"
	"negotiator/internal/workload"
)

func testTopo(t *testing.T) topo.Topology {
	t.Helper()
	tc, err := topo.NewThinClos(16, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	return tc
}

func testConfig(t *testing.T) Config {
	return Config{
		Topology:        testTopo(t),
		HostRate:        sim.Gbps(200),
		PriorityQueues:  true,
		Seed:            1,
		CheckInvariants: true,
	}
}

func TestTiming(t *testing.T) {
	tm := DefaultTiming()
	if got := tm.CellBytes(); got != 615 {
		t.Errorf("cell = %d B, want 615 (625 - 10 header)", got)
	}
	bad := tm
	bad.Slot = 5
	if bad.Validate() == nil {
		t.Error("slot shorter than guardband accepted")
	}
	if _, err := New(Config{}); err == nil {
		t.Error("nil topology accepted")
	}
}

func TestCycleLen(t *testing.T) {
	e, err := New(testConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	// 16 ToRs, 4 ports thin-clos: 4 slots of 60ns.
	if got := e.Results().EpochLen; got != 240 {
		t.Errorf("cycle = %v, want 240ns", got)
	}
}

func TestVLBTakesTwoHops(t *testing.T) {
	// Under the Sirius discipline, most bytes relay through an
	// intermediate; delivery needs two propagation delays.
	e, _ := New(testConfig(t))
	e.SetWorkload(workload.NewSinglePair(0, 9, 20<<10, 0))
	e.Run(100 * sim.Microsecond)
	r := e.Results()
	if r.Delivered != 20<<10 {
		t.Fatalf("delivered %d of %d", r.Delivered, 20<<10)
	}
	if e.relayed == 0 {
		t.Fatal("no bytes relayed under VLB")
	}
	// Most traffic took the two-hop path (1/16 lands direct by luck).
	if float64(e.relayed) < 0.7*float64(r.Delivered) {
		t.Errorf("relayed only %d of %d delivered bytes", e.relayed, r.Delivered)
	}
	if r.FCT.Count() != 1 {
		t.Fatalf("flow count = %d", r.FCT.Count())
	}
	// FCT includes at least two propagation delays.
	if got := r.FCT.P(100); got < 4*sim.Microsecond {
		t.Errorf("two-hop FCT = %v, want >= 4µs (2 hops x 2µs)", got)
	}
}

func TestOpportunisticDirectRelaysLess(t *testing.T) {
	// The RotorLB-style variant serves the connected peer's direct queue
	// before spraying, so it relays strictly fewer bytes than pure VLB.
	run := func(opp bool) (relayed, delivered int64) {
		cfg := testConfig(t)
		cfg.OpportunisticDirect = opp
		e, _ := New(cfg)
		e.SetWorkload(workload.NewAllToAll(16, 10<<10, 0))
		if !e.Drain(1_000_000) {
			t.Fatal("drain failed")
		}
		r := e.Results()
		return e.relayed, r.Delivered
	}
	oppRelay, oppDel := run(true)
	vlbRelay, vlbDel := run(false)
	if oppDel != vlbDel {
		t.Fatalf("delivered differ: %d vs %d", oppDel, vlbDel)
	}
	if oppRelay >= vlbRelay {
		t.Errorf("opportunistic relayed %d, want < VLB's %d", oppRelay, vlbRelay)
	}
}

func TestRelayDoublesTrafficVolume(t *testing.T) {
	// The paper's core criticism: data relay doubles the traffic volume.
	// Under all-to-all load, relayed bytes approach delivered bytes.
	e, _ := New(testConfig(t))
	e.SetWorkload(workload.NewAllToAll(16, 30<<10, 0))
	if !e.Drain(2_000_000) {
		t.Fatal("failed to drain")
	}
	r := e.Results()
	ratio := float64(e.relayed) / float64(r.Delivered)
	if ratio < 0.8 {
		t.Errorf("relay ratio = %.2f, want ~0.94 (15/16 two-hop)", ratio)
	}
}

func TestRelayCapBackpressure(t *testing.T) {
	cfg := testConfig(t)
	cfg.CheckInvariants = true
	e, _ := New(cfg)
	e.relayCap = 2 * DefaultTiming().CellBytes()
	e.SetWorkload(workload.NewAllToAll(16, 100<<10, 0))
	e.Run(200 * sim.Microsecond)
	// The cap bounds each (intermediate, destination) VOQ, but the
	// headroom check reads the slot-start occupancy snapshot (backpressure
	// feedback is a propagation delay stale, see Config.Workers): every
	// source connected to the intermediate within one slot may admit up to
	// one cell against the same headroom, so a VOQ can briefly overshoot
	// by up to one cell per port.
	slack := int64(e.s) * e.cell
	for i, nd := range e.Nodes {
		for d := 0; d < e.n; d++ {
			if b := nd.Relay.Bytes(d); b > e.relayCap+slack {
				t.Fatalf("tor %d VOQ[%d] backlog %d exceeds cap %d", i, d, b, e.relayCap)
			}
		}
	}
}

func TestConservationUnderLoad(t *testing.T) {
	cfg := testConfig(t)
	e, _ := New(cfg)
	e.SetWorkload(workload.NewPoisson(workload.Hadoop(), 16, 1.0, cfg.HostRate, 7))
	e.Run(300 * sim.Microsecond) // CheckInvariants panics on violation
	r := e.Results()
	if r.FCT.Count() == 0 {
		t.Error("no completions")
	}
}

func TestGoodputCollapsesUnderHeavyLoad(t *testing.T) {
	// The relay traffic competes for receiver bandwidth: at saturating
	// load the oblivious design cannot approach offered load (paper §2:
	// worst-case goodput ~50%).
	cfg := testConfig(t)
	e, _ := New(cfg)
	e.SetWorkload(workload.NewPoisson(workload.Hadoop(), 16, 1.0, cfg.HostRate, 11))
	e.Run(3 * sim.Millisecond)
	r := e.Results()
	norm := r.Goodput.Normalized(r.Duration, cfg.HostRate)
	if norm > 0.8 {
		t.Errorf("oblivious goodput %.2f at 100%% load, expected relay-limited (< 0.8)", norm)
	}
	if norm < 0.2 {
		t.Errorf("oblivious goodput %.2f suspiciously low", norm)
	}
}

func TestIncastTagging(t *testing.T) {
	cfg := testConfig(t)
	e, _ := New(cfg)
	inc, err := workload.NewIncast(16, 3, 10, 1000, sim.Time(10*sim.Microsecond), 1, 5)
	if err != nil {
		t.Fatal(err)
	}
	e.SetWorkload(inc)
	e.Run(200 * sim.Microsecond)
	ts := e.Results().Tags[1]
	if ts == nil || ts.Done != 10 {
		t.Fatalf("incast incomplete: %+v", ts)
	}
	if ts.End <= ts.Start {
		t.Errorf("bad tag window: %+v", ts)
	}
}

func TestTransitObserver(t *testing.T) {
	cfg := testConfig(t)
	var transit int64
	cfg.OnTransit = func(k int, at sim.Time, n int64) { transit += n }
	var delivered int64
	cfg.OnDeliver = func(d int, at sim.Time, n int64) { delivered += n }
	e, _ := New(cfg)
	e.SetWorkload(workload.NewSinglePair(0, 9, 10<<10, 0))
	e.Run(100 * sim.Microsecond)
	if transit == 0 {
		t.Error("no transit observed")
	}
	if delivered != 10<<10 {
		t.Errorf("observer saw %d delivered", delivered)
	}
	if transit != e.relayed {
		t.Errorf("transit observer %d != relayed %d", transit, e.relayed)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() int64 {
		cfg := testConfig(t)
		e, _ := New(cfg)
		e.SetWorkload(workload.NewPoisson(workload.Hadoop(), 16, 0.6, cfg.HostRate, 99))
		e.Run(300 * sim.Microsecond)
		return e.Results().Delivered
	}
	if a, b := run(), run(); a != b {
		t.Errorf("non-deterministic: %d vs %d", a, b)
	}
}

func TestWorksOnParallelTopologyToo(t *testing.T) {
	p, err := topo.NewParallel(16, 4)
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(t)
	cfg.Topology = p
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	e.SetWorkload(workload.NewPoisson(workload.Hadoop(), 16, 0.5, cfg.HostRate, 3))
	e.Run(200 * sim.Microsecond)
	if e.Results().FCT.Count() == 0 {
		t.Error("no completions on parallel topology")
	}
}
