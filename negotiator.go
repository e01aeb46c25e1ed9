// Package negotiator is a from-scratch Go reproduction of NegotiaToR
// (Liang et al., SIGCOMM 2024): a simple on-demand reconfigurable optical
// datacenter network architecture. ToRs exchange binary scheduling messages
// through an in-band control plane carried by periodic round-robin
// all-to-all connectivity, distributedly compute non-conflicting one-hop
// paths with the NegotiaToR Matching algorithm, and bypass scheduling
// delays for latency-sensitive mice flows by piggybacking data on the
// control plane — an incast-friendly design.
//
// The package exposes a high-level facade over the engines in internal/:
// build a Spec, call Build, attach a workload, Run, and read Summary.
//
//	spec := negotiator.DefaultSpec()
//	fab, err := spec.Build()
//	if err != nil { ... }
//	fab.SetWorkload(negotiator.PoissonWorkload(spec, negotiator.Hadoop, 0.5, 7))
//	fab.Run(5 * negotiator.Millisecond) // simulated time
//	sum := fab.Summary()
//
// Everything the paper evaluates — both flat topologies, the
// traffic-oblivious Sirius-like baseline, the design-choice variants of
// §3.5/Appendix A.2, link-failure scenarios, and the paper's workloads —
// is reachable from this package; the experiment harness in internal/exp
// regenerates every table and figure.
package negotiator

import (
	"fmt"
	"io"
	"slices"

	"negotiator/internal/fabric"
	"negotiator/internal/failure"
	"negotiator/internal/hybrid"
	"negotiator/internal/match"
	"negotiator/internal/metrics"
	"negotiator/internal/negotiator"
	"negotiator/internal/oblivious"
	"negotiator/internal/sim"
	"negotiator/internal/topo"
	"negotiator/internal/workload"
)

// Time is a simulated instant in nanoseconds (re-exported from the
// simulation substrate).
type Time = sim.Time

// Duration is a simulated time span in nanoseconds.
type Duration = sim.Duration

// Common durations.
const (
	Nanosecond  = sim.Nanosecond
	Microsecond = sim.Microsecond
	Millisecond = sim.Millisecond
	Second      = sim.Second
)

// Gbps expresses a link rate in gigabits per second.
func Gbps(g int64) sim.Rate { return sim.Gbps(g) }

// Topology selects the flat optical topology (paper Figure 1).
type Topology int

const (
	// ParallelNetwork uses S high port-count AWGRs: any destination is
	// reachable on any uplink port.
	ParallelNetwork Topology = iota
	// ThinClos uses many low port-count AWGRs: every ToR pair is connected
	// by exactly one port-to-port path.
	ThinClos
)

func (t Topology) String() string {
	if t == ThinClos {
		return "thin-clos"
	}
	return "parallel"
}

// Scheduler selects the scheduling policy (§3.2, §3.5, Appendix A.2).
type Scheduler int

const (
	// Matching is NegotiaToR Matching: binary requests, round-robin rings,
	// no iteration, stateless (the paper's design).
	Matching Scheduler = iota
	// Iterative1, Iterative3, Iterative5 are the iterative variants with
	// 1, 3 and 5 rounds (Appendix A.2.1).
	Iterative1
	Iterative3
	Iterative5
	// DataSizePriority carries queue sizes in requests and favours large
	// backlogs (Appendix A.2.3, goodput-oriented).
	DataSizePriority
	// HoLDelayPriority carries weighted head-of-line delays and favours
	// long waits (Appendix A.2.3, tail-FCT-oriented).
	HoLDelayPriority
	// Stateful tracks a per-destination traffic matrix to suppress
	// over-scheduling (Appendix A.2.4).
	Stateful
	// ProjecToRStyle is the ProjecToR-inspired per-port delay-priority
	// scheduler (Appendix A.2.5).
	ProjecToRStyle
	// PIMStyle and ISLIPStyle transplant the classic crossbar schedulers
	// the paper contrasts with (§5) into the ToR-matching setting, with
	// three iterations each: PIM picks randomly, iSLIP desynchronises its
	// pointers via the accepted-grant rule. These are reproduction
	// extensions (the `ext-arbiters` experiment), not paper variants.
	PIMStyle
	ISLIPStyle
)

func (s Scheduler) String() string {
	switch s {
	case Iterative1:
		return "iterative-1"
	case Iterative3:
		return "iterative-3"
	case Iterative5:
		return "iterative-5"
	case DataSizePriority:
		return "data-size"
	case HoLDelayPriority:
		return "hol-delay"
	case Stateful:
		return "stateful"
	case ProjecToRStyle:
		return "projector"
	case PIMStyle:
		return "pim"
	case ISLIPStyle:
		return "islip"
	default:
		return "negotiator-matching"
	}
}

// ControlPlaneKind selects the scheduling control plane driving the
// shared fabric core (internal/fabric). All engines run over the same
// physical substrate — queues, workload pump, metrics, shard-parallel
// round loop — and differ only in how they decide which bytes move.
type ControlPlaneKind int

const (
	// NegotiaToRPlane is the paper's on-demand negotiation control plane
	// (the default).
	NegotiaToRPlane ControlPlaneKind = iota
	// ObliviousPlane is the traffic-oblivious Sirius-like round-robin/VLB
	// baseline.
	ObliviousPlane
	// HybridPlane piggybacks mice flows on the oblivious round-robin
	// schedule while elephants use on-demand negotiation (the §3.4.1
	// mice-bypass idea pushed to its limit).
	HybridPlane
)

func (k ControlPlaneKind) String() string {
	switch k {
	case ObliviousPlane:
		return "oblivious"
	case HybridPlane:
		return "hybrid"
	default:
		return "negotiator"
	}
}

// ControlPlanes lists every selectable control plane.
func ControlPlanes() []ControlPlaneKind {
	return []ControlPlaneKind{NegotiaToRPlane, ObliviousPlane, HybridPlane}
}

// ControlPlaneByName resolves a CLI name (see ControlPlaneKind.String).
func ControlPlaneByName(name string) (ControlPlaneKind, bool) {
	for _, k := range ControlPlanes() {
		if k.String() == name {
			return k, true
		}
	}
	return 0, false
}

// Spec describes a fabric to build. The zero value is not useful; start
// from DefaultSpec (the paper's §4.1 setup) and adjust.
type Spec struct {
	// ToRs and Ports dimension the network (128 and 8 in the paper).
	ToRs, Ports int
	// AWGRPorts is the thin-clos AWGR port count W (16 in the paper);
	// ignored for the parallel network. Must satisfy ToRs == Ports*AWGRPorts.
	AWGRPorts int
	// Topology picks the fabric layout.
	Topology Topology
	// ControlPlane picks the scheduling engine (NegotiaToR by default).
	ControlPlane ControlPlaneKind
	// Scheduler picks the NegotiaToR scheduling policy (ignored for the
	// baseline).
	Scheduler Scheduler
	// LinkRate is the per-uplink-port rate (100 Gbps: the paper's 2x
	// speedup over 400 Gbps hosts on 8 ports).
	LinkRate sim.Rate
	// HostRate is the aggregate host bandwidth per ToR (400 Gbps); it
	// must be positive.
	HostRate sim.Rate
	// ReconfigDelay is the guardband / end-to-end reconfiguration delay
	// (10 ns); zero keeps the plane's default.
	ReconfigDelay Duration
	// PropDelay is the one-way inter-ToR propagation delay (2 µs).
	PropDelay Duration
	// ScheduledSlots is the scheduled-phase length in 90 ns timeslots;
	// zero means the paper's 30.
	ScheduledSlots int
	// PredefinedSlotTime overrides the predefined-phase timeslot duration
	// (guardband included); zero keeps the default 60 ns. Sweeping it
	// changes how much data piggybacks per epoch (Figure 12a).
	PredefinedSlotTime Duration
	// Piggyback enables scheduling-delay bypass (§3.4.1). Both true in the
	// paper's default evaluation.
	Piggyback bool
	// RequestThresholdPkts is the request threshold in piggyback packets
	// (§3.4.1): with piggybacking on, a pair requests a scheduled
	// connection only when its queue exceeds this many piggyback
	// payloads. Zero means the paper's 3.
	RequestThresholdPkts int
	// PriorityQueues enables PIAS mice-flow prioritisation (§3.4.2).
	PriorityQueues bool
	// SelectiveRelay enables the traffic-aware relay extension on
	// thin-clos (Appendix A.2.2).
	SelectiveRelay bool
	// Failures optionally injects link failures.
	Failures *FailurePlan
	// Seed drives all randomness.
	Seed int64
	// CheckInvariants enables per-epoch conservation/conflict assertions.
	CheckInvariants bool
	// DisableEventSkip forces the run loop to tick every round even when
	// the fabric is provably idle, instead of jumping the clock to the
	// next event. Results are byte-identical either way (pinned by the
	// golden fingerprints); the knob exists for A/B benchmarks and the
	// skip-equivalence tests.
	DisableEventSkip bool
	// DisableIncremental has no effect: every plane runs a fresh REQUEST
	// sweep each epoch. The field remains only for callers that still set
	// it.
	DisableIncremental bool
	// OnDeliver and OnTransit observe deliveries (and, for the baseline,
	// first-hop transit arrivals).
	OnDeliver func(dst int, at Time, n int64)
	OnTransit func(intermediate int, at Time, n int64)
	// TrackReceiverBuffers models the receiver-side ToR-to-host buffers of
	// §3.6.5 (the optical fabric delivers at up to 2x the host drain rate)
	// and reports their peak occupancy in Summary (ignored by the oblivious
	// baseline).
	TrackReceiverBuffers bool
	// Workers is the intra-run shard parallelism: the fabric's ToRs split
	// into Workers contiguous shards that execute each epoch (or timeslot)
	// concurrently with barrier-synchronized phases. Results are identical
	// at any value — use it to put multiple cores behind one large
	// simulation, complementing the experiment runner's across-run cell
	// parallelism. 0 or 1 means sequential, and Build rejects a count
	// above the ToR count. The epoch planes fall back to sequential for
	// features that need globally ordered mutation: OnDeliver and
	// receiver-buffer tracking on the NegotiaToR and hybrid planes, and
	// selective relay on the NegotiaToR plane.
	Workers int
}

// DefaultSpec returns the paper's evaluation setup (§4.1): 128 8-port ToRs,
// 100 Gbps ports (2x speedup), 10 ns guardband, 30-slot scheduled phase,
// piggybacking and priority queues on, parallel network topology.
func DefaultSpec() Spec {
	return Spec{
		ToRs: 128, Ports: 8, AWGRPorts: 16,
		Topology:       ParallelNetwork,
		LinkRate:       sim.Gbps(100),
		HostRate:       sim.Gbps(400),
		ReconfigDelay:  10,
		PropDelay:      2 * sim.Microsecond,
		ScheduledSlots: 30,
		Piggyback:      true,
		PriorityQueues: true,
		Seed:           1,
	}
}

// SmallSpec returns a reduced 16-ToR setup for fast tests, examples and
// benchmarks (4 ports, thin-clos W=4, 200 Gbps hosts for the same 2x
// speedup).
func SmallSpec() Spec {
	s := DefaultSpec()
	s.ToRs, s.Ports, s.AWGRPorts = 16, 4, 4
	s.HostRate = sim.Gbps(200)
	return s
}

// buildTopology constructs the topo.Topology for the spec.
func (s Spec) buildTopology() (topo.Topology, error) {
	if s.Topology == ThinClos {
		return topo.NewThinClos(s.ToRs, s.Ports, s.AWGRPorts)
	}
	return topo.NewParallel(s.ToRs, s.Ports)
}

// timing derives the NegotiaToR Timing from the spec.
func (s Spec) timing() negotiator.Timing {
	t := negotiator.DefaultTiming()
	t.LinkRate = s.LinkRate
	t.PropDelay = s.PropDelay
	if s.ScheduledSlots > 0 {
		t.ScheduledSlots = s.ScheduledSlots
	}
	if s.PredefinedSlotTime > 0 {
		t.PredefinedSlot = s.PredefinedSlotTime
	}
	if s.ReconfigDelay > 0 && s.ReconfigDelay != t.Guardband {
		// Keep the message transmission time; the slot stretches.
		t.PredefinedSlot = t.PredefinedSlot - t.Guardband + s.ReconfigDelay
		t.Guardband = s.ReconfigDelay
	}
	return t
}

func (s Spec) matcherFactory() func(topo.Topology, negotiator.Timing, *sim.RNG) match.Matcher {
	switch s.Scheduler {
	case Iterative1:
		return func(t topo.Topology, tm negotiator.Timing, r *sim.RNG) match.Matcher {
			return match.NewClassic(t, r, 1, match.RRM)
		}
	case Iterative3:
		return func(t topo.Topology, tm negotiator.Timing, r *sim.RNG) match.Matcher {
			return match.NewClassic(t, r, 3, match.RRM)
		}
	case Iterative5:
		return func(t topo.Topology, tm negotiator.Timing, r *sim.RNG) match.Matcher {
			return match.NewClassic(t, r, 5, match.RRM)
		}
	case DataSizePriority:
		return func(t topo.Topology, tm negotiator.Timing, r *sim.RNG) match.Matcher { return match.NewDataSize(t, r) }
	case HoLDelayPriority:
		return func(t topo.Topology, tm negotiator.Timing, r *sim.RNG) match.Matcher { return match.NewHoLDelay(t, r) }
	case Stateful:
		return func(t topo.Topology, tm negotiator.Timing, r *sim.RNG) match.Matcher {
			return match.NewStateful(t, r, tm.EpochPortBytes())
		}
	case ProjecToRStyle:
		return func(t topo.Topology, tm negotiator.Timing, r *sim.RNG) match.Matcher { return match.NewProjecToR(t, r) }
	case PIMStyle:
		return func(t topo.Topology, tm negotiator.Timing, r *sim.RNG) match.Matcher {
			return match.NewClassic(t, r, 3, match.PIM)
		}
	case ISLIPStyle:
		return func(t topo.Topology, tm negotiator.Timing, r *sim.RNG) match.Matcher {
			return match.NewClassic(t, r, 3, match.ISLIP)
		}
	default:
		return nil // base NegotiaToR Matching
	}
}

// engineConfig assembles the NegotiaToR Config both negotiating planes
// build from (hybrid.New rejects the scheduler variants and the relay).
func (s Spec) engineConfig(top topo.Topology, plan *failure.Plan) negotiator.Config {
	return negotiator.Config{
		Topology:             top,
		Timing:               s.timing(),
		HostRate:             s.HostRate,
		Piggyback:            s.Piggyback,
		RequestThresholdPkts: s.RequestThresholdPkts,
		PriorityQueues:       s.PriorityQueues,
		NewMatcher:           s.matcherFactory(),
		Failures:             plan,
		Seed:                 s.Seed,
		CheckInvariants:      s.CheckInvariants,
		OnDeliver:            s.OnDeliver,
		TrackReceiverBuffers: s.TrackReceiverBuffers,
		Workers:              s.Workers,
		DisableEventSkip:     s.DisableEventSkip,
		Relay:                s.SelectiveRelay,
	}
}

// Build constructs the fabric described by the spec. It rejects a
// negative value in any knob whose zero means "use the default".
func (s Spec) Build() (Fabric, error) {
	// Zero selects each knob's default; a negative value would otherwise
	// run silently as that default (or, for the threshold, as itself).
	for _, k := range []struct {
		name string
		v    int64
	}{
		{"ScheduledSlots", int64(s.ScheduledSlots)},
		{"PredefinedSlotTime", int64(s.PredefinedSlotTime)},
		{"ReconfigDelay", int64(s.ReconfigDelay)},
		{"RequestThresholdPkts", int64(s.RequestThresholdPkts)},
		{"Workers", int64(s.Workers)},
	} {
		if k.v < 0 {
			return nil, fmt.Errorf("negotiator: Spec.%s (%d) is negative; zero selects the default", k.name, k.v)
		}
	}
	if s.HostRate <= 0 {
		// Workloads scale arrival rates and goodput normalises by it: zero
		// would make a Poisson generator's gaps vanish.
		return nil, fmt.Errorf("negotiator: Spec.HostRate (%d Gbps) must be positive", s.HostRate)
	}
	// A value outside an enum would fall through every switch to its
	// default and run silently as something else.
	switch {
	case s.Topology != ParallelNetwork && s.Topology != ThinClos:
		return nil, fmt.Errorf("negotiator: unknown Spec.Topology %d", s.Topology)
	case !slices.Contains(ControlPlanes(), s.ControlPlane):
		return nil, fmt.Errorf("negotiator: unknown Spec.ControlPlane %d", s.ControlPlane)
	case s.Scheduler < Matching || s.Scheduler > ISLIPStyle:
		return nil, fmt.Errorf("negotiator: unknown Spec.Scheduler %d", s.Scheduler)
	}
	top, err := s.buildTopology()
	if err != nil {
		return nil, err
	}
	if s.Workers > s.ToRs {
		// Shards are contiguous ToR ranges and every worker must own at
		// least one: reject the oversubscription here, where the caller
		// chose both numbers, instead of silently clamping or letting an
		// empty shard surface mid-run.
		return nil, fmt.Errorf("negotiator: Spec.Workers (%d) exceeds ToRs (%d): each worker shards a non-empty contiguous ToR range; lower Workers (or pass 0 for sequential)", s.Workers, s.ToRs)
	}
	var plan *failure.Plan
	if s.Failures != nil {
		plan, err = s.Failures.compile(s)
		if err != nil {
			return nil, err
		}
	}
	var core *fabric.Core
	switch s.ControlPlane {
	case ObliviousPlane:
		ot := oblivious.DefaultTiming()
		ot.LinkRate = s.LinkRate
		ot.PropDelay = s.PropDelay
		if s.ReconfigDelay > 0 {
			ot.Slot = ot.Slot - ot.Guardband + s.ReconfigDelay
			ot.Guardband = s.ReconfigDelay
		}
		e, err := oblivious.New(oblivious.Config{
			Topology:         top,
			Timing:           ot,
			HostRate:         s.HostRate,
			PriorityQueues:   s.PriorityQueues,
			Seed:             s.Seed,
			Failures:         plan,
			CheckInvariants:  s.CheckInvariants,
			OnDeliver:        s.OnDeliver,
			OnTransit:        s.OnTransit,
			Workers:          s.Workers,
			DisableEventSkip: s.DisableEventSkip,
		})
		if err != nil {
			return nil, err
		}
		core = e.Core
	case HybridPlane:
		e, err := hybrid.New(s.engineConfig(top, plan))
		if err != nil {
			return nil, err
		}
		core = e.Core
	default:
		e, err := negotiator.New(s.engineConfig(top, plan))
		if err != nil {
			return nil, err
		}
		core = e.Core
	}
	return &coreFabric{Core: core, spec: s}, nil
}

// FailureScenario selects the shape of a failure plan. The vocabulary
// covers the paper's random simultaneous cuts (Figure 10) plus correlated
// patterns real deployments see: links that flap, one AWGR dying (the
// same port index across every ToR), and whole-ToR power events.
type FailureScenario int

const (
	// RandomLinks fails Fraction of all directed links (or the explicit
	// Links) over [FailAt, RecoverAt) — the default, and the paper's
	// Figure 10 scenario.
	RandomLinks FailureScenario = iota
	// FlappingLinks fails Fraction of links periodically: down for
	// DownFor at the start of each Period, for Cycles periods from
	// FailAt. Exercises recovery-detection lag in both directions.
	FlappingLinks
	// PortGroupFailure takes out one AWGR: port index Port on every ToR,
	// both directions, over [FailAt, RecoverAt).
	PortGroupFailure
	// ToRFailure powers ToR down over [FailAt, RecoverAt): every port,
	// both directions.
	ToRFailure
)

func (sc FailureScenario) String() string {
	switch sc {
	case FlappingLinks:
		return "flapping"
	case PortGroupFailure:
		return "port-group"
	case ToRFailure:
		return "tor-down"
	default:
		return "random"
	}
}

// FailureScenarios lists every selectable scenario.
func FailureScenarios() []FailureScenario {
	return []FailureScenario{RandomLinks, FlappingLinks, PortGroupFailure, ToRFailure}
}

// FailureScenarioByName resolves a CLI name (see FailureScenario.String).
func FailureScenarioByName(name string) (FailureScenario, bool) {
	for _, sc := range FailureScenarios() {
		if sc.String() == name {
			return sc, true
		}
	}
	return 0, false
}

// FailurePlan describes link failures for the fault-tolerance experiments
// (§4.3, Appendix A.4). Plans run on every control plane: the fabric core
// owns the failure state and requeue semantics.
type FailurePlan struct {
	// Scenario picks the plan shape; the zero value is RandomLinks.
	Scenario FailureScenario
	// Fraction of all directed port-links to fail (RandomLinks, Figure
	// 10) or flap (FlappingLinks). Mutually exclusive with Links.
	Fraction float64
	// Links lists explicit failures (Figure 19, RandomLinks only). Each
	// entry is (tor, port, ingress).
	Links []FailedLink
	// FailAt and RecoverAt bound the outage (RecoverAt <= FailAt means
	// never recovers). FlappingLinks uses FailAt as the first cycle start.
	FailAt, RecoverAt Time
	// DetectDelay is the fabric's detection lag; zero means three epochs
	// at default timing.
	DetectDelay Duration
	// Period, DownFor and Cycles shape FlappingLinks: each selected link
	// is down for DownFor at the start of each Period, Cycles times. Zero
	// DownFor means Period/2; zero Cycles means 8.
	Period, DownFor Duration
	Cycles          int
	// Port is the AWGR port index PortGroupFailure kills on every ToR.
	Port int
	// ToR is the ToR index ToRFailure powers down.
	ToR int
	// Seed selects which links fail for Fraction-based plans.
	Seed int64
}

// FailedLink names one direction of one uplink port.
type FailedLink struct {
	ToR, Port int
	Ingress   bool
}

func (p *FailurePlan) compile(s Spec) (*failure.Plan, error) {
	// The failure constructors skip out-of-range links and clamp odd
	// shapes, so anything they would quietly ignore is an error here.
	if !slices.Contains(FailureScenarios(), p.Scenario) {
		return nil, fmt.Errorf("negotiator: FailurePlan: unknown Scenario %d", p.Scenario)
	}
	if !(p.Fraction >= 0 && p.Fraction <= 1) {
		return nil, fmt.Errorf("negotiator: FailurePlan: Fraction %v outside [0, 1]", p.Fraction)
	}
	if p.DetectDelay < 0 || p.Period < 0 || p.DownFor < 0 || p.Cycles < 0 {
		return nil, fmt.Errorf("negotiator: FailurePlan: negative DetectDelay (%v), Period (%v), DownFor (%v) or Cycles (%d)",
			p.DetectDelay, p.Period, p.DownFor, p.Cycles)
	}
	detect := p.DetectDelay
	if detect == 0 {
		detect = 3 * negotiator.DefaultTiming().EpochLen(16)
	}
	switch p.Scenario {
	case FlappingLinks:
		if p.Fraction <= 0 {
			return nil, fmt.Errorf("negotiator: FailurePlan: flapping needs Fraction > 0")
		}
		if p.Period <= 0 {
			return nil, fmt.Errorf("negotiator: FailurePlan: flapping needs Period > 0")
		}
		down := p.DownFor
		if down == 0 {
			down = p.Period / 2
		}
		cycles := p.Cycles
		if cycles == 0 {
			cycles = 8
		}
		return failure.Flapping(s.ToRs, s.Ports, p.Fraction, p.FailAt, p.Period, down, cycles, detect, p.Seed), nil
	case PortGroupFailure:
		if p.Port < 0 || p.Port >= s.Ports {
			return nil, fmt.Errorf("negotiator: FailurePlan: port %d out of range [0, %d)", p.Port, s.Ports)
		}
		return failure.PortGroup(s.ToRs, s.Ports, p.Port, p.FailAt, p.RecoverAt, detect), nil
	case ToRFailure:
		if p.ToR < 0 || p.ToR >= s.ToRs {
			return nil, fmt.Errorf("negotiator: FailurePlan: tor %d out of range [0, %d)", p.ToR, s.ToRs)
		}
		return failure.ToRDown(s.ToRs, s.Ports, p.ToR, p.FailAt, p.RecoverAt, detect), nil
	}
	if p.Fraction > 0 && len(p.Links) > 0 {
		return nil, fmt.Errorf("negotiator: FailurePlan: set Fraction or Links, not both")
	}
	if p.Fraction > 0 {
		return failure.Random(s.ToRs, s.Ports, p.Fraction, p.FailAt, p.RecoverAt, detect, p.Seed), nil
	}
	links := make([]failure.Link, len(p.Links))
	for i, l := range p.Links {
		if l.ToR < 0 || l.ToR >= s.ToRs || l.Port < 0 || l.Port >= s.Ports {
			return nil, fmt.Errorf("negotiator: FailurePlan: link (tor %d, port %d) out of range [0, %d) x [0, %d)", l.ToR, l.Port, s.ToRs, s.Ports)
		}
		links[i] = failure.Link{ToR: l.ToR, Port: l.Port, Ingress: l.Ingress}
	}
	return failure.Single(links, p.FailAt, p.RecoverAt, detect), nil
}

// Summary reports a run's headline measurements in the paper's units.
type Summary struct {
	// Flows and MiceFlows completed.
	Flows, MiceFlows int
	// Mice99p and MiceMean are mice-flow FCTs (flows < 10 KB).
	Mice99p, MiceMean Duration
	// All99p is the 99th-percentile FCT over all flows.
	All99p Duration
	// GoodputNormalized is delivered goodput over the host aggregate
	// bandwidth, averaged across ToRs (§4.1).
	GoodputNormalized float64
	// MatchRatio is the mean accept/grant ratio (Appendix A.1); zero for
	// the baseline.
	MatchRatio float64
	// EpochLen is the fabric's epoch (NegotiaToR) or round-robin cycle
	// (baseline) duration.
	EpochLen Duration
	// Epochs counts scheduling rounds executed: epochs for NegotiaToR,
	// full round-robin cycles for the baseline (the unit EpochLen spans).
	Epochs int64
	// Injected and Delivered are total bytes.
	Injected, Delivered int64
	// LostBytes are bytes destroyed by link failures before their source
	// requeue, cumulative over the run; zero without failure injection.
	// All three control planes report it.
	LostBytes int64
	// Duration is the simulated time covered.
	Duration Duration
	// PeakReceiverBuffer is the largest receiver-side ToR-to-host backlog
	// (§3.6.5); zero unless Spec.TrackReceiverBuffers was set.
	PeakReceiverBuffer int64
}

// EventStat describes one tagged application event (e.g. an incast).
type EventStat struct {
	Start, End  Time
	Flows, Done int
}

// FinishTime is the event's completion latency (zero until all flows
// finish).
func (e EventStat) FinishTime() Duration {
	if e.Done < e.Flows {
		return 0
	}
	return e.End.Sub(e.Start)
}

// Fabric is a runnable network simulation under any of the three control
// planes.
type Fabric interface {
	// SetWorkload attaches the arrival stream; call before Run.
	SetWorkload(Workload)
	// Run advances the simulation to at least the given simulated time.
	Run(Duration)
	// RunEpochs advances exactly k scheduling rounds — epochs for
	// NegotiaToR, full round-robin cycles for the baseline — so callers
	// can step whole rounds without duration arithmetic.
	RunEpochs(k int)
	// Drain runs until all injected traffic is delivered (or the step
	// budget is exhausted) and reports whether it drained.
	Drain(budget int) bool
	// Summary reports headline metrics.
	Summary() Summary
	// MiceCDF returns the mice-flow FCT CDF (Figure 6).
	MiceCDF(points int) []metrics.CDFPoint
	// Events returns tagged application events (incasts) by tag.
	Events() map[int]EventStat
	// MatchRatioSeries returns the per-epoch accept/grant ratios (nil for
	// the oblivious baseline, which negotiates nothing).
	MatchRatioSeries() []float64
	// Spec returns the spec the fabric was built from.
	Spec() Spec
	// Snapshot serializes the fabric's complete simulation state at a
	// round boundary into a versioned, CRC-guarded checkpoint stream. A
	// checkpoint is a resume token, not an archive: it captures state, not
	// configuration, and is only valid for a fabric rebuilt from the same
	// Spec by the same binary.
	Snapshot(w io.Writer) error
	// Restore applies a checkpoint to a freshly built fabric of the same
	// Spec. SetWorkload (with the identically constructed generator) must
	// be called first; the run then continues byte-identically to the
	// uninterrupted one, at any worker count. A corrupt or mismatched
	// checkpoint returns an error and leaves the fabric as it was; only a
	// checkpoint that fails in the workload replay, which comes last, has
	// drawn the attached generator, which must then be attached afresh.
	Restore(r io.Reader) error
}

// Workload is an arrival stream (re-exported).
type Workload = workload.Generator

// coreFabric is the one Fabric implementation. Every control plane runs
// over, and reports through, the embedded fabric core: it supplies
// SetWorkload, Run, RunEpochs, Drain and Snapshot, and the methods below
// restore a checkpoint into a fresh core and translate its Results into
// the paper's units.
type coreFabric struct {
	*fabric.Core
	spec Spec
}

func (f *coreFabric) Spec() Spec { return f.spec }

// Restore restores the checkpoint into a fresh build of the spec, with this
// fabric's workload attached, and adopts that build only once the whole
// checkpoint has restored: a failed restore leaves this fabric as it was.
// The build costs what Spec.Build costs, once more.
func (f *coreFabric) Restore(r io.Reader) error {
	// Every clock advance and injection happens in a round.
	if f.Rounds() != 0 {
		return fmt.Errorf("negotiator: restore target must be a freshly built fabric (it has run %d rounds)", f.Rounds())
	}
	fresh, err := f.spec.Build()
	if err != nil {
		return err
	}
	core := fresh.(*coreFabric).Core
	core.SetWorkload(f.Workload())
	if err := core.Restore(r); err != nil {
		return err
	}
	f.Core = core
	return nil
}

func (f *coreFabric) Summary() Summary {
	r := f.Results()
	return Summary{
		Flows:              r.FCT.Count(),
		MiceFlows:          r.FCT.MiceCount(),
		Mice99p:            r.FCT.MiceP(99),
		MiceMean:           r.FCT.MiceMean(),
		All99p:             r.FCT.P(99),
		GoodputNormalized:  r.Goodput.Normalized(r.Duration, f.spec.HostRate),
		MatchRatio:         r.MatchRatio.Mean(),
		EpochLen:           r.EpochLen,
		Epochs:             r.Epochs,
		Injected:           r.Injected,
		Delivered:          r.Delivered,
		LostBytes:          r.LostBytes,
		Duration:           r.Duration,
		PeakReceiverBuffer: r.PeakReceiverBuffer,
	}
}

func (f *coreFabric) MiceCDF(points int) []metrics.CDFPoint {
	return f.MergedFCT().MiceCDF(points)
}

func (f *coreFabric) Events() map[int]EventStat {
	out := make(map[int]EventStat)
	for tag, ts := range f.Tags {
		out[tag] = EventStat{Start: ts.Start, End: ts.End, Flows: ts.Flows, Done: ts.Done}
	}
	return out
}

func (f *coreFabric) MatchRatioSeries() []float64 { return f.MatchRatio.Series() }
