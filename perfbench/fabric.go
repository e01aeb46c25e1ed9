package main

import (
	"fmt"
	"time"

	"negotiator"
	"negotiator/internal/match"
	"negotiator/internal/metrics"
	inegotiator "negotiator/internal/negotiator"
	"negotiator/internal/oblivious"
	"negotiator/internal/sim"
	"negotiator/internal/topo"
)

// fabricUnderTest is the part of negotiator.Fabric a run drives.
type fabricUnderTest interface {
	SetWorkload(negotiator.Workload)
	RunEpochs(k int)
	Drain(budget int) bool
	Summary() negotiator.Summary
	MiceCDF(points int) []metrics.CDFPoint
}

// build constructs the fabric through Spec.Build, except when a matcher
// wrapper is wanted on the NegotiaToR plane: the facade has no matcher
// hook, so that fabric is built through internal/negotiator with
// Config.NewMatcher, mirroring what Spec.Build does for spec. The run's
// fingerprint check confirms both builds simulate the same program.
func build(spec negotiator.Spec, ls *layerStats, grantSpin time.Duration) (fabricUnderTest, error) {
	if spec.ControlPlane != negotiator.NegotiaToRPlane || (ls == nil && grantSpin == 0) {
		f, err := spec.Build()
		if err != nil {
			return nil, err
		}
		return f, nil
	}
	if ls == nil {
		ls = &layerStats{}
	}
	return buildNegotiator(spec, ls, grantSpin)
}

func buildNegotiator(s negotiator.Spec, ls *layerStats, grantSpin time.Duration) (*engineFabric, error) {
	if s.Topology != negotiator.ParallelNetwork || s.Scheduler != negotiator.Matching || s.Failures != nil || s.SelectiveRelay {
		return nil, fmt.Errorf("matcher wrapper: only the default scheduler on the parallel network without failures or relay is supported")
	}
	top, err := topo.NewParallel(s.ToRs, s.Ports)
	if err != nil {
		return nil, err
	}
	t := inegotiator.DefaultTiming()
	t.LinkRate, t.PropDelay = s.LinkRate, s.PropDelay
	if s.ScheduledSlots > 0 {
		t.ScheduledSlots = s.ScheduledSlots
	}
	if s.PredefinedSlotTime > 0 {
		t.PredefinedSlot = s.PredefinedSlotTime
	}
	if s.ReconfigDelay > 0 && s.ReconfigDelay != t.Guardband {
		t.PredefinedSlot = t.PredefinedSlot - t.Guardband + s.ReconfigDelay
		t.Guardband = s.ReconfigDelay
	}
	e, err := inegotiator.New(inegotiator.Config{
		Topology:             top,
		Timing:               t,
		HostRate:             s.HostRate,
		Piggyback:            s.Piggyback,
		RequestThresholdPkts: s.RequestThresholdPkts,
		PriorityQueues:       s.PriorityQueues,
		NewMatcher: func(tp topo.Topology, _ inegotiator.Timing, rng *sim.RNG) match.Matcher {
			return wrapMatcher(match.NewNegotiator(tp, rng), ls, grantSpin)
		},
		Seed:               s.Seed,
		OnDeliver:          s.OnDeliver,
		Workers:            s.Workers,
		DisableEventSkip:   s.DisableEventSkip,
		DisableIncremental: s.DisableIncremental,
	})
	if err != nil {
		return nil, err
	}
	return &engineFabric{e: e, hostRate: s.HostRate}, nil
}

// engineFabric drives an internal/negotiator engine the way the facade's
// NegotiaToR fabric does, Summary assembly included.
type engineFabric struct {
	e        *inegotiator.Engine
	hostRate sim.Rate
}

func (f *engineFabric) SetWorkload(w negotiator.Workload) { f.e.SetWorkload(w) }
func (f *engineFabric) RunEpochs(k int)                   { f.e.RunEpochs(k) }
func (f *engineFabric) Drain(budget int) bool             { return f.e.Drain(budget) }

func (f *engineFabric) Summary() negotiator.Summary {
	r := f.e.Results()
	return negotiator.Summary{
		Flows:              r.FCT.Count(),
		MiceFlows:          r.FCT.MiceCount(),
		Mice99p:            r.FCT.MiceP(99),
		MiceMean:           r.FCT.MiceMean(),
		All99p:             r.FCT.P(99),
		GoodputNormalized:  r.Goodput.Normalized(r.Duration, f.hostRate),
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

func (f *engineFabric) MiceCDF(points int) []metrics.CDFPoint {
	return f.e.Results().FCT.MiceCDF(points)
}

// roundsPerEpoch is how many core rounds one RunEpochs(1) step spans: one
// epoch on the epoch planes, and on the oblivious plane, whose Drain budget
// counts slots, the slots of one round-robin cycle.
func roundsPerEpoch(spec negotiator.Spec, epochLen negotiator.Duration) int {
	if spec.ControlPlane != negotiator.ObliviousPlane {
		return 1
	}
	ot := oblivious.DefaultTiming()
	slot := ot.Slot
	if spec.ReconfigDelay > 0 {
		slot = slot - ot.Guardband + spec.ReconfigDelay
	}
	return int(epochLen / slot)
}
