package negotiator_test

import (
	"testing"

	negotiator "negotiator"
)

// FuzzSpecBuild drives Spec.Build over bounded, partly invalid field
// values. Build must either reject the spec or yield a fabric that runs 6
// epochs of Hadoop at load 0.6 with CheckInvariants on without a panic,
// and a negative value in any knob whose zero means "the default" must be
// rejected. Each enum's range includes one out-of-range value.
//
// The seed corpus runs in plain `go test`; fuzz with:
//
//	go test -run '^$' -fuzz '^FuzzSpecBuild$' -fuzztime 20s .
func FuzzSpecBuild(f *testing.F) {
	for _, plane := range negotiator.ControlPlanes() {
		s := negotiator.SmallSpec()
		s.ControlPlane = plane
		addSpec(f, s)
	}
	for _, k := range negativeKnobs {
		s := negotiator.SmallSpec()
		k.edit(&s)
		addSpec(f, s)
	}
	f.Fuzz(func(t *testing.T, plane, top, sched uint8, tors, ports, awgr int8,
		linkGbps, hostGbps, reconfigNs, predefNs, propNs, slots int16, thr, workers int8, bits uint8) {
		// Each field is reduced modulo its bound, so every input maps
		// into range.
		s := negotiator.SmallSpec()
		s.ControlPlane = negotiator.ControlPlaneKind(plane % uint8(len(negotiator.ControlPlanes())+1))
		s.Topology = negotiator.Topology(top % 3)
		s.Scheduler = negotiator.Scheduler(sched % uint8(negotiator.ISLIPStyle+2))
		s.ToRs, s.Ports, s.AWGRPorts = int(tors%65), int(ports%10), int(awgr%17)
		s.LinkRate = negotiator.Gbps(int64(linkGbps % 1601))
		s.HostRate = negotiator.Gbps(int64(hostGbps % 3201))
		s.ReconfigDelay = negotiator.Duration(reconfigNs % 1001)
		s.PredefinedSlotTime = negotiator.Duration(predefNs % 1001)
		s.PropDelay = negotiator.Duration(propNs % 10001)
		s.ScheduledSlots = int(slots % 200)
		s.RequestThresholdPkts = int(thr % 11)
		s.Workers = int(workers % 9)
		s.Piggyback, s.PriorityQueues, s.SelectiveRelay = bits&1 != 0, bits&2 != 0, bits&4 != 0
		s.CheckInvariants = true

		fab, err := s.Build()
		if err != nil {
			return
		}
		if s.ScheduledSlots < 0 || s.PredefinedSlotTime < 0 || s.ReconfigDelay < 0 ||
			s.RequestThresholdPkts < 0 || s.Workers < 0 {
			t.Fatalf("Build accepted a negative knob: %+v", s)
		}
		fab.SetWorkload(negotiator.PoissonWorkload(s, negotiator.Hadoop, 0.6, 7))
		fab.RunEpochs(6)
	})
}

// addSpec adds the FuzzSpecBuild input that maps back to s (every field
// of s must already lie within the target's bounds).
func addSpec(f *testing.F, s negotiator.Spec) {
	var bits uint8
	for k, on := range []bool{s.Piggyback, s.PriorityQueues, s.SelectiveRelay} {
		if on {
			bits |= 1 << k
		}
	}
	f.Add(uint8(s.ControlPlane), uint8(s.Topology), uint8(s.Scheduler),
		int8(s.ToRs), int8(s.Ports), int8(s.AWGRPorts),
		int16(s.LinkRate), int16(s.HostRate), int16(s.ReconfigDelay),
		int16(s.PredefinedSlotTime), int16(s.PropDelay), int16(s.ScheduledSlots),
		int8(s.RequestThresholdPkts), int8(s.Workers), bits)
}
