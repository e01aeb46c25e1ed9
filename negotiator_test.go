package negotiator_test

import (
	"strings"
	"testing"

	negotiator "negotiator"
)

func TestDefaultSpecMatchesPaper(t *testing.T) {
	s := negotiator.DefaultSpec()
	if s.ToRs != 128 || s.Ports != 8 || s.AWGRPorts != 16 {
		t.Errorf("default dimensions %d/%d/%d, want 128/8/16", s.ToRs, s.Ports, s.AWGRPorts)
	}
	if s.LinkRate != negotiator.Gbps(100) || s.HostRate != negotiator.Gbps(400) {
		t.Error("default rates should be 100G ports over 400G hosts (2x speedup)")
	}
	if !s.Piggyback || !s.PriorityQueues {
		t.Error("PB and PQ are on by default in the paper's evaluation")
	}
	if s.ReconfigDelay != 10 || s.ScheduledSlots != 30 {
		t.Error("default epoch parameters mismatch §4.1")
	}
}

func TestBuildAllTopologySystemCombos(t *testing.T) {
	for _, top := range []negotiator.Topology{negotiator.ParallelNetwork, negotiator.ThinClos} {
		for _, plane := range negotiator.ControlPlanes() {
			spec := negotiator.SmallSpec()
			spec.Topology = top
			spec.ControlPlane = plane
			fab, err := spec.Build()
			if err != nil {
				t.Fatalf("%v %v: %v", top, plane, err)
			}
			fab.SetWorkload(negotiator.PoissonWorkload(spec, negotiator.Hadoop, 0.5, 1))
			fab.Run(200 * negotiator.Microsecond)
			if fab.Summary().Flows == 0 {
				t.Errorf("%v %v: no flows completed", top, plane)
			}
		}
	}
}

func TestBuildValidation(t *testing.T) {
	spec := negotiator.SmallSpec()
	spec.Topology = negotiator.ThinClos
	spec.AWGRPorts = 5 // 16 != 4*5
	if _, err := spec.Build(); err == nil {
		t.Error("invalid thin-clos dimensions accepted")
	}
	spec = negotiator.SmallSpec()
	spec.SelectiveRelay = true // parallel network: relay is thin-clos-only
	if _, err := spec.Build(); err == nil {
		t.Error("selective relay on parallel accepted")
	}
	for _, gbps := range []int64{0, -100} {
		for _, plane := range negotiator.ControlPlanes() {
			spec = negotiator.SmallSpec()
			spec.ControlPlane = plane
			spec.HostRate = negotiator.Gbps(gbps)
			if _, err := spec.Build(); err == nil || !strings.Contains(err.Error(), "HostRate") {
				t.Errorf("%v: HostRate %d Gbps accepted (err %v)", plane, gbps, err)
			}
		}
	}
	spec = negotiator.SmallSpec()
	spec.ControlPlane = negotiator.HybridPlane
	spec.Scheduler = negotiator.Iterative3
	if _, err := spec.Build(); err == nil || !strings.Contains(err.Error(), "NegotiaToR Matching") {
		t.Errorf("hybrid with a scheduler variant accepted (err %v)", err)
	}
	spec = negotiator.SmallSpec()
	spec.ControlPlane = negotiator.HybridPlane
	spec.Topology = negotiator.ThinClos
	spec.SelectiveRelay = true
	if _, err := spec.Build(); err == nil || !strings.Contains(err.Error(), "selective relay") {
		t.Errorf("hybrid with selective relay accepted (err %v)", err)
	}
	spec = negotiator.SmallSpec()
	spec.ControlPlane = negotiator.ObliviousPlane
	spec.Failures = &negotiator.FailurePlan{Fraction: 0.1}
	if _, err := spec.Build(); err != nil {
		t.Errorf("failure plan on oblivious baseline rejected: %v", err)
	}
	spec = negotiator.SmallSpec()
	spec.ControlPlane = negotiator.HybridPlane
	spec.Failures = &negotiator.FailurePlan{Fraction: 0.1}
	if _, err := spec.Build(); err != nil {
		t.Errorf("failure plan on hybrid rejected: %v", err)
	}
	spec = negotiator.SmallSpec()
	spec.Failures = &negotiator.FailurePlan{Scenario: negotiator.FlappingLinks, Fraction: 0.1}
	if _, err := spec.Build(); err == nil {
		t.Error("flapping plan without Period accepted")
	}
	spec = negotiator.SmallSpec()
	spec.Failures = &negotiator.FailurePlan{Scenario: negotiator.PortGroupFailure, Port: 99}
	if _, err := spec.Build(); err == nil {
		t.Error("port-group plan with out-of-range port accepted")
	}
	spec = negotiator.SmallSpec()
	spec.Failures = &negotiator.FailurePlan{Scenario: negotiator.ToRFailure, ToR: -1}
	if _, err := spec.Build(); err == nil {
		t.Error("tor-down plan with out-of-range ToR accepted")
	}
	spec = negotiator.SmallSpec()
	spec.Failures = &negotiator.FailurePlan{
		Fraction: 0.1,
		Links:    []negotiator.FailedLink{{ToR: 0, Port: 0}},
	}
	if _, err := spec.Build(); err == nil {
		t.Error("failure plan with both Fraction and Links accepted")
	}
	// Shards are contiguous ToR ranges: more workers than ToRs would leave
	// empty shards, so Build rejects strictly; one worker per ToR is the
	// accepted maximum.
	spec = negotiator.SmallSpec()
	spec.Workers = spec.ToRs + 1
	if _, err := spec.Build(); err == nil {
		t.Error("Workers > ToRs accepted")
	}
	spec.Workers = spec.ToRs
	if _, err := spec.Build(); err != nil {
		t.Errorf("Workers == ToRs rejected: %v", err)
	}
	// Every plane rejects a negative knob whose zero means "the default",
	// naming the field, and fails negative ToRs in the topology rather
	// than on Workers.
	for _, plane := range negotiator.ControlPlanes() {
		for _, tc := range negativeKnobs {
			spec := negotiator.SmallSpec()
			spec.ControlPlane = plane
			tc.edit(&spec)
			if _, err := spec.Build(); err == nil || !strings.Contains(err.Error(), "Spec."+tc.field) {
				t.Errorf("%v: negative %s: err = %v, want a rejection naming Spec.%s", plane, tc.field, err, tc.field)
			}
		}
		spec := negotiator.SmallSpec()
		spec.ControlPlane = plane
		spec.ToRs = -4
		if _, err := spec.Build(); err == nil || strings.Contains(err.Error(), "Workers") || !strings.Contains(err.Error(), "n=-4") {
			t.Errorf("%v: ToRs -4: err = %v, want a topology rejection that does not blame Workers", plane, err)
		}
	}
	// Values that used to run exactly like a default, or like no failure
	// plan at all, are rejected.
	flap := func(edit func(*negotiator.FailurePlan)) func(*negotiator.Spec) {
		return func(s *negotiator.Spec) {
			s.Failures = &negotiator.FailurePlan{Scenario: negotiator.FlappingLinks, Fraction: 0.1, Period: negotiator.Millisecond}
			edit(s.Failures)
		}
	}
	links := func(l negotiator.FailedLink) func(*negotiator.Spec) {
		return func(s *negotiator.Spec) { s.Failures = &negotiator.FailurePlan{Links: []negotiator.FailedLink{l}} }
	}
	fraction := func(f float64) func(*negotiator.Spec) {
		return func(s *negotiator.Spec) { s.Failures = &negotiator.FailurePlan{Fraction: f} }
	}
	for _, tc := range []struct {
		name, want string
		edit       func(*negotiator.Spec)
	}{
		{"link on tor 99", "out of range", links(negotiator.FailedLink{ToR: 99})},
		{"link on port 99", "out of range", links(negotiator.FailedLink{Port: 99})},
		{"link on tor -1", "out of range", links(negotiator.FailedLink{ToR: -1, Ingress: true})},
		{"fraction 1.5", "Fraction", fraction(1.5)},
		{"fraction -0.5", "Fraction", fraction(-0.5)},
		{"negative DetectDelay", "negative", func(s *negotiator.Spec) {
			s.Failures = &negotiator.FailurePlan{Fraction: 0.1, DetectDelay: -negotiator.Microsecond}
		}},
		{"negative Cycles", "negative", flap(func(p *negotiator.FailurePlan) { p.Cycles = -1 })},
		{"negative DownFor", "negative", flap(func(p *negotiator.FailurePlan) { p.DownFor = -negotiator.Microsecond })},
		{"negative Period on random links", "negative", func(s *negotiator.Spec) {
			s.Failures = &negotiator.FailurePlan{Fraction: 0.1, Period: -negotiator.Microsecond}
		}},
		{"FailureScenario 42", "Scenario", func(s *negotiator.Spec) {
			s.Failures = &negotiator.FailurePlan{Scenario: 42, Fraction: 0.1}
		}},
		{"Scheduler 99", "Scheduler", func(s *negotiator.Spec) { s.Scheduler = 99 }},
		{"ControlPlaneKind 99", "ControlPlane", func(s *negotiator.Spec) { s.ControlPlane = 99 }},
		{"Topology 99", "Topology", func(s *negotiator.Spec) { s.Topology = 99 }},
	} {
		spec := negotiator.SmallSpec()
		tc.edit(&spec)
		if _, err := spec.Build(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want a rejection mentioning %q", tc.name, err, tc.want)
		}
	}
}

// negativeKnobs sets, one at a time, a negative value in each Spec knob
// whose zero means "use the default".
var negativeKnobs = []struct {
	field string
	edit  func(*negotiator.Spec)
}{
	{"ScheduledSlots", func(s *negotiator.Spec) { s.ScheduledSlots = -1 }},
	{"PredefinedSlotTime", func(s *negotiator.Spec) { s.PredefinedSlotTime = -10 }},
	{"ReconfigDelay", func(s *negotiator.Spec) { s.ReconfigDelay = -5 }},
	{"RequestThresholdPkts", func(s *negotiator.Spec) { s.RequestThresholdPkts = -2 }},
	{"Workers", func(s *negotiator.Spec) { s.Workers = -3 }},
}

func TestAllSchedulersBuildAndRun(t *testing.T) {
	for _, sch := range []negotiator.Scheduler{
		negotiator.Matching, negotiator.Iterative1, negotiator.Iterative3,
		negotiator.Iterative5, negotiator.DataSizePriority,
		negotiator.HoLDelayPriority, negotiator.Stateful, negotiator.ProjecToRStyle,
	} {
		spec := negotiator.SmallSpec()
		spec.Scheduler = sch
		fab, err := spec.Build()
		if err != nil {
			t.Fatalf("%v: %v", sch, err)
		}
		fab.SetWorkload(negotiator.PoissonWorkload(spec, negotiator.Hadoop, 0.5, 3))
		fab.Run(300 * negotiator.Microsecond)
		if fab.Summary().Flows == 0 {
			t.Errorf("%v: no completions", sch)
		}
	}
}

func TestHeadlineResultShape(t *testing.T) {
	// The paper's central claim at small scale: under heavy load,
	// NegotiaToR's mice 99p FCT beats the traffic-oblivious baseline by a
	// large factor, and goodput is at least comparable.
	runSys := func(plane negotiator.ControlPlaneKind) negotiator.Summary {
		spec := negotiator.SmallSpec()
		spec.Topology = negotiator.ThinClos
		spec.ControlPlane = plane
		fab, err := spec.Build()
		if err != nil {
			t.Fatal(err)
		}
		fab.SetWorkload(negotiator.PoissonWorkload(spec, negotiator.Hadoop, 0.9, 7))
		fab.Run(3 * negotiator.Millisecond)
		return fab.Summary()
	}
	neg, obl := runSys(negotiator.NegotiaToRPlane), runSys(negotiator.ObliviousPlane)
	if neg.Mice99p*5 > obl.Mice99p {
		t.Errorf("NegotiaToR mice 99p %v should be >5x better than baseline %v",
			neg.Mice99p, obl.Mice99p)
	}
	if neg.GoodputNormalized < 0.95*obl.GoodputNormalized {
		t.Errorf("NegotiaToR goodput %.3f should not trail baseline %.3f",
			neg.GoodputNormalized, obl.GoodputNormalized)
	}
}

func TestTable2ShapeAtSmallScale(t *testing.T) {
	// PB+PQ < PQ < PB < none for mice mean FCT at heavy load (Table 2).
	run := func(pb, pq bool) negotiator.Duration {
		spec := negotiator.SmallSpec()
		spec.Piggyback = pb
		spec.PriorityQueues = pq
		fab, err := spec.Build()
		if err != nil {
			t.Fatal(err)
		}
		fab.SetWorkload(negotiator.PoissonWorkload(spec, negotiator.Hadoop, 1.0, 9))
		fab.Run(3 * negotiator.Millisecond)
		return fab.Summary().MiceMean
	}
	none := run(false, false)
	pb := run(true, false)
	both := run(true, true)
	if !(both < pb && pb < none) {
		t.Errorf("ablation ordering broken: both=%v pb=%v none=%v", both, pb, none)
	}
	// With PB+PQ the mean should approach the ~2-epoch scheduling delay.
	spec := negotiator.SmallSpec()
	probe, _ := spec.Build()
	epoch := probe.Summary().EpochLen
	if both > 4*epoch {
		t.Errorf("PB+PQ mice mean %v exceeds 4 epochs (%v)", both, 4*epoch)
	}
}

func TestEventStatFinishTime(t *testing.T) {
	ev := negotiator.EventStat{Start: 100, End: 600, Flows: 5, Done: 5}
	if got := ev.FinishTime(); got != 500 {
		t.Errorf("finish = %v", got)
	}
	ev.Done = 4
	if got := ev.FinishTime(); got != 0 {
		t.Errorf("incomplete event finish = %v, want 0", got)
	}
}

func TestTraceProperties(t *testing.T) {
	for _, tr := range []negotiator.Trace{negotiator.Hadoop, negotiator.WebSearch, negotiator.Google} {
		if tr.MeanFlowBytes() <= 0 {
			t.Errorf("%v mean = %v", tr, tr.MeanFlowBytes())
		}
	}
	if negotiator.WebSearch.MeanFlowBytes() < negotiator.Hadoop.MeanFlowBytes() {
		t.Error("web search should be heavier than Hadoop")
	}
	if negotiator.Google.MeanFlowBytes() > negotiator.Hadoop.MeanFlowBytes() {
		t.Error("Google should be lighter than Hadoop")
	}
}

func TestLoadForRoundTrip(t *testing.T) {
	spec := negotiator.DefaultSpec()
	// A 1µs inter-arrival of Hadoop flows on the paper's network.
	load := negotiator.LoadFor(spec, negotiator.Hadoop, negotiator.Microsecond)
	if load <= 0 {
		t.Fatalf("load = %v", load)
	}
}

func TestStringers(t *testing.T) {
	if negotiator.ParallelNetwork.String() != "parallel" || negotiator.ThinClos.String() != "thin-clos" {
		t.Error("topology strings")
	}
	if negotiator.Matching.String() != "negotiator-matching" {
		t.Error("scheduler string")
	}
	if negotiator.Hadoop.String() != "hadoop" || negotiator.Google.String() != "google" {
		t.Error("trace strings")
	}
}

func TestMiceCDFExposed(t *testing.T) {
	spec := negotiator.SmallSpec()
	fab, _ := spec.Build()
	fab.SetWorkload(negotiator.PoissonWorkload(spec, negotiator.Hadoop, 0.8, 5))
	fab.Run(1 * negotiator.Millisecond)
	cdf := fab.MiceCDF(10)
	if len(cdf) == 0 {
		t.Fatal("empty CDF")
	}
	if last := cdf[len(cdf)-1]; last.Frac != 1.0 {
		t.Errorf("CDF should end at 1.0: %+v", last)
	}
	if len(fab.MatchRatioSeries()) == 0 {
		t.Error("match ratio series empty")
	}
}

func TestMergeWorkloadsAndMixedIncast(t *testing.T) {
	spec := negotiator.SmallSpec()
	fab, _ := spec.Build()
	fab.SetWorkload(negotiator.MixedIncastWorkload(spec, negotiator.Hadoop, 0.5, 10, 1000, 0.02, 1, 3))
	fab.Run(1 * negotiator.Millisecond)
	if len(fab.Events()) == 0 {
		t.Error("mixed workload produced no incast events")
	}
}

func TestReceiverBufferTelemetry(t *testing.T) {
	spec := negotiator.SmallSpec()
	spec.TrackReceiverBuffers = true
	fab, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	fab.SetWorkload(negotiator.PoissonWorkload(spec, negotiator.Hadoop, 0.9, 5))
	fab.Run(1 * negotiator.Millisecond)
	s := fab.Summary()
	if s.PeakReceiverBuffer <= 0 {
		t.Error("peak receiver buffer not tracked")
	}
	// Without tracking it stays zero.
	spec.TrackReceiverBuffers = false
	fab2, _ := spec.Build()
	fab2.SetWorkload(negotiator.PoissonWorkload(spec, negotiator.Hadoop, 0.9, 5))
	fab2.Run(500 * negotiator.Microsecond)
	if fab2.Summary().PeakReceiverBuffer != 0 {
		t.Error("peak buffer reported without tracking")
	}
}

func TestSpecTimingKnobs(t *testing.T) {
	// Reconfiguration delay keeps the 50ns message time and changes the
	// guardband; predefined slot override changes piggyback capacity.
	spec := negotiator.SmallSpec()
	spec.ReconfigDelay = 50
	fab, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	// Epoch: 4 predefined slots of (50+50)ns + 30*90ns = 3100ns.
	if got := fab.Summary().EpochLen; got != 3100 {
		t.Errorf("epoch with 50ns guardband = %v, want 3.1µs", got)
	}
	spec = negotiator.SmallSpec()
	spec.PredefinedSlotTime = 120
	fab, err = spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	if got := fab.Summary().EpochLen; got != 4*120+30*90 {
		t.Errorf("epoch with 120ns slots = %v", got)
	}
	spec = negotiator.SmallSpec()
	spec.ScheduledSlots = 100
	fab, _ = spec.Build()
	if got := fab.Summary().EpochLen; got != 4*60+100*90 {
		t.Errorf("epoch with 100 scheduled slots = %v", got)
	}
}

func TestObliviousSummaryCycle(t *testing.T) {
	spec := negotiator.SmallSpec()
	spec.ControlPlane = negotiator.ObliviousPlane
	fab, _ := spec.Build()
	// 16 ToRs / 4 ports thin-... parallel: ceil(15/4)=4 slots x 60ns.
	if got := fab.Summary().EpochLen; got != 240 {
		t.Errorf("baseline cycle = %v, want 240ns", got)
	}
	if fab.MatchRatioSeries() != nil {
		t.Error("baseline should have no match ratio series")
	}
}

func TestClassicSchedulersViaSpec(t *testing.T) {
	for _, sch := range []negotiator.Scheduler{negotiator.PIMStyle, negotiator.ISLIPStyle} {
		spec := negotiator.SmallSpec()
		spec.Scheduler = sch
		fab, err := spec.Build()
		if err != nil {
			t.Fatalf("%v: %v", sch, err)
		}
		fab.SetWorkload(negotiator.PoissonWorkload(spec, negotiator.Hadoop, 0.6, 3))
		fab.Run(500 * negotiator.Microsecond)
		if fab.Summary().Flows == 0 {
			t.Errorf("%v: no completions", sch)
		}
	}
	if negotiator.PIMStyle.String() != "pim" || negotiator.ISLIPStyle.String() != "islip" {
		t.Error("classic scheduler strings")
	}
}

func TestRequestThresholdSpecKnob(t *testing.T) {
	// A higher threshold shifts small transfers onto the piggyback path
	// entirely; the knob must at least build and run.
	spec := negotiator.SmallSpec()
	spec.RequestThresholdPkts = 8
	fab, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	fab.SetWorkload(negotiator.PoissonWorkload(spec, negotiator.Hadoop, 0.5, 3))
	fab.Run(500 * negotiator.Microsecond)
	if fab.Summary().Flows == 0 {
		t.Error("no completions with custom threshold")
	}
}
