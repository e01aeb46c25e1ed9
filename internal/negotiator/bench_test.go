package negotiator

import (
	"testing"

	"negotiator/internal/sim"
	"negotiator/internal/topo"
	"negotiator/internal/workload"
)

// benchEngine builds a paper-scale engine with a saturating workload.
func benchEngine(b *testing.B, kind string, load float64) *Engine {
	b.Helper()
	var top topo.Topology
	var err error
	if kind == "parallel" {
		top, err = topo.NewParallel(128, 8)
	} else {
		top, err = topo.NewThinClos(128, 8, 16)
	}
	if err != nil {
		b.Fatal(err)
	}
	e, err := New(Config{
		Topology:       top,
		HostRate:       sim.Gbps(400),
		Piggyback:      true,
		PriorityQueues: true,
		Seed:           1,
	})
	if err != nil {
		b.Fatal(err)
	}
	e.SetWorkload(workload.NewPoisson(workload.Hadoop(), 128, load, sim.Gbps(400), 7))
	// Warm up past the pipeline fill.
	e.RunEpochs(50)
	return e
}

// BenchmarkEpochParallel measures one full epoch (control step, predefined
// phase with piggybacking, scheduled phase) at paper scale under 100% load
// on the parallel network.
func BenchmarkEpochParallel(b *testing.B) {
	e := benchEngine(b, "parallel", 1.0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.RunRound()
	}
}

// BenchmarkEpochThinClos is the thin-clos counterpart.
func BenchmarkEpochThinClos(b *testing.B) {
	e := benchEngine(b, "thinclos", 1.0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.RunRound()
	}
}

// BenchmarkEpochLightLoad shows the idle-fabric epoch cost.
func BenchmarkEpochLightLoad(b *testing.B) {
	e := benchEngine(b, "parallel", 0.1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.RunRound()
	}
}

// BenchmarkControlStep isolates the distributed scheduling computation
// (REQUEST + GRANT + ACCEPT for 128 ToRs).
func BenchmarkControlStep(b *testing.B) {
	e := benchEngine(b, "parallel", 1.0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.controlStep(e.Now())
	}
}

// BenchmarkSimSecondPerWallSecond reports simulated-vs-wall time for the
// default full-load setup, the figure that determines experiment runtimes.
func BenchmarkSimThroughput(b *testing.B) {
	e := benchEngine(b, "parallel", 1.0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.RunEpochs(10)
	}
	b.StopTimer()
	simNs := float64(e.epochLn) * 10
	b.ReportMetric(simNs, "simns/op")
}
