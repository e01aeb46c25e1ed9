package main

import (
	"crypto/sha256"
	"fmt"
	"runtime"
	"slices"
	"syscall"
	"time"

	"negotiator"
)

// runOpts selects how one run is made. The spins exist for the
// sensitivity self-test only.
type runOpts struct {
	traced     bool
	spinNext   time.Duration // added to every Generator.Next call
	spinGrants time.Duration // added to every Matcher.Grants call
}

// result is one run of one workload, passed from a child process to the
// parent as JSON.
type result struct {
	SetupS      float64 `json:"setup_s"` // CPU seconds, see cpuTime
	RunS        float64 `json:"run_s"`   // CPU seconds
	PeakRSSMB   float64 `json:"peak_rss_mb"`
	AllocMB     float64 `json:"alloc_mb"`
	HostFlows   int64   `json:"host_flows"` // host flows handed to the fabric
	Flows       int64   `json:"flows"`      // host flows completed (Summary.Flows)
	RunFlows    int64   `json:"run_flows"`  // host flows completed during run_s
	FCTP99us    float64 `json:"fct_p99_us"`
	MiceP99us   float64 `json:"mice_p99_us"`
	Goodput     float64 `json:"goodput"`
	Fingerprint string  `json:"fingerprint"` // hash of Summary and MiceCDF(100)
	// Check names the first consistency check the run failed; empty if
	// none did.
	Check  string             `json:"check,omitempty"`
	Layers map[string]float64 `json:"layers,omitempty"`
}

// runOnce makes one run of w in this process.
func runOnce(w *workloadDef, seed int64, o runOpts) (*result, error) {
	spec := w.spec(seed)
	var ls *layerStats
	if o.traced {
		ls = &layerStats{}
		spec.OnDeliver = ls.deliver
	}
	g, err := w.gen(spec, seed)
	if err != nil {
		return nil, err
	}
	cut := &cutGen{g: g, spin: o.spinNext, ls: ls}
	runtime.GC()

	// Set-up: build, attach the stream, warm up.
	t0, c0 := time.Now(), cpuTime()
	fab, err := build(spec, ls, o.spinGrants)
	if err != nil {
		return nil, err
	}
	buildS := time.Since(t0).Seconds()
	epochLen := fab.Summary().EpochLen
	warm, window := epochsIn(w.warm, epochLen), epochsIn(w.window, epochLen)
	cut.end = negotiator.Time(int64(warm+window) * int64(epochLen))
	fab.SetWorkload(cut)
	fab.RunEpochs(warm)
	setupS := (cpuTime() - c0).Seconds()

	warmFlows := fab.Summary().Flows
	warmHostFlows := cut.hostFlows
	step := roundsPerEpoch(spec, epochLen)
	budget := epochsIn(w.drain, epochLen) * step
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)

	// Run: window, drain, Summary and MiceCDF.
	if ls != nil {
		ls.on = true
	}
	c1 := cpuTime()
	var drained bool
	if ls == nil {
		fab.RunEpochs(window)
		drained = fab.Drain(budget)
	} else {
		drained = stepRounds(fab, cut, ls, window, step, budget)
	}
	t2 := time.Now()
	sum := fab.Summary()
	cdf := fab.MiceCDF(100)
	t3, c3 := time.Now(), cpuTime()
	if ls != nil {
		ls.on = false
	}
	runtime.ReadMemStats(&ms1)

	r := &result{
		SetupS:      setupS,
		RunS:        (c3 - c1).Seconds(),
		AllocMB:     float64(ms1.TotalAlloc-ms0.TotalAlloc) / 1e6,
		HostFlows:   cut.hostFlows,
		Flows:       int64(sum.Flows),
		RunFlows:    int64(sum.Flows - warmFlows),
		FCTP99us:    us(sum.All99p),
		MiceP99us:   us(sum.Mice99p),
		Goodput:     sum.GoodputNormalized,
		Fingerprint: fmt.Sprintf("%x", sha256.Sum256([]byte(fmt.Sprintf("%+v %v", sum, cdf)))),
	}
	switch {
	case !drained:
		r.Check = fmt.Sprintf("not drained within %v", w.drain)
	case sum.Injected != sum.Delivered:
		r.Check = fmt.Sprintf("Summary.Injected %d != Summary.Delivered %d", sum.Injected, sum.Delivered)
	case r.Flows != r.HostFlows:
		r.Check = fmt.Sprintf("Summary.Flows %d != %d host flows injected", r.Flows, r.HostFlows)
	case ls != nil && (cut.injected() != sum.Injected || ls.delivery != sum.Delivered):
		r.Check = fmt.Sprintf("traced byte accounting %d/%d != Summary %d/%d", cut.injected(), ls.delivery, sum.Injected, sum.Delivered)
	}
	if ls == nil {
		return r, nil
	}

	roundS := float64(sum64(ls.roundNS)) / 1e9
	matchS := float64(ls.reqNS+ls.grantNS+ls.acceptNS) / 1e9
	nextS := float64(ls.nextNS) / 1e9
	r.Layers = map[string]float64{
		"facade.build_s":        buildS,
		"facade.summary_s":      t3.Sub(t2).Seconds(),
		"metrics.fct_samples":   float64(sum.Flows),
		"workload.next_calls":   float64(ls.nextCalls),
		"workload.next_s":       nextS,
		"workload.host_flows":   float64(cut.hostFlows - warmHostFlows),
		"fabric.rounds":         float64(len(ls.roundNS)),
		"fabric.round_s":        roundS,
		"fabric.round_p50_us":   percentileUS(ls.roundNS, 50),
		"fabric.round_p99_us":   percentileUS(ls.roundNS, 99),
		"fabric.backlog_mb_max": float64(ls.backlog) / 1e6,
		"match.requests_calls":  float64(ls.reqCalls),
		"match.grants_calls":    float64(ls.grantCalls),
		"match.accepts_calls":   float64(ls.acceptCalls),
		"match.requests_s":      float64(ls.reqNS) / 1e9,
		"match.grants_s":        float64(ls.grantNS) / 1e9,
		"match.accepts_s":       float64(ls.acceptNS) / 1e9,
		"match.accept_ratio":    sum.MatchRatio,
		"negotiator.self_s":     0,
		"oblivious.self_s":      0,
		"hybrid.self_s":         0,
		"failure.lost_mb":       float64(sum.LostBytes) / 1e6,
		"runtime.gc_cycles":     float64(ms1.NumGC - ms0.NumGC),
		"runtime.gc_pause_s":    float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e9,
	}
	// Everything a round does outside the matcher and the generator is the
	// plane's own work, the queues and the core's merge included.
	r.Layers[w.plane+".self_s"] = roundS - matchS - nextS
	return r, nil
}

// stepRounds runs the window and the drain one facade step at a time,
// timing each step and sampling the backlog after it. It makes the same
// rounds as RunEpochs(window) followed by Drain(budget).
func stepRounds(fab fabricUnderTest, cut *cutGen, ls *layerStats, window, step, budget int) bool {
	ls.roundNS = make([]int64, 0, 2*window)
	timed := func(f func()) {
		t := time.Now()
		f()
		ls.roundNS = append(ls.roundNS, int64(time.Since(t)))
		ls.backlog = max(ls.backlog, cut.injected()-ls.delivery)
	}
	for i := 0; i < window; i++ {
		timed(func() { fab.RunEpochs(1) })
	}
	drained := false
	for left := budget; !drained && left > 0; left -= step {
		timed(func() { drained = fab.Drain(min(step, left)) })
	}
	return drained
}

// cpuTime is the CPU time, user and system, this process has used so far.
// It leaves out the time the process waits for a CPU, and with it most of
// the slowdown other tenants of a shared host cause.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// epochsIn is the number of whole rounds of length epoch covering d.
func epochsIn(d, epoch negotiator.Duration) int {
	return int((d + epoch - 1) / epoch)
}

func us(d negotiator.Duration) float64 { return float64(d) / float64(negotiator.Microsecond) }

func sum64(xs []int64) int64 {
	var s int64
	for _, x := range xs {
		s += x
	}
	return s
}

// percentileUS is the nearest-rank p-th percentile of nanosecond samples,
// in microseconds.
func percentileUS(ns []int64, p float64) float64 {
	if len(ns) == 0 {
		return 0
	}
	s := slices.Clone(ns)
	slices.Sort(s)
	i := int(p/100*float64(len(s))+0.5) - 1
	return float64(s[min(max(i, 0), len(s)-1)]) / 1e3
}
