package main

import (
	"time"

	"negotiator"
	"negotiator/internal/match"
	"negotiator/internal/sim"
	"negotiator/internal/workload"
)

// layerStats accumulates the traced run's per-layer counters. The wrappers
// record into it only while on is set, i.e. during the window and drain.
type layerStats struct {
	on bool

	nextCalls int64
	nextNS    int64

	reqCalls, grantCalls, acceptCalls int64
	reqNS, grantNS, acceptNS          int64

	roundNS  []int64 // one entry per Fabric.RunEpochs(1) or drain step
	backlog  int64   // max of injected - delivered bytes after a step
	delivery int64   // bytes delivered (Spec.OnDeliver)
}

func (ls *layerStats) deliver(_ int, _ negotiator.Time, n int64) { ls.delivery += n }

// spin busy-waits for d. The sensitivity self-test adds it to wrapper calls
// to show that a layer's cost reaches run_s and is attributed to it.
func spin(d time.Duration) {
	if d <= 0 {
		return
	}
	for t := time.Now(); time.Since(t) < d; {
	}
}

// cutGen wraps a workload generator. It ends the stream at the first
// arrival at or after end (the window end), counts the host flows and
// bytes it hands out, and in the traced run times every Next call.
type cutGen struct {
	g    negotiator.Workload
	end  negotiator.Time
	done bool

	hostFlows int64
	bytes     int64
	// lastBytes is the size of the last arrival handed out, zero once the
	// stream has ended. The fabric holds exactly that arrival back until
	// its time comes, so every other handed-out byte has been injected.
	lastBytes int64

	spin time.Duration
	ls   *layerStats
}

func (c *cutGen) Next() (workload.Arrival, bool) {
	if c.ls == nil || !c.ls.on {
		return c.next()
	}
	t := time.Now()
	a, ok := c.next()
	c.ls.nextNS += int64(time.Since(t))
	c.ls.nextCalls++
	return a, ok
}

func (c *cutGen) next() (workload.Arrival, bool) {
	spin(c.spin)
	if c.done {
		return workload.Arrival{}, false
	}
	a, ok := c.g.Next()
	if !ok || a.Time >= c.end {
		c.done, c.lastBytes = true, 0
		return workload.Arrival{}, false
	}
	c.hostFlows += a.Members()
	c.lastBytes = a.Size * a.Members()
	c.bytes += c.lastBytes
	return a, true
}

// injected reports the bytes the fabric has taken from the stream so far.
func (c *cutGen) injected() int64 { return c.bytes - c.lastBytes }

// tracedMatcher forwards every match.Matcher call to the wrapped matcher,
// timing Requests, Grants and Accepts while tracing is on. It forwards
// match.RequestTraits too: without them the engine would turn off its
// O(active) request sweep and the incremental request cache, and the
// traced run would measure a different program with identical results.
type tracedMatcher struct {
	m    match.Matcher
	ls   *layerStats
	spin time.Duration // added to every Grants call
}

// shardedTracedMatcher is a tracedMatcher over a match.Sharded matcher.
type shardedTracedMatcher struct{ *tracedMatcher }

// wrapMatcher wraps m, keeping whether it implements match.Sharded.
func wrapMatcher(m match.Matcher, ls *layerStats, grantSpin time.Duration) match.Matcher {
	t := &tracedMatcher{m: m, ls: ls, spin: grantSpin}
	if _, ok := m.(match.Sharded); ok {
		return shardedTracedMatcher{t}
	}
	return t
}

func (t *tracedMatcher) Name() string    { return t.m.Name() }
func (t *tracedMatcher) MatchDelay() int { return t.m.MatchDelay() }

func (t *tracedMatcher) RequestsIdleSafe() bool { idle, _ := match.TraitsOf(t.m); return idle }
func (t *tracedMatcher) RequestsPure() bool     { _, pure := match.TraitsOf(t.m); return pure }

func (t *tracedMatcher) Requests(src int, view match.QueueView, now sim.Time, threshold int64, emit func(match.Request)) {
	if !t.ls.on {
		t.m.Requests(src, view, now, threshold, emit)
		return
	}
	t0 := time.Now()
	t.m.Requests(src, view, now, threshold, emit)
	t.ls.reqNS += int64(time.Since(t0))
	t.ls.reqCalls++
}

func (t *tracedMatcher) Grants(dst int, reqs []match.Request, emit func(match.Grant)) {
	if !t.ls.on {
		spin(t.spin)
		t.m.Grants(dst, reqs, emit)
		return
	}
	t0 := time.Now()
	spin(t.spin)
	t.m.Grants(dst, reqs, emit)
	t.ls.grantNS += int64(time.Since(t0))
	t.ls.grantCalls++
}

func (t *tracedMatcher) Accepts(src int, view match.QueueView, grants []match.Grant, matches []int32, feedback func(match.Grant, bool)) {
	if !t.ls.on {
		t.m.Accepts(src, view, grants, matches, feedback)
		return
	}
	t0 := time.Now()
	t.m.Accepts(src, view, grants, matches, feedback)
	t.ls.acceptNS += int64(time.Since(t0))
	t.ls.acceptCalls++
}

func (t *tracedMatcher) Feedback(g match.Grant, accepted bool) { t.m.Feedback(g, accepted) }

// Fork wraps each handle of the wrapped matcher's fork.
func (s shardedTracedMatcher) Fork(p int) []match.Matcher {
	hs := s.m.(match.Sharded).Fork(p)
	for i, h := range hs {
		hs[i] = wrapMatcher(h, s.ls, s.spin)
	}
	return hs
}
