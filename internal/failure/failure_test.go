package failure

import (
	"testing"

	"negotiator/internal/sim"
)

func TestEventActiveAt(t *testing.T) {
	e := Event{Link: Link{0, 0, false}, FailAt: 100, RecoverAt: 200}
	for _, tc := range []struct {
		t    sim.Time
		want bool
	}{{99, false}, {100, true}, {199, true}, {200, false}} {
		if got := e.ActiveAt(tc.t); got != tc.want {
			t.Errorf("ActiveAt(%d) = %v, want %v", tc.t, got, tc.want)
		}
	}
	forever := Event{Link: Link{0, 0, false}, FailAt: 100}
	if !forever.ActiveAt(1 << 40) {
		t.Error("unrecovered event should stay active")
	}
}

func TestFillAndPathOK(t *testing.T) {
	p := &Plan{
		Events: []Event{
			{Link: Link{ToR: 1, Port: 2, Ingress: false}, FailAt: 100, RecoverAt: 300},
			{Link: Link{ToR: 4, Port: 0, Ingress: true}, FailAt: 100, RecoverAt: 300},
		},
		DetectDelay: 50,
	}
	st := NewState(8, 4)
	p.Fill(st, 150)
	if st.Count != 2 {
		t.Fatalf("count = %d, want 2", st.Count)
	}
	if st.PathOK(1, 5, 2) {
		t.Error("egress failure should break path from tor1 port2")
	}
	if st.PathOK(3, 4, 0) {
		t.Error("ingress failure should break path into tor4 port0")
	}
	if !st.PathOK(1, 5, 3) || !st.PathOK(3, 4, 1) {
		t.Error("healthy ports flagged")
	}
	// After recovery.
	p.Fill(st, 300)
	if st.Count != 0 || !st.PathOK(1, 5, 2) {
		t.Error("recovered links still failed")
	}
	// Nil plan is healthy.
	var nilPlan *Plan
	nilPlan.Fill(st, 0)
	if st.Count != 0 {
		t.Error("nil plan should be healthy")
	}
}

// TestDownIsNilSafe: Down is PathOK's negation on a snapshot with
// failures, and reports false for a nil snapshot (no plan) and for an
// all-healthy one; Healthy agrees.
func TestDownIsNilSafe(t *testing.T) {
	var none *State
	if none.Down(0, 1, 0) || !none.Healthy() {
		t.Error("nil snapshot reports a failure")
	}
	st := NewState(4, 2)
	if st.Down(0, 1, 0) || !st.Healthy() {
		t.Error("healthy snapshot reports a failure")
	}
	st.Egress[st.link(0, 1)] = true
	st.Count = 1
	if !st.Down(0, 3, 1) || st.Healthy() {
		t.Error("failed egress not reported down")
	}
	if st.Down(0, 3, 0) || st.Down(1, 3, 1) {
		t.Error("healthy paths reported down")
	}
}

func TestFillDeduplicates(t *testing.T) {
	p := &Plan{Events: []Event{
		{Link: Link{ToR: 0, Port: 0}, FailAt: 0},
		{Link: Link{ToR: 0, Port: 0}, FailAt: 0},
	}}
	st := p.Fill(NewState(2, 2), 10)
	if st.Count != 1 {
		t.Errorf("duplicate events double counted: %d", st.Count)
	}
}

func TestFillIgnoresOutOfRange(t *testing.T) {
	p := &Plan{Events: []Event{{Link: Link{ToR: 99, Port: 0}, FailAt: 0}}}
	st := p.Fill(NewState(2, 2), 10)
	if st.Count != 0 {
		t.Error("out-of-range link counted")
	}
}

func TestRandomPlan(t *testing.T) {
	var n, s = 16, 4
	p := Random(n, s, 0.1, 1000, 2000, 100, 7)
	want := int(0.1*float64(2*n*s) + 0.5)
	if len(p.Events) != want {
		t.Fatalf("events = %d, want %d", len(p.Events), want)
	}
	seen := map[Link]bool{}
	for _, e := range p.Events {
		if e.FailAt != 1000 || e.RecoverAt != 2000 {
			t.Fatalf("bad interval: %+v", e)
		}
		if seen[e.Link] {
			t.Fatalf("duplicate link %v", e.Link)
		}
		seen[e.Link] = true
		if e.Link.ToR < 0 || e.Link.ToR >= n || e.Link.Port < 0 || e.Link.Port >= s {
			t.Fatalf("link out of range: %v", e.Link)
		}
	}
	st := p.Fill(NewState(n, s), 1500)
	if st.Count != want {
		t.Errorf("active count = %d, want %d", st.Count, want)
	}
	// Full failure is clamped.
	full := Random(2, 1, 2.0, 0, 0, 0, 1)
	if len(full.Events) != 4 {
		t.Errorf("clamped plan has %d events, want 4", len(full.Events))
	}
}

func TestRandomDeterministic(t *testing.T) {
	a := Random(8, 4, 0.25, 0, 100, 10, 42)
	b := Random(8, 4, 0.25, 0, 100, 10, 42)
	if len(a.Events) != len(b.Events) {
		t.Fatal("non-deterministic length")
	}
	for i := range a.Events {
		if a.Events[i] != b.Events[i] {
			t.Fatal("non-deterministic events")
		}
	}
}

func TestSinglePlanAndString(t *testing.T) {
	links := []Link{{ToR: 3, Port: 1, Ingress: false}, {ToR: 3, Port: 1, Ingress: true}}
	p := Single(links, 100, 200, 10)
	if len(p.Events) != 2 || p.DetectDelay != 10 {
		t.Fatalf("bad plan: %+v", p)
	}
	if got := links[0].String(); got != "tor3/port1/egress" {
		t.Errorf("String = %q", got)
	}
	if got := links[1].String(); got != "tor3/port1/ingress" {
		t.Errorf("String = %q", got)
	}
}

var stateSink *State

// TestNewStateAllocationsFlat: a snapshot is a header and two flat
// bitmaps, so its allocation count does not grow with the fabric.
func TestNewStateAllocationsFlat(t *testing.T) {
	small := testing.AllocsPerRun(10, func() { stateSink = NewState(16, 4) })
	large := testing.AllocsPerRun(10, func() { stateSink = NewState(65536, 8) })
	if small != large {
		t.Errorf("NewState makes %v allocations at 16x4 links but %v at 65,536x8", small, large)
	}
}
