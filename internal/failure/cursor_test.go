package failure

import (
	"slices"
	"testing"

	"negotiator/internal/sim"
)

// Fill sets the snapshot to the plan's state at time t and returns it:
// the dense O(N·S + events) rebuild the Cursor replaces, kept as its
// test reference.
func (p *Plan) Fill(st *State, t sim.Time) *State {
	clear(st.Egress)
	clear(st.Ingress)
	st.Count = 0
	if p == nil {
		return st
	}
	for _, e := range p.Events {
		if !e.ActiveAt(t) {
			continue
		}
		l := e.Link
		if l.ToR < 0 || st.link(l.ToR, 0) >= len(st.Egress) || l.Port < 0 || l.Port >= st.s {
			continue
		}
		links := st.Egress
		if l.Ingress {
			links = st.Ingress
		}
		if k := st.link(l.ToR, l.Port); !links[k] {
			links[k] = true
			st.Count++
		}
	}
	return st
}

// statesEqual compares a cursor snapshot against a Fill reference.
func statesEqual(a, b *State) bool {
	return a.Count == b.Count && slices.Equal(a.Egress, b.Egress) && slices.Equal(a.Ingress, b.Ingress)
}

// TestCursorMatchesFill pins the tentpole equivalence: advancing the
// event-transition cursor epoch by epoch produces exactly the snapshot the
// dense Fill rebuild produces at every boundary, across random plans of
// every scenario shape (simultaneous cuts, flapping, correlated port
// group, whole-ToR outage) plus adversarial hand-built overlaps.
func TestCursorMatchesFill(t *testing.T) {
	const n, s = 12, 4
	const epoch = sim.Duration(100)
	plans := map[string]*Plan{
		"random":          Random(n, s, 0.25, 350, 1250, 100, 7),
		"random-forever":  Random(n, s, 0.1, 500, 0, 100, 8),
		"flapping":        Flapping(n, s, 0.2, 300, 400, 150, 6, 100, 9),
		"port-group":      PortGroup(n, s, 2, 400, 1600, 100),
		"tor-down":        ToRDown(n, s, 5, 250, 900, 100),
		"empty":           {DetectDelay: 100},
		"overlapping":     {Events: []Event{{Link: Link{ToR: 1, Port: 1}, FailAt: 100, RecoverAt: 500}, {Link: Link{ToR: 1, Port: 1}, FailAt: 300, RecoverAt: 800}}},
		"duplicate":       {Events: []Event{{Link: Link{ToR: 2, Port: 0}, FailAt: 200, RecoverAt: 600}, {Link: Link{ToR: 2, Port: 0}, FailAt: 200, RecoverAt: 600}}},
		"never-recovers":  {Events: []Event{{Link: Link{ToR: 3, Port: 3, Ingress: true}, FailAt: 400, RecoverAt: 400}, {Link: Link{ToR: 4, Port: 0}, FailAt: 600, RecoverAt: 100}}},
		"out-of-range":    {Events: []Event{{Link: Link{ToR: n, Port: 0}, FailAt: 0}, {Link: Link{ToR: 0, Port: s}, FailAt: 0}, {Link: Link{ToR: -1, Port: 0}, FailAt: 0}, {Link: Link{ToR: 0, Port: 1}, FailAt: 100, RecoverAt: 900}}},
		"same-time-edges": {Events: []Event{{Link: Link{ToR: 6, Port: 2}, FailAt: 100, RecoverAt: 500}, {Link: Link{ToR: 6, Port: 2}, FailAt: 500, RecoverAt: 900}}},
	}
	for name, p := range plans {
		t.Run(name, func(t *testing.T) {
			cur := NewCursor(p, n, s)
			ref := NewState(n, s)
			for e := 0; e <= 25; e++ {
				at := sim.Time(0).Add(sim.Duration(e) * epoch)
				got := cur.AdvanceTo(at)
				p.Fill(ref, at)
				if !statesEqual(got, ref) {
					t.Fatalf("epoch %d (t=%v): cursor count=%d, Fill count=%d", e, at, got.Count, ref.Count)
				}
			}
			if cur.Pending() != 0 {
				t.Errorf("transitions left after plan exhausted: %d", cur.Pending())
			}
		})
	}
}

func TestCursorNilPlan(t *testing.T) {
	cur := NewCursor(nil, 4, 2)
	if st := cur.AdvanceTo(1 << 40); st.Count != 0 {
		t.Errorf("nil-plan cursor not healthy: %d", st.Count)
	}
	if cur.Pending() != 0 {
		t.Errorf("nil-plan cursor has transitions")
	}
}

func TestCursorStablePointer(t *testing.T) {
	p := Single([]Link{{ToR: 0, Port: 0}}, 100, 200, 0)
	cur := NewCursor(p, 2, 2)
	st := cur.State()
	if cur.AdvanceTo(150) != st || cur.State() != st {
		t.Error("snapshot pointer not stable across advances")
	}
	if !st.Egress[st.link(0, 0)] || st.Count != 1 {
		t.Error("advance did not mutate the snapshot in place")
	}
}

func TestCursorPanicsOnBackwardsTime(t *testing.T) {
	cur := NewCursor(Single([]Link{{ToR: 0, Port: 0}}, 100, 200, 0), 2, 2)
	cur.AdvanceTo(150)
	defer func() {
		if recover() == nil {
			t.Error("backwards advance did not panic")
		}
	}()
	cur.AdvanceTo(149)
}

// TestCursorNegativeTime covers the known-state cursor, which advances to
// now-detect and therefore starts at negative times.
func TestCursorNegativeTime(t *testing.T) {
	p := Single([]Link{{ToR: 1, Port: 0}}, 100, 200, 300)
	cur := NewCursor(p, 2, 2)
	if st := cur.AdvanceTo(-200); st.Count != 0 {
		t.Errorf("negative-time advance failed links: %d", st.Count)
	}
	if st := cur.AdvanceTo(150); st.Count != 1 {
		t.Errorf("advance from negative time missed the failure: %d", st.Count)
	}
}

func TestCursorNeverRecovers(t *testing.T) {
	// RecoverAt <= FailAt means the link never comes back: the cursor must
	// emit no up edge at all, not an up edge at a bogus time.
	for _, rec := range []sim.Time{0, 50, 100} {
		p := &Plan{Events: []Event{{Link: Link{ToR: 0, Port: 1}, FailAt: 100, RecoverAt: rec}}}
		cur := NewCursor(p, 2, 2)
		if st := cur.AdvanceTo(1 << 50); st.Count != 1 || !st.Egress[st.link(0, 1)] {
			t.Errorf("RecoverAt=%d: link recovered, count=%d", rec, st.Count)
		}
		if cur.Pending() != 0 {
			t.Errorf("RecoverAt=%d: phantom up edge pending", rec)
		}
	}
}

func TestCursorSkipsOutOfRangeLinks(t *testing.T) {
	p := &Plan{Events: []Event{
		{Link: Link{ToR: 5, Port: 0}, FailAt: 0},
		{Link: Link{ToR: 0, Port: 5}, FailAt: 0},
		{Link: Link{ToR: -1, Port: -1}, FailAt: 0},
	}}
	cur := NewCursor(p, 2, 2)
	if st := cur.AdvanceTo(100); st.Count != 0 {
		t.Errorf("out-of-range links entered the snapshot: %d", st.Count)
	}
}

func TestCursorDuplicateEventsCountOnce(t *testing.T) {
	p := &Plan{Events: []Event{
		{Link: Link{ToR: 0, Port: 0}, FailAt: 100, RecoverAt: 300},
		{Link: Link{ToR: 0, Port: 0}, FailAt: 100, RecoverAt: 300},
		{Link: Link{ToR: 0, Port: 0}, FailAt: 100, RecoverAt: 300},
	}}
	cur := NewCursor(p, 2, 2)
	if st := cur.AdvanceTo(200); st.Count != 1 {
		t.Errorf("duplicate events double counted: %d", st.Count)
	}
	if st := cur.AdvanceTo(400); st.Count != 0 {
		t.Errorf("duplicate recoveries miscounted: %d", st.Count)
	}
}

func TestFlappingPlan(t *testing.T) {
	const n, s = 8, 4
	p := Flapping(n, s, 0.25, 1000, 400, 100, 5, 30, 3)
	total := 2 * n * s
	links := int(0.25*float64(total) + 0.5)
	if len(p.Events) != links*5 {
		t.Fatalf("events = %d, want %d links x 5 cycles", len(p.Events), links)
	}
	if p.DetectDelay != 30 {
		t.Errorf("detect = %v", p.DetectDelay)
	}
	st := NewState(n, s)
	// Down during each cycle's first 100, up for the remaining 300.
	for c := 0; c < 5; c++ {
		base := sim.Time(1000 + 400*c)
		if p.Fill(st, base.Add(50)); st.Count != links {
			t.Errorf("cycle %d down phase: %d active, want %d", c, st.Count, links)
		}
		if p.Fill(st, base.Add(250)); st.Count != 0 {
			t.Errorf("cycle %d up phase: %d active, want 0", c, st.Count)
		}
	}
	if p.Fill(st, 1000+400*5+50); st.Count != 0 {
		t.Errorf("flapping past last cycle: %d active", st.Count)
	}
	// Zero/oversized downFor clamps to the full period (link stays down
	// across every cycle boundary).
	solid := Flapping(n, s, 0.25, 0, 400, 0, 3, 30, 3)
	if solid.Fill(st, 399); st.Count != links {
		t.Errorf("clamped downFor: %d active at cycle boundary, want %d", st.Count, links)
	}
}

func TestPortGroupPlan(t *testing.T) {
	const n, s = 6, 4
	p := PortGroup(n, s, 2, 100, 900, 50)
	if len(p.Events) != 2*n {
		t.Fatalf("events = %d, want %d (both directions on every ToR)", len(p.Events), 2*n)
	}
	st := p.Fill(NewState(n, s), 500)
	for i := 0; i < n; i++ {
		if !st.Egress[st.link(i, 2)] || !st.Ingress[st.link(i, 2)] {
			t.Fatalf("tor %d port 2 not failed in both directions", i)
		}
		for q := 0; q < s; q++ {
			if q != 2 && (st.Egress[st.link(i, q)] || st.Ingress[st.link(i, q)]) {
				t.Fatalf("tor %d port %d failed, expected only port 2", i, q)
			}
		}
	}
	// Out-of-range port yields an empty (harmless) plan.
	if empty := PortGroup(n, s, s, 0, 0, 0); len(empty.Events) != 0 {
		t.Errorf("out-of-range port produced %d events", len(empty.Events))
	}
	if empty := PortGroup(n, s, -1, 0, 0, 0); len(empty.Events) != 0 {
		t.Errorf("negative port produced %d events", len(empty.Events))
	}
}

func TestToRDownPlan(t *testing.T) {
	const n, s = 6, 4
	p := ToRDown(n, s, 3, 100, 900, 50)
	if len(p.Events) != 2*s {
		t.Fatalf("events = %d, want %d (every port, both directions)", len(p.Events), 2*s)
	}
	st := p.Fill(NewState(n, s), 500)
	for q := 0; q < s; q++ {
		if !st.Egress[st.link(3, q)] || !st.Ingress[st.link(3, q)] {
			t.Fatalf("tor 3 port %d not fully dark", q)
		}
	}
	if st.Count != 2*s {
		t.Errorf("count = %d, want %d", st.Count, 2*s)
	}
	// No path in or out of the dark ToR; unrelated pairs unaffected.
	if st.PathOK(3, 0, 1) || st.PathOK(0, 3, 1) {
		t.Error("paths through the dark ToR reported healthy")
	}
	if !st.PathOK(0, 1, 2) {
		t.Error("unrelated pair broken")
	}
	// After restart everything heals.
	if p.Fill(st, 900); st.Count != 0 {
		t.Errorf("restart left %d links dark", st.Count)
	}
	if empty := ToRDown(n, s, n, 0, 0, 0); len(empty.Events) != 0 {
		t.Errorf("out-of-range ToR produced %d events", len(empty.Events))
	}
}
