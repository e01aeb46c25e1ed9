package failure

import (
	"math"
	"sort"

	"negotiator/internal/sim"
)

// Cursor advances a plan's link-state snapshot incrementally: instead of
// rebuilding the dense State from every event each epoch (Plan.Fill,
// O(N·S + events)), it applies only the transitions whose time was
// crossed since the last advance. Epochs with no transitions cost O(1),
// so failure plans no longer reintroduce a per-epoch topology-size term.
//
// Overlapping events on the same link are handled by per-link reference
// counts: a link is down while at least one event covering it is active,
// exactly the semantics Fill's any-active-event scan produces. The
// equivalence is pinned by TestCursorMatchesFill across random plans.
type Cursor struct {
	st    *State
	trans []transition
	next  int     // first unapplied transition
	refs  []int32 // active-event count per directed link
	now   sim.Time
}

// transition is one edge of one event: at time at, link idx gains (down)
// or loses (up) one active-event reference. idx>>1 is the link's State
// index and bit 0 its direction (1 = ingress).
type transition struct {
	at   sim.Time
	idx  int32
	down bool
}

// NewCursor builds a cursor over the plan for an n-ToR, s-port fabric,
// positioned before every transition (the all-healthy state). A nil plan
// yields a cursor that stays healthy forever. Out-of-range links are
// skipped, exactly as Fill skips them.
func NewCursor(p *Plan, n, s int) *Cursor {
	c := &Cursor{st: NewState(n, s), now: math.MinInt64}
	if p == nil {
		return c
	}
	for _, e := range p.Events {
		l := e.Link
		if l.ToR < 0 || l.ToR >= n || l.Port < 0 || l.Port >= s {
			continue
		}
		idx := int32(c.st.link(l.ToR, l.Port) << 1)
		if l.Ingress {
			idx |= 1
		}
		c.trans = append(c.trans, transition{at: e.FailAt, idx: idx, down: true})
		if e.RecoverAt > e.FailAt {
			c.trans = append(c.trans, transition{at: e.RecoverAt, idx: idx, down: false})
		}
	}
	if len(c.trans) > 0 {
		// Stable time order; same-time transitions commute under reference
		// counting (a link's up edges never outnumber its applied downs).
		sort.SliceStable(c.trans, func(i, j int) bool { return c.trans[i].at < c.trans[j].at })
		c.refs = make([]int32, 2*n*s)
	}
	return c
}

// State returns the live snapshot the cursor maintains. The pointer is
// stable for the cursor's lifetime; AdvanceTo mutates it in place.
func (c *Cursor) State() *State { return c.st }

// AdvanceTo applies every transition at or before t and returns the
// snapshot, equal to Plan.Fill(st, t) by construction. Time must not move
// backwards (engines advance once per round).
func (c *Cursor) AdvanceTo(t sim.Time) *State {
	if t < c.now {
		panic("failure: cursor advanced backwards")
	}
	c.now = t
	for c.next < len(c.trans) && c.trans[c.next].at <= t {
		tr := c.trans[c.next]
		c.next++
		links := c.st.Egress
		if tr.idx&1 == 1 {
			links = c.st.Ingress
		}
		if tr.down {
			if c.refs[tr.idx]++; c.refs[tr.idx] == 1 {
				links[tr.idx>>1] = true
				c.st.Count++
			}
		} else {
			if c.refs[tr.idx]--; c.refs[tr.idx] == 0 {
				links[tr.idx>>1] = false
				c.st.Count--
			}
		}
	}
	return c.st
}

// Pending reports how many transitions the cursor has not yet applied —
// zero once the plan's dynamics are exhausted.
func (c *Cursor) Pending() int { return len(c.trans) - c.next }

// NextTransition reports the time of the earliest unapplied transition.
// ok is false once the plan's dynamics are exhausted — the snapshot will
// never change again, so an event-skipping run loop needs no further
// failure wake-ups.
func (c *Cursor) NextTransition() (at sim.Time, ok bool) {
	if c.next >= len(c.trans) {
		return 0, false
	}
	return c.trans[c.next].at, true
}
