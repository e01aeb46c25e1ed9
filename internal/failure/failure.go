// Package failure describes optical link failure scenarios for the fault
// tolerance evaluation (paper §3.6.1, §4.3, Appendix A.4).
//
// A link is one direction of one ToR uplink port's fibre: the egress fibre
// carries the ToR's transmissions into its AWGR, the ingress fibre carries
// receptions out of it. Failing either direction silently destroys the bits
// crossing it, exactly like a fibre cut under a passive AWGR.
//
// Detection is modelled after the paper's dummy-message mechanism: ToRs
// notice missing predefined-phase traffic and broadcast the failure, so the
// fabric's knowledge of a link's state lags its actual state by a detection
// delay. Engines query both the actual state (to destroy bits) and the
// known state (to exclude links from scheduling).
package failure

import (
	"fmt"

	"negotiator/internal/sim"
)

// Link identifies one direction of one uplink port.
type Link struct {
	ToR     int
	Port    int
	Ingress bool // false = egress
}

func (l Link) String() string {
	dir := "egress"
	if l.Ingress {
		dir = "ingress"
	}
	return fmt.Sprintf("tor%d/port%d/%s", l.ToR, l.Port, dir)
}

// Event fails one link for the interval [FailAt, RecoverAt).
type Event struct {
	Link      Link
	FailAt    sim.Time
	RecoverAt sim.Time // zero or negative means never recovers
}

// Plan is a full failure scenario.
type Plan struct {
	Events []Event
	// DetectDelay is how long the fabric's knowledge lags reality, in both
	// directions (failure detection and recovery detection). The paper's
	// mechanism detects within a few predefined phases.
	DetectDelay sim.Duration
}

// ActiveAt reports whether the event's link is down at time t.
func (e Event) ActiveAt(t sim.Time) bool {
	if t < e.FailAt {
		return false
	}
	return e.RecoverAt <= e.FailAt || t < e.RecoverAt
}

// State is a point-in-time snapshot of link health as dense bitmaps,
// rebuilt once per epoch by engines.
type State struct {
	Egress  [][]bool // [tor][port]
	Ingress [][]bool
	Count   int
}

// NewState allocates a healthy snapshot for n ToRs with s ports.
func NewState(n, s int) *State {
	st := &State{Egress: make([][]bool, n), Ingress: make([][]bool, n)}
	for i := 0; i < n; i++ {
		st.Egress[i] = make([]bool, s)
		st.Ingress[i] = make([]bool, s)
	}
	return st
}

// PathOK reports whether the directed path src.port -> dst.port is healthy
// in this snapshot.
func (st *State) PathOK(src, dst, port int) bool {
	return !st.Egress[src][port] && !st.Ingress[dst][port]
}

// Down reports whether the directed path src.port -> dst.port has failed
// in this snapshot. A nil snapshot (no failure plan) or an all-healthy one
// reports false without reading the bitmaps.
func (st *State) Down(src, dst, port int) bool {
	return !st.Healthy() && !st.PathOK(src, dst, port)
}

// Healthy reports whether no link has failed: true for a nil snapshot.
// Per-link loops check it once instead of calling Down per link.
func (st *State) Healthy() bool { return st == nil || st.Count == 0 }

// Random builds a plan failing fraction of all 2·n·s directed links
// simultaneously at failAt and recovering them at recoverAt, the scenario
// of the paper's Figure 10.
func Random(n, s int, fraction float64, failAt, recoverAt sim.Time, detect sim.Duration, seed int64) *Plan {
	p := &Plan{DetectDelay: detect}
	for _, l := range randomLinks(n, s, fraction, seed) {
		p.Events = append(p.Events, Event{Link: l, FailAt: failAt, RecoverAt: recoverAt})
	}
	return p
}

// Single builds a plan failing exactly the given links over the interval,
// used by the single-pair micro-observation (Appendix A.4).
func Single(links []Link, failAt, recoverAt sim.Time, detect sim.Duration) *Plan {
	p := &Plan{DetectDelay: detect}
	for _, l := range links {
		p.Events = append(p.Events, Event{Link: l, FailAt: failAt, RecoverAt: recoverAt})
	}
	return p
}
