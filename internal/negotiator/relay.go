package negotiator

import (
	"negotiator/internal/topo"
)

// relayState is the engine-side implementation. The paper's variant runs
// the relay negotiation through the same request/grant/accept exchange; we
// fold the candidate filtering and buffer-capacity checks into the per-epoch
// planning step with direct state inspection standing in for the message
// exchange. This idealisation can only flatter the relay variant (perfect,
// instant information), which is conservative for the paper's conclusion
// that relaying brings no meaningful gain.
type relayState struct {
	// minBytes is the lowest-priority backlog a destination queue needs
	// before its data is considered for relaying ("only enable it ... if
	// the data volume exceeds a certain threshold"): one epoch of port
	// capacity.
	minBytes int64
	// busyBytes marks a port-group as busy with direct traffic;
	// candidates sharing a busy link are excluded to avoid bandwidth
	// competition. One epoch of port capacity.
	busyBytes int64
	// bufferCap bounds the relay backlog an intermediate accepts, the
	// congestion-control condition of the GRANT step: 64 epochs of port
	// capacity.
	bufferCap int64

	tc       *topo.ThinClos
	rotate   []int   // per-source candidate rotation
	groupBuf []int64 // scratch: per-port direct bytes of the planning source
}

func (e *Engine) initRelay() {
	tc := e.top.(*topo.ThinClos)
	port := e.timing.EpochPortBytes()
	e.relay = &relayState{
		minBytes:  port,
		busyBytes: port,
		bufferCap: 64 * port,
		tc:        tc,
		rotate:    make([]int, e.n),
		groupBuf:  make([]int64, e.s),
	}
	// The relay FIFOs themselves live in the fabric core's nodes
	// (fabric.Config.Relay); only the per-epoch plan is control-plane state.
	for _, t := range e.tors {
		t.relayPlan = make([]relayPlan, e.n)
		for k := range t.relayPlan {
			t.relayPlan[k] = relayPlan{finalDst: -1}
		}
	}
}

// planRelay selects, per source, which elephants to relay through which
// intermediates this epoch (step 1 of A.2.2): only lowest-priority data
// above the volume threshold, intermediates that share no busy direct link
// on either hop and have relay buffer headroom. The demand scans iterate
// the direct occupancy index (non-empty queues are exactly the candidates
// both scans filter on), and plan clearing touches only the entries the
// previous epoch planned.
func (e *Engine) planRelay() {
	r := e.relay
	for i, t := range e.tors {
		nd := e.Nodes[i]
		for _, k := range t.planned {
			t.relayPlan[k] = relayPlan{finalDst: -1}
		}
		t.planned = t.planned[:0]
		// Direct traffic volume per egress port of i.
		for p := range r.groupBuf {
			r.groupBuf[p] = 0
		}
		heavy := false
		for j := nd.Direct.Occ.Next(-1); j >= 0; j = nd.Direct.Occ.Next(j) {
			if j == i {
				continue
			}
			r.groupBuf[r.tc.PathPort(i, j)] += nd.Direct.Bytes(j)
			if nd.Direct.LowestPriorityBytes(j) > r.minBytes {
				heavy = true
			}
		}
		if !heavy {
			continue
		}
		rot := r.rotate[i]
		r.rotate[i]++
		for j := nd.Direct.Occ.Next(-1); j >= 0; j = nd.Direct.Occ.Next(j) {
			if j == i || nd.Direct.LowestPriorityBytes(j) <= r.minBytes {
				continue
			}
			// Find an intermediate k for the elephant i -> j.
			for step := 0; step < e.n; step++ {
				k := (j + rot + step) % e.n
				if k == i || k == j {
					continue
				}
				s1 := r.tc.PathPort(i, k)
				// First hop competes with i's own direct traffic on s1.
				if r.groupBuf[s1] > r.busyBytes {
					continue
				}
				// A port already planned for another relay is taken.
				if t.relayPlan[k].quota > 0 {
					continue
				}
				inter := e.Nodes[k]
				headroom := inter.Relay.Headroom(r.bufferCap)
				if headroom <= 0 {
					continue
				}
				// Second hop competes with k's direct traffic to j's group.
				s2 := r.tc.PathPort(k, j)
				var kDirect int64
				for _, d := range r.tc.PortDomain(k, s2) {
					if d != k {
						kDirect += inter.Direct.Bytes(d)
					}
				}
				if kDirect > r.busyBytes {
					continue
				}
				quota := e.timing.EpochPortBytes()
				if quota > headroom {
					quota = headroom
				}
				t.relayPlan[k] = relayPlan{finalDst: int32(j), quota: quota}
				t.planned = append(t.planned, int32(k))
				break
			}
		}
	}
}

// relayFirstHop ships planned elephant data from source i to the matched
// intermediate k during the scheduled phase, after direct data has been
// served (step 3 of A.2.2). The bytes enter k's relay queue at
// lowest priority and are forwarded by k's own scheduling. Slot position,
// loss state and phase start are carried in the shard's tx* emitter
// fields, already set by scheduledPhase; txDst is repointed from the
// matched intermediate to the final destination for the relayed run.
// Selective relay pushes into another ToR's queue, so it forces
// sequential execution (the engine clamps Workers to 1).
func (sh *engineShard) relayFirstHop(i, k int, budget int64) {
	e := sh.e
	t := e.tors[i]
	plan := t.relayPlan[k]
	if plan.quota <= 0 || plan.finalDst < 0 {
		return
	}
	j := int(plan.finalDst)
	inter := e.Nodes[k]
	headroom := inter.Relay.Headroom(e.relay.bufferCap)
	max := budget
	if max > plan.quota {
		max = plan.quota
	}
	if max > headroom {
		max = headroom
	}
	if max <= 0 {
		return
	}
	sh.txDst = j
	sh.txInter = inter
	e.Nodes[i].Direct.TakeLowest(j, max, sh.relayEmit)
	t.relayPlan[k] = relayPlan{finalDst: -1}
}
