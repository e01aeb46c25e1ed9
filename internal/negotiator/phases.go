package negotiator

// The per-epoch pipeline stages themselves (ACCEPT/GRANT/REQUEST and the
// predefined and scheduled transmission phases) live in shard.go: they
// execute per ToR-shard with barriers in between, sequentially when
// Config.Workers <= 1. This file keeps the shared read-only helpers.

// torView adapts a ToR's queues to the matcher's QueueView. Queued bytes
// include relay demand: an intermediate must request links to forward
// relayed data, and a relaying source must request its first-hop
// intermediate. Views are preallocated (one per ToR, see initHotPath) and
// passed by pointer so the interface conversion never allocates. A view
// reads only its own ToR's state, so concurrent shards may evaluate views
// of distinct ToRs freely.
type torView struct {
	e *Engine
	i int
}

func (v *torView) QueuedBytes(dst int) int64 {
	nd := v.e.Nodes[v.i]
	b := nd.Direct.Bytes(dst)
	if v.e.cfg.Relay {
		b += nd.Relay.Bytes(dst)
		if p := v.e.tors[v.i].relayPlan[dst]; p.quota > 0 {
			b += p.quota
		}
	}
	return b
}

// NextDemand iterates the source's direct-VOQ occupancy index — the exact
// positive-bytes set when relaying is off (an unmaterialized node's empty
// index ends the sweep immediately). With selective relay enabled (a
// sequential, small-scale extension) queued relay data and planned quotas
// add demand the index cannot see, so the sweep falls back to the dense
// superset — gated on the configuration, not on slab materialization, so
// lazy construction cannot change which destinations are visited.
func (v *torView) NextDemand(after int) int {
	if v.e.cfg.Relay {
		if next := after + 1; next < v.e.n {
			return next
		}
		return -1
	}
	return v.e.Nodes[v.i].Direct.Occ.Next(after)
}

func (v *torView) WeightedHoL(dst int, alpha float64) float64 {
	return v.e.Nodes[v.i].Direct.WeightedHoL(dst, v.e.Now(), alpha)
}

func (v *torView) CumInjected(dst int) int64 {
	nd := v.e.Nodes[v.i]
	if nd.CumInjected == nil {
		return 0
	}
	return nd.CumInjected[dst]
}

// rotation returns the predefined-phase round-robin rotation for an epoch.
// The rule changes every epoch so a ToR pair's control messages cycle over
// all ports (§3.6.1).
func (e *Engine) rotation(epoch int64) int { return int(epoch % (1 << 30)) }

// msgPathOK reports whether the scheduling message i->j survives epoch's
// predefined phase (it is lost if its slot's link has actually failed).
func (e *Engine) msgPathOK(i, j int, epoch int64) bool {
	if e.actual.Healthy() {
		return true
	}
	_, port := e.top.PredefinedSlotPort(i, j, e.rotation(epoch))
	return e.actual.PathOK(i, j, port)
}
