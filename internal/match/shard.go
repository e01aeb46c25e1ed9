package match

// Sharded is implemented by matchers whose per-ToR pipeline steps can run
// concurrently over disjoint ToR shards. Fork returns p handles that SHARE
// the matcher's per-ToR state — the round-robin rings (grantRings[dst] is
// only touched by Grants(dst), acceptRings[src] only by Accepts(src), so
// ToR-sharding partitions them naturally), the stateful traffic matrix, and
// per-source rotation counters — while each handle owns PRIVATE scratch
// (the per-port candidate lists, the nearest-requester buffer, ProjecToR's
// per-port bests), the state that a sequential matcher reuses across
// per-ToR calls and that concurrent calls would otherwise race on.
//
// The contract mirrors the engine's sequential loop:
//
//   - handle k must only be invoked for ToRs of shard k (so shared per-ToR
//     state is touched by exactly one handle);
//   - all handles run the same pipeline stage between barriers, in the
//     stage order of the sequential engine (all Accepts, barrier, all
//     Grants, all Requests) — Stateful's Feedback writes the shared matrix
//     element (dst, src), which is unique per source and therefore per
//     shard, and the barrier publishes those writes before Grants reads
//     the rows;
//   - the original matcher remains the owner: Fork may be called again
//     (e.g. after a worker-count change) and the handles of the previous
//     fork must no longer be used.
//
// Batch matchers (Classic) satisfy Sharded through their
// embedded Negotiator: the engine runs their Match serially on the
// original instance and drives only the per-ToR Requests step on the
// forked handles — which is exactly the promoted base Requests for the
// built-in batch matchers. A batch matcher that overrides Requests must
// shadow Fork as well, so its handles carry the overridden behaviour.
type Sharded interface {
	Matcher
	Fork(p int) []Matcher
}

// scratchClone returns a copy of m with fresh private scratch and shared
// topology, rings, per-ToR state and read-only thin-clos tables.
func (m *Negotiator) scratchClone() *Negotiator {
	c := &Negotiator{
		topo:        m.topo,
		grantRings:  m.grantRings,
		acceptRings: m.acceptRings,
		grp:         m.grp,
		pos:         m.pos,
	}
	c.initScratch()
	return c
}

// Fork implements Sharded for the base matcher.
func (m *Negotiator) Fork(p int) []Matcher {
	out := make([]Matcher, p)
	for k := range out {
		out[k] = m.scratchClone()
	}
	return out
}

// Fork implements Sharded: handles share the rings, each owns its priority
// scratch.
func (m *Informative) Fork(p int) []Matcher {
	out := make([]Matcher, p)
	for k := range out {
		out[k] = &Informative{
			Negotiator: m.Negotiator.scratchClone(),
			kind:       m.kind,
		}
	}
	return out
}

// Fork implements Sharded: handles share the traffic matrix and the
// reported-bytes table. Matrix rows are written by Grants(dst) — one shard
// per dst — and by Feedback at element (g.Dst, g.Src), unique per source
// and therefore per shard; reported[src] is only touched by Requests(src).
func (m *Stateful) Fork(p int) []Matcher {
	out := make([]Matcher, p)
	for k := range out {
		out[k] = &Stateful{
			Negotiator: m.Negotiator.scratchClone(),
			epochBytes: m.epochBytes,
			matrix:     m.matrix,
			reported:   m.reported,
		}
	}
	return out
}

// Fork implements Sharded: handles share the per-source port rotation
// (only Requests(src) touches rotate[src]), each owns its per-port best
// scratch.
func (m *ProjecToR) Fork(p int) []Matcher {
	s := m.topo.Ports()
	out := make([]Matcher, p)
	for k := range out {
		out[k] = &ProjecToR{
			Negotiator: m.Negotiator.scratchClone(),
			rotate:     m.rotate,
			bestDelay:  make([]float64, s),
			bestSrc:    make([]int32, s),
		}
	}
	return out
}
