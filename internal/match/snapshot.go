// Checkpoint support: the only state a matcher carries across epochs is
// its round-robin ring pointers plus, per variant, the stateful demand
// matrix and unreported arrivals, the ProjecToR rotation counters and
// the PIM/iSLIP tie-break RNG. Everything else (candidate lists,
// per-epoch request buffers, batch scratch) is rebuilt from scratch every
// epoch and is deliberately not serialized.
//
// Fork shares exactly this persistent state between a matcher and its
// per-shard clones (see shard.go), so snapshotting and restoring the
// engine's original matcher covers every worker count.
package match

import (
	"fmt"

	"negotiator/internal/snap"
)

// SetPointer restores a ring's arbitration pointer from a checkpoint.
func (r *Ring) SetPointer(p int) error {
	if n := int(r.n); p < 0 || p > n || (p == n && n != 0) {
		return fmt.Errorf("match: restored ring pointer %d out of range [0, %d)", p, r.n)
	}
	r.ptr = int32(p)
	return nil
}

// matcherKind names each variant inside the payload, so a restore into
// the wrong scheduler configuration fails loudly instead of scrambling
// ring state.
func matcherKind(m Matcher) (string, bool) {
	switch v := m.(type) {
	case *Negotiator:
		return "matching", true
	case *Informative:
		return "informative", true
	case *Stateful:
		return "stateful", true
	case *ProjecToR:
		return "projector", true
	case *Classic:
		// An RRM Classic never draws from its RNG; it keeps the tag and
		// the rings-only payload of the paper's iterative variant, so
		// its checkpoints carry no RNG words.
		if v.kind == RRM {
			return "iterative", true
		}
		return "classic", true
	}
	return "", false
}

// SnapshotState appends the matcher's persistent state to e.
func SnapshotState(m Matcher, e *snap.Enc) error {
	kind, ok := matcherKind(m)
	if !ok {
		return fmt.Errorf("match: matcher %T does not support snapshots", m)
	}
	e.Str(kind)
	switch v := m.(type) {
	case *Negotiator:
		snapshotRings(v, e)
	case *Informative:
		snapshotRings(v.Negotiator, e)
	case *Stateful:
		snapshotRings(v.Negotiator, e)
		encodeMatrix(e, v.matrix)
		encodeMatrix(e, v.unreported)
	case *ProjecToR:
		snapshotRings(v.Negotiator, e)
		e.U32(uint32(len(v.rotate)))
		for _, r := range v.rotate {
			e.Int(r)
		}
	case *Classic:
		snapshotRings(v.Negotiator, e)
		if v.kind == RRM {
			break
		}
		st := v.rng.State()
		for _, w := range st {
			e.U64(w)
		}
	}
	return nil
}

// RestoreState applies state captured by SnapshotState to a freshly
// constructed matcher of the same kind and topology.
func RestoreState(m Matcher, d *snap.Dec) error {
	kind, ok := matcherKind(m)
	if !ok {
		return fmt.Errorf("match: matcher %T does not support snapshots", m)
	}
	if got := d.Str(); got != kind {
		return fmt.Errorf("match: checkpoint holds %q matcher state, engine runs %q", got, kind)
	}
	switch v := m.(type) {
	case *Negotiator:
		return restoreRings(v, d)
	case *Informative:
		return restoreRings(v.Negotiator, d)
	case *Stateful:
		if err := restoreRings(v.Negotiator, d); err != nil {
			return err
		}
		if err := decodeMatrix(d, v.matrix); err != nil {
			return err
		}
		return decodeMatrix(d, v.unreported)
	case *ProjecToR:
		if err := restoreRings(v.Negotiator, d); err != nil {
			return err
		}
		if n := int(d.U32()); n != len(v.rotate) {
			return fmt.Errorf("match: checkpoint holds %d rotation counters, matcher has %d", n, len(v.rotate))
		}
		for i := range v.rotate {
			if v.rotate[i] = d.Int(); v.rotate[i] < 0 {
				return fmt.Errorf("match: checkpoint rotation counter %d of ToR %d is negative", v.rotate[i], i)
			}
		}
		return d.Err()
	case *Classic:
		if err := restoreRings(v.Negotiator, d); err != nil || v.kind == RRM {
			return err
		}
		var st [4]uint64
		for i := range st {
			st[i] = d.U64()
		}
		if err := d.Err(); err != nil {
			return err
		}
		v.rng.SetState(st)
		return nil
	}
	return nil
}

// snapshotRings records every grant and accept ring pointer. The walk
// order is fixed by construction (grant rings ToR by ToR, then accept
// rings ToR by ToR and port by port), so both sides enumerate
// identically.
func snapshotRings(n *Negotiator, e *snap.Enc) {
	for _, rings := range [2][]Ring{n.grantRings, n.acceptRings} {
		for i := range rings {
			e.Int(rings[i].Pointer())
		}
	}
}

func restoreRings(n *Negotiator, d *snap.Dec) error {
	for _, rings := range [2][]Ring{n.grantRings, n.acceptRings} {
		for i := range rings {
			if err := rings[i].SetPointer(d.Int()); err != nil {
				return err
			}
		}
	}
	return d.Err()
}

// encodeMatrix writes the nonzero entries of a dense int64 matrix.
func encodeMatrix(e *snap.Enc, m [][]int64) {
	var cnt uint32
	for _, row := range m {
		for _, v := range row {
			if v != 0 {
				cnt++
			}
		}
	}
	e.U32(cnt)
	for i, row := range m {
		for j, v := range row {
			if v != 0 {
				e.U32(uint32(i))
				e.U32(uint32(j))
				e.I64(v)
			}
		}
	}
}

func decodeMatrix(d *snap.Dec, m [][]int64) error {
	for i := range m {
		clear(m[i])
	}
	cnt := int(d.U32())
	for k := 0; k < cnt; k++ {
		i, j, v := int(d.U32()), int(d.U32()), d.I64()
		if err := d.Err(); err != nil {
			return err
		}
		if i < 0 || i >= len(m) || j < 0 || j >= len(m[i]) {
			return fmt.Errorf("match: checkpoint matrix entry (%d, %d) out of range", i, j)
		}
		m[i][j] = v
	}
	return d.Err()
}
