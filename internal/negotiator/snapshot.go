package negotiator

import (
	"fmt"

	"negotiator/internal/match"
	"negotiator/internal/snap"
)

// PlaneState implements fabric.StatefulPlane. The NegotiaToR plane's
// persistent cross-epoch state is: the match-ratio series, the selective
// relay's candidate rotation, every ToR's pipelined mailboxes and live
// match row, the batch matchers' future-match ring, and the matcher's own
// state (ring pointers, demand matrices, tie-break RNG). Everything else
// — outboxes, shard scratch — is rebuilt or re-derived within an epoch
// and is deliberately not serialized.
func (e *Engine) PlaneState() ([]byte, error) {
	var enc snap.Enc
	num, den := e.MatchRatio.Counts()
	enc.U32(uint32(len(num)))
	for _, v := range num {
		enc.I64(v)
	}
	for _, v := range den {
		enc.I64(v)
	}

	enc.Bool(e.relay != nil)
	if e.relay != nil {
		enc.U32(uint32(len(e.relay.rotate)))
		for _, r := range e.relay.rotate {
			enc.Int(r)
		}
	}

	var cnt uint32
	for i := range e.tors {
		t := &e.tors[i]
		if torHasState(t) {
			cnt++
		}
	}
	enc.U32(cnt)
	for i := range e.tors {
		t := &e.tors[i]
		if !torHasState(t) {
			continue
		}
		enc.U32(uint32(i))
		enc.Bool(t.hasMatches)
		if t.hasMatches {
			for _, m := range t.matches {
				enc.Int(int(m))
			}
		}
		for g := 0; g < e.stageLag; g++ {
			encodeRequests(&enc, t.reqIn[g])
			encodeGrants(&enc, t.grantIn[g])
		}
	}

	enc.Bool(e.batch != nil)
	if e.batch != nil {
		enc.U32(uint32(len(e.future)))
		for d := range e.future {
			touched := e.futureTouched[d]
			enc.U32(uint32(len(touched)))
			for _, src := range touched {
				enc.U32(uint32(src))
				for _, m := range e.future[d][src] {
					enc.Int(int(m))
				}
			}
		}
	}

	if err := match.SnapshotState(e.matcher, &enc); err != nil {
		return nil, err
	}
	return enc.Bytes(), nil
}

// RestorePlaneState implements fabric.StatefulPlane: the inverse of
// PlaneState, applied to a freshly constructed engine. After decoding it
// rebuilds the per-shard derived mirrors (matched/pending occupancy bits
// and in-flight message counts) that a live run maintains incrementally —
// the same invariants CheckRound asserts.
func (e *Engine) RestorePlaneState(data []byte) error {
	d := snap.NewDec(data)
	rn := d.Count(16) // one numerator and one denominator per entry
	num := make([]int64, rn)
	den := make([]int64, rn)
	for i := range num {
		num[i] = d.I64()
	}
	for i := range den {
		den[i] = d.I64()
	}
	if err := d.Err(); err != nil {
		return err
	}
	e.MatchRatio.RestoreCounts(num, den)

	hasRelay := d.Bool()
	if hasRelay != (e.relay != nil) {
		return fmt.Errorf("negotiator: checkpoint relay presence (%v) does not match engine configuration (%v)", hasRelay, e.relay != nil)
	}
	if hasRelay {
		if n := int(d.U32()); n != len(e.relay.rotate) {
			return fmt.Errorf("negotiator: checkpoint holds %d relay rotations, engine has %d", n, len(e.relay.rotate))
		}
		for i := range e.relay.rotate {
			e.relay.rotate[i] = d.Int()
		}
	}

	cnt := int(d.U32())
	for k := 0; k < cnt; k++ {
		i := int(d.U32())
		if d.Err() != nil {
			break
		}
		if i < 0 || i >= e.n {
			return fmt.Errorf("negotiator: checkpoint ToR index %d out of range", i)
		}
		t := &e.tors[i]
		t.hasMatches = d.Bool()
		if t.hasMatches {
			for p := range t.matches {
				t.matches[p] = int32(d.Int())
			}
		}
		for g := 0; g < e.stageLag; g++ {
			var err error
			if t.reqIn[g], err = decodeRequests(d, t.reqIn[g]); err != nil {
				return err
			}
			if t.grantIn[g], err = decodeGrants(d, t.grantIn[g]); err != nil {
				return err
			}
		}
	}

	hasBatch := d.Bool()
	if hasBatch != (e.batch != nil) {
		return fmt.Errorf("negotiator: checkpoint batch-matcher presence (%v) does not match engine configuration (%v)", hasBatch, e.batch != nil)
	}
	if hasBatch {
		if depth := int(d.U32()); depth != len(e.future) {
			return fmt.Errorf("negotiator: checkpoint future-ring depth %d does not match engine %d", depth, len(e.future))
		}
		for dd := range e.future {
			tn := int(d.U32())
			for k := 0; k < tn; k++ {
				src := int(d.U32())
				if d.Err() != nil {
					break
				}
				if src < 0 || src >= e.n {
					return fmt.Errorf("negotiator: checkpoint future-ring source %d out of range", src)
				}
				e.futureTouched[dd] = append(e.futureTouched[dd], int32(src))
				row := e.future[dd][src]
				for p := range row {
					row[p] = int32(d.Int())
				}
			}
		}
	}

	if err := match.RestoreState(e.matcher, d); err != nil {
		return err
	}
	if err := d.Finish(); err != nil {
		return err
	}

	// Rebuild the shard-side derived mirrors from the restored shadow
	// state (matched bit == hasMatches, pending bits == non-empty
	// mailboxes, inflight == delivered-but-unconsumed message count).
	for _, sh := range e.shards {
		for i := sh.lo; i < sh.hi; i++ {
			t := &e.tors[i]
			if t.hasMatches {
				sh.matched.Set(i - sh.lo)
			}
			for g := 0; g < e.stageLag; g++ {
				if n := len(t.reqIn[g]); n > 0 {
					sh.reqPend[g].Set(i - sh.lo)
					sh.inflight += int64(n)
				}
				if n := len(t.grantIn[g]); n > 0 {
					sh.grantPend[g].Set(i - sh.lo)
					sh.inflight += int64(n)
				}
			}
		}
	}
	return nil
}

// torHasState reports whether a ToR carries cross-epoch control state: a
// live match row or any pending pipelined message. The relay plan is
// cleared and recomputed by the next epoch's planning pass and does not
// count.
func torHasState(t *tor) bool {
	if t.hasMatches {
		return true
	}
	for _, in := range t.reqIn {
		if len(in) > 0 {
			return true
		}
	}
	for _, in := range t.grantIn {
		if len(in) > 0 {
			return true
		}
	}
	return false
}

func encodeRequests(e *snap.Enc, reqs []match.Request) {
	e.U32(uint32(len(reqs)))
	for _, r := range reqs {
		e.Int(r.Src)
		e.Int(r.Dst)
		e.Int(r.Port)
		e.I64(r.Size)
		e.F64(r.Delay)
		e.I64(r.NewBytes)
	}
}

func decodeRequests(d *snap.Dec, into []match.Request) ([]match.Request, error) {
	n := int(d.U32())
	for i := 0; i < n; i++ {
		r := match.Request{
			Src:      d.Int(),
			Dst:      d.Int(),
			Port:     d.Int(),
			Size:     d.I64(),
			Delay:    d.F64(),
			NewBytes: d.I64(),
		}
		if d.Err() != nil {
			break
		}
		into = append(into, r)
	}
	return into, d.Err()
}

func encodeGrants(e *snap.Enc, grants []match.Grant) {
	e.U32(uint32(len(grants)))
	for _, g := range grants {
		e.Int(g.Dst)
		e.Int(g.Port)
		e.Int(g.Src)
	}
}

func decodeGrants(d *snap.Dec, into []match.Grant) ([]match.Grant, error) {
	n := int(d.U32())
	for i := 0; i < n; i++ {
		g := match.Grant{Dst: d.Int(), Port: d.Int(), Src: d.Int()}
		if d.Err() != nil {
			break
		}
		into = append(into, g)
	}
	return into, d.Err()
}
