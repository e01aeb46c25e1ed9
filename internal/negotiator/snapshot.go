package negotiator

import (
	"fmt"

	"negotiator/internal/match"
	"negotiator/internal/snap"
)

// PlaneState implements fabric.StatefulPlane. The NegotiaToR plane's
// persistent cross-epoch state is: the selective relay's candidate
// rotation, every ToR's pipelined mailboxes, the batch matchers'
// future-match ring, and the matcher's own state (ring pointers, demand
// matrices, tie-break RNG). The match-ratio series the plane observes
// belongs to the core, which checkpoints it. Everything else is rebuilt
// or re-derived within an epoch and is deliberately not serialized:
// outboxes, shard scratch, and the last epoch's match rows, which the
// next epoch expires before it reads them (acceptStep, batchPrepStep).
func (e *Engine) PlaneState() ([]byte, error) {
	var enc snap.Enc
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
		if hasMail(t) {
			cnt++
		}
	}
	enc.U32(cnt)
	for i := range e.tors {
		t := &e.tors[i]
		if !hasMail(t) {
			continue
		}
		enc.U32(uint32(i))
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
// rebuilds the per-shard derived mirrors (pending occupancy bits and
// in-flight message counts) that a live run maintains incrementally — the
// same invariants CheckRound asserts.
func (e *Engine) RestorePlaneState(data []byte) error {
	d := snap.NewDec(data)
	hasRelay := d.Bool()
	if hasRelay != (e.relay != nil) {
		return fmt.Errorf("negotiator: checkpoint relay presence (%v) does not match engine configuration (%v)", hasRelay, e.relay != nil)
	}
	if hasRelay {
		if n := int(d.U32()); n != len(e.relay.rotate) {
			return fmt.Errorf("negotiator: checkpoint holds %d relay rotations, engine has %d", n, len(e.relay.rotate))
		}
		// A run keeps each rotation in [0, n) (see planRelay).
		for i := range e.relay.rotate {
			rot := d.Int()
			if rot < 0 || rot >= e.n {
				return fmt.Errorf("negotiator: checkpoint relay rotation %d of ToR %d outside [0, %d)", rot, i, e.n)
			}
			e.relay.rotate[i] = rot
		}
	}

	// Mailboxes hold only messages a run delivers: the phases index ToRs,
	// ports and matcher rows by their fields, and CheckRound asserts the
	// matches grants turn into. Each generation's grants give away a
	// (destination, port) pair at most once.
	granted := map[[3]int]bool{}
	cnt := int(d.U32())
	for k, prev := 0, -1; k < cnt; k++ {
		i := int(d.U32())
		if d.Err() != nil {
			break
		}
		if i <= prev || i >= e.n {
			return fmt.Errorf("negotiator: checkpoint ToR index %d out of range or out of order", i)
		}
		prev = i
		t := &e.tors[i]
		for g := 0; g < e.stageLag; g++ {
			var err error
			if t.reqIn[g], err = decodeRequests(d, t.reqIn[g]); err != nil {
				return err
			}
			for _, r := range t.reqIn[g] {
				if r.Dst != i || r.Src < 0 || r.Src >= e.n || r.Src == i || r.Port != -1 && !e.top.CanReach(r.Src, r.Port, i) {
					return fmt.Errorf("negotiator: checkpoint request %d -> %d on port %d in ToR %d's mailbox is not one a REQUEST step sends", r.Src, r.Dst, r.Port, i)
				}
			}
			if t.grantIn[g], err = decodeGrants(d, t.grantIn[g]); err != nil {
				return err
			}
			for _, gr := range t.grantIn[g] {
				key := [3]int{g, gr.Dst, gr.Port}
				if gr.Src != i || !e.top.CanReach(i, gr.Port, gr.Dst) || granted[key] {
					return fmt.Errorf("negotiator: checkpoint grant of port %d at %d to %d in ToR %d's mailbox is not one a GRANT step sends", gr.Port, gr.Dst, gr.Src, i)
				}
				granted[key] = true
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
		// A slot lists its sources ascending (batchPrepStep merge-joins
		// the list), and its rows are a conflict-free matching.
		for dd := range e.future {
			tn := int(d.U32())
			matched := map[[2]int]bool{}
			for k, prev := 0, -1; k < tn; k++ {
				src := int(d.U32())
				if d.Err() != nil {
					break
				}
				if src <= prev || src >= e.n {
					return fmt.Errorf("negotiator: checkpoint future-ring source %d out of range or out of order", src)
				}
				prev = src
				e.futureTouched[dd] = append(e.futureTouched[dd], int32(src))
				row := e.future[dd][src]
				for p := range row {
					dst := d.Int()
					if dst != -1 {
						key := [2]int{dst, p}
						if !e.top.CanReach(src, p, dst) || matched[key] {
							return fmt.Errorf("negotiator: checkpoint future match %d-(%d)->%d is not one a batch Match makes", src, p, dst)
						}
						matched[key] = true
					}
					row[p] = int32(dst)
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

	// Rebuild the shard-side derived mirrors: pending bits == non-empty
	// mailboxes, inflight == delivered-but-unconsumed message count.
	for _, sh := range e.shards {
		for i := sh.lo; i < sh.hi; i++ {
			t := &e.tors[i]
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

// hasMail reports whether a ToR holds a pending pipelined message, its
// only control state that crosses an epoch boundary (the relay plan is
// recomputed by the next epoch's planning pass).
func hasMail(t *tor) bool {
	for g := range t.reqIn {
		if len(t.reqIn[g]) > 0 || len(t.grantIn[g]) > 0 {
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
