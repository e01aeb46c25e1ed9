package hybrid

import (
	"fmt"

	"negotiator/internal/match"
	"negotiator/internal/snap"
)

// PlaneState implements fabric.StatefulPlane. The hybrid plane's
// idealised negotiation produces and consumes its single-generation
// mailboxes within one Round, so the only cross-epoch state is the
// match-ratio series, the lazily-cleared per-ToR match rows, and the
// matcher's ring pointers. Request caches restart cold on restore (the
// replay-equals-fresh invariant makes that invisible).
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
	var cnt uint32
	for _, t := range e.tors {
		if t.hasMatches {
			cnt++
		}
	}
	enc.U32(cnt)
	for i, t := range e.tors {
		if !t.hasMatches {
			continue
		}
		enc.U32(uint32(i))
		for _, m := range t.matches {
			enc.Int(int(m))
		}
	}
	if err := match.SnapshotState(e.matcher, &enc); err != nil {
		return nil, err
	}
	return enc.Bytes(), nil
}

// RestorePlaneState implements fabric.StatefulPlane: the inverse of
// PlaneState, applied to a freshly constructed engine.
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
	cnt := int(d.U32())
	for k := 0; k < cnt; k++ {
		i := int(d.U32())
		if d.Err() != nil {
			break
		}
		if i < 0 || i >= e.n {
			return fmt.Errorf("hybrid: checkpoint ToR index %d out of range", i)
		}
		t := e.tors[i]
		t.hasMatches = true
		for p := range t.matches {
			t.matches[p] = int32(d.Int())
		}
	}
	if err := match.RestoreState(e.matcher, d); err != nil {
		return err
	}
	return d.Finish()
}
