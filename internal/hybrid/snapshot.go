package hybrid

import (
	"negotiator/internal/match"
	"negotiator/internal/snap"
)

// PlaneState implements fabric.StatefulPlane. The hybrid plane's
// idealised negotiation produces and consumes its single-generation
// mailboxes within one Round, and the next Round overwrites or clears
// every match row before it reads one, so the only cross-epoch state is
// the matcher's ring pointers (the core checkpoints the match-ratio
// series).
func (e *Engine) PlaneState() ([]byte, error) {
	var enc snap.Enc
	if err := match.SnapshotState(e.matcher, &enc); err != nil {
		return nil, err
	}
	return enc.Bytes(), nil
}

// RestorePlaneState implements fabric.StatefulPlane: the inverse of
// PlaneState, applied to a freshly constructed engine.
func (e *Engine) RestorePlaneState(data []byte) error {
	d := snap.NewDec(data)
	if err := match.RestoreState(e.matcher, d); err != nil {
		return err
	}
	return d.Finish()
}
