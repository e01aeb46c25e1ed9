package oblivious

import (
	"errors"

	"negotiator/internal/snap"
)

// PlaneState implements fabric.StatefulPlane. Under the Sirius lane
// discipline the payload is empty: the slot index and rotation derive
// from the core's round counter, the spray RNG is the core's, and the
// used-connection stamps compare against the current slot only. The
// OpportunisticDirect ablation's spray pointers are in no checkpoint, so
// it refuses to checkpoint.
func (e *Engine) PlaneState() ([]byte, error) {
	if !e.lanes {
		return nil, errAblationCheckpoint
	}
	return nil, nil
}

// RestorePlaneState implements fabric.StatefulPlane.
func (e *Engine) RestorePlaneState(data []byte) error {
	if !e.lanes {
		return errAblationCheckpoint
	}
	return snap.NewDec(data).Finish()
}

var errAblationCheckpoint = errors.New("oblivious: the OpportunisticDirect ablation does not support checkpoints")
