package oblivious

import "negotiator/internal/snap"

// PlaneState implements fabric.StatefulPlane. The round-robin schedule
// keeps almost no cross-slot control state outside the node queues: the
// slot index and rotation derive from the core's round counter, spray
// pointers and the spray RNG live in the core snapshot, and the per-slot
// used-connection stamps compare against the current slot number only.
// The transit-volume counter is the plane's sole persistent scalar.
func (e *Engine) PlaneState() ([]byte, error) {
	var enc snap.Enc
	enc.I64(e.relayed)
	return enc.Bytes(), nil
}

// RestorePlaneState implements fabric.StatefulPlane.
func (e *Engine) RestorePlaneState(data []byte) error {
	d := snap.NewDec(data)
	e.relayed = d.I64()
	return d.Finish()
}
