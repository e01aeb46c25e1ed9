// Package negotiator implements the NegotiaToR fabric engine: the two-phase
// epoch with its in-band pipelined control plane (paper §3.3), one-hop
// scheduled data transmission, incast-optimised scheduling-delay bypass via
// data piggybacking (§3.4), mice-flow priority queues, fault tolerance
// (§3.6.1), and the traffic-aware selective relay extension (Appendix
// A.2.2).
//
// The engine is epoch-synchronous: because the fabric is globally
// time-synchronised and slot-quantised, simulating it epoch by epoch is
// exact for every quantity the paper reports while being far cheaper than a
// general event queue.
package negotiator

import (
	"fmt"

	"negotiator/internal/sim"
	"negotiator/internal/topo"
)

// Timing describes the epoch structure (paper §4.1 defaults).
type Timing struct {
	// Guardband absorbs the end-to-end reconfiguration delay before every
	// predefined-phase timeslot (10 ns with fast tunable lasers).
	Guardband sim.Duration
	// PredefinedSlot is the total duration of one predefined-phase
	// timeslot, guardband included (60 ns).
	PredefinedSlot sim.Duration
	// MsgBytes is the size of one scheduling message plus piggybacked data
	// header (30 B).
	MsgBytes int64
	// ScheduledSlot is the duration of one scheduled-phase timeslot
	// (90 ns; no guardband, since the scheduled phase never reconfigures).
	ScheduledSlot sim.Duration
	// DataHeaderBytes is the per-packet header in the scheduled phase (10 B).
	DataHeaderBytes int64
	// ScheduledSlots is the length of the scheduled phase in timeslots (30).
	ScheduledSlots int
	// PropDelay is the one-way ToR-to-ToR propagation delay (2 µs).
	PropDelay sim.Duration
	// LinkRate is the per-uplink-port line rate (100 Gbps with the paper's
	// default 2x speedup over the 400 Gbps host aggregate).
	LinkRate sim.Rate
}

// DefaultTiming returns the paper's §4.1 epoch settings.
func DefaultTiming() Timing {
	return Timing{
		Guardband:       10,
		PredefinedSlot:  60,
		MsgBytes:        30,
		ScheduledSlot:   90,
		DataHeaderBytes: 10,
		ScheduledSlots:  30,
		PropDelay:       2 * sim.Microsecond,
		LinkRate:        sim.Gbps(100),
	}
}

// PiggybackBytes is the data payload carried alongside one scheduling
// message in a predefined-phase slot: transmission time minus guardband at
// line rate, minus the message/header bytes (595 B at defaults).
func (t Timing) PiggybackBytes() int64 {
	n := t.LinkRate.BytesIn(t.PredefinedSlot-t.Guardband) - t.MsgBytes
	if n < 0 {
		return 0
	}
	return n
}

// DataPayloadBytes is the payload of one scheduled-phase packet (1115 B at
// defaults).
func (t Timing) DataPayloadBytes() int64 {
	n := t.LinkRate.BytesIn(t.ScheduledSlot) - t.DataHeaderBytes
	if n < 0 {
		return 0
	}
	return n
}

// PredefinedLen is the predefined phase duration for a topology needing
// the given number of round-robin slots.
func (t Timing) PredefinedLen(slots int) sim.Duration {
	return sim.Duration(slots) * t.PredefinedSlot
}

// ScheduledLen is the scheduled phase duration.
func (t Timing) ScheduledLen() sim.Duration {
	return sim.Duration(t.ScheduledSlots) * t.ScheduledSlot
}

// EpochLen is the full epoch duration.
func (t Timing) EpochLen(predefinedSlots int) sim.Duration {
	return t.PredefinedLen(predefinedSlots) + t.ScheduledLen()
}

// EpochPortBytes is the data one matched port can move in one scheduled
// phase, used as the stateful variant's matrix decrement.
func (t Timing) EpochPortBytes() int64 {
	return int64(t.ScheduledSlots) * t.DataPayloadBytes()
}

// Validate checks internal consistency.
func (t Timing) Validate(top topo.Topology) error {
	if t.Guardband < 0 || t.PredefinedSlot <= t.Guardband {
		return fmt.Errorf("negotiator: predefined slot %v must exceed guardband %v", t.PredefinedSlot, t.Guardband)
	}
	if t.ScheduledSlot <= 0 || t.ScheduledSlots <= 0 {
		return fmt.Errorf("negotiator: scheduled phase must be non-empty")
	}
	if t.LinkRate <= 0 {
		return fmt.Errorf("negotiator: non-positive link rate")
	}
	if t.PiggybackBytes() < 0 || t.DataPayloadBytes() <= 0 {
		return fmt.Errorf("negotiator: slot too short for headers")
	}
	if t.PropDelay < 0 {
		return fmt.Errorf("negotiator: negative propagation delay")
	}
	return nil
}

// StageLag is the number of epochs between consecutive pipeline stages:
// one when scheduling messages (sent during the predefined phase) arrive
// and are processed before the next epoch starts, more when the one-way
// delay exceeds an epoch (paper §3.3.1 footnote: the pipeline "expands to
// more epochs").
func (t Timing) StageLag(predefinedSlots int) int {
	epoch := t.EpochLen(predefinedSlots)
	deadline := t.PredefinedLen(predefinedSlots) + t.PropDelay
	lag := 1
	for sim.Duration(lag)*epoch < deadline {
		lag++
	}
	return lag
}
