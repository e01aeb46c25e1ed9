// Package sim provides the low-level substrate shared by the fabric engines:
// a nanosecond-resolution simulated clock, deterministic pseudo-random
// number generation, and link-rate arithmetic helpers.
//
// All fabric engines in this repository are epoch-synchronous: the optical
// fabric is globally time-synchronised and slot-quantised, so simulated time
// only ever advances in whole slots. Time is therefore represented as an
// integer number of nanoseconds, which keeps the hot loops free of floating
// point and makes runs bit-for-bit reproducible.
package sim

import "fmt"

// Time is an absolute simulated time in nanoseconds since the start of the
// run. The zero value is the start of the simulation.
type Time int64

// Duration is a span of simulated time in nanoseconds.
type Duration int64

// Common durations, in simulated nanoseconds.
const (
	Nanosecond  Duration = 1
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
)

// Add returns the time d after t.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration t-u.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// String formats the time with an adaptive unit, e.g. "3.66µs".
func (t Time) String() string { return Duration(t).String() }

// String formats the duration with an adaptive unit. The magnitude is
// taken as a uint64, so math.MinInt64 formats like any other negative.
func (d Duration) String() string {
	sign, mag := "", uint64(d)
	if d < 0 {
		sign, mag = "-", -mag
	}
	switch {
	case mag < uint64(Microsecond):
		return fmt.Sprintf("%s%dns", sign, mag)
	case mag < uint64(Millisecond):
		return fmt.Sprintf("%s%.3gµs", sign, float64(mag)/float64(Microsecond))
	case mag < uint64(Second):
		return fmt.Sprintf("%s%.4gms", sign, float64(mag)/float64(Millisecond))
	default:
		return fmt.Sprintf("%s%.4gs", sign, float64(mag)/float64(Second))
	}
}

// Seconds returns the duration as a floating-point number of seconds.
func (d Duration) Seconds() float64 { return float64(d) / float64(Second) }

// Micros returns the duration as a floating-point number of microseconds.
func (d Duration) Micros() float64 { return float64(d) / float64(Microsecond) }

// Millis returns the duration as a floating-point number of milliseconds.
func (d Duration) Millis() float64 { return float64(d) / float64(Millisecond) }
