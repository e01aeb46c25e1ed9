//go:build race

package oblivious

// raceEnabled reports whether the race detector is compiled in; the
// width guard's timing ratio skips under race (the detector's
// instrumentation, not the slot walks, would set the ratio).
const raceEnabled = true
