package negotiator_test

import (
	"testing"
)

// The event-skip cross-check: the optimization is on by default and
// claims semantic invisibility, so every golden combination must produce
// byte-identical Summary and MiceCDF output with it forced off. The test
// pins the claim directly (fingerprint equality within one process),
// complementing the golden corpus, which locks the default (optimized)
// output across commits.

// TestEventSkipEquivalence: skip-on == skip-off across the full golden
// matrix. Each combination runs twice — once with the event-skip run loop
// (the default) and once ticking every round — and the fingerprints must
// match exactly: same FCT histograms, same ledger, same match ratio, same
// mice CDF.
func TestEventSkipEquivalence(t *testing.T) {
	for _, c := range fingerprintCases() {
		c := c
		t.Run(c.name, func(t *testing.T) {
			on := c.spec
			on.DisableEventSkip = false
			off := c.spec
			off.DisableEventSkip = true
			if got, want := fingerprint(t, on), fingerprint(t, off); got != want {
				t.Errorf("event-skip changes results\nskip: %.400s\ntick: %.400s", got, want)
			}
		})
	}
}
