package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"negotiator"
	"negotiator/internal/sim"
)

// TestRunCheckpointedMatchesUninterrupted: on every plane, a run that
// checkpoints in intervals, is stopped halfway, and is resumed from its
// rolling checkpoint file ends in the state of an uninterrupted run of the
// same epochs — the same Summary and MiceCDF, and a final checkpoint equal
// to the uninterrupted fabric's snapshot byte for byte.
func TestRunCheckpointedMatchesUninterrupted(t *testing.T) {
	const total = 300 * sim.Microsecond
	for _, plane := range negotiator.ControlPlanes() {
		t.Run(fmt.Sprint(plane), func(t *testing.T) {
			spec := negotiator.SmallSpec()
			spec.ControlPlane = plane
			build := func() negotiator.Fabric {
				fab, err := spec.Build()
				if err != nil {
					t.Fatal(err)
				}
				fab.SetWorkload(negotiator.PoissonWorkload(spec, negotiator.Hadoop, 0.7, spec.Seed+6))
				return fab
			}
			dir := t.TempDir()
			if err := runCheckpointed(build(), total/2, 7, dir); err != nil {
				t.Fatal(err)
			}
			fab := build()
			if err := restoreCheckpoint(fab, filepath.Join(dir, "checkpoint.negosnap")); err != nil {
				t.Fatal(err)
			}
			if err := runCheckpointed(fab, total, 7, dir); err != nil {
				t.Fatal(err)
			}

			ref := build()
			epochLen := ref.Summary().EpochLen
			ref.RunEpochs(int((total + epochLen - 1) / epochLen))
			render := func(f negotiator.Fabric) string { return fmt.Sprintf("%+v | cdf=%v", f.Summary(), f.MiceCDF(24)) }
			if got, want := render(fab), render(ref); got != want {
				t.Errorf("checkpointed run diverges\n got: %.400s\nwant: %.400s", got, want)
			}
			var want bytes.Buffer
			if err := ref.Snapshot(&want); err != nil {
				t.Fatal(err)
			}
			got, err := os.ReadFile(filepath.Join(dir, "checkpoint.negosnap"))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want.Bytes()) {
				t.Error("final rolling checkpoint differs from the uninterrupted fabric's snapshot")
			}
		})
	}
}
