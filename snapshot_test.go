package negotiator_test

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	negotiator "negotiator"
	"negotiator/internal/workload"
)

// snapshotRun runs a spec for snapAt epochs at snapWorkers, checkpoints,
// restores the checkpoint into a freshly built fabric at restoreWorkers,
// runs the remaining epochs there, and renders the same comparable string
// as shardRun — the checkpoint/restore analogue of the worker-invariance
// harness. The restored fabric gets an identically constructed workload
// generator, which Restore fast-forwards to the checkpointed position.
func snapshotRun(t *testing.T, spec negotiator.Spec, snapWorkers, restoreWorkers, snapAt, epochs int, load float64) string {
	t.Helper()
	spec.Workers = snapWorkers
	fab, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	fab.SetWorkload(negotiator.PoissonWorkload(spec, negotiator.Hadoop, load, spec.Seed+6))
	fab.RunEpochs(snapAt)
	var buf bytes.Buffer
	if err := fab.Snapshot(&buf); err != nil {
		t.Fatalf("snapshot at epoch %d: %v", snapAt, err)
	}

	spec.Workers = restoreWorkers
	fab2, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	fab2.SetWorkload(negotiator.PoissonWorkload(spec, negotiator.Hadoop, load, spec.Seed+6))
	if err := fab2.Restore(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("restore at epoch %d: %v", snapAt, err)
	}
	fab2.RunEpochs(epochs - snapAt)
	return fmt.Sprintf("%+v | cdf=%v", fab2.Summary(), fab2.MiceCDF(24))
}

// TestSnapshotRestoreEquivalence is the checkpoint contract over the whole
// golden matrix: run 60 of 120 epochs, checkpoint, restore into a fresh
// fabric, run the remaining 60 — the result must be byte-identical to the
// uninterrupted run (the same string the golden fingerprints lock). This
// covers every scheduler variant, both topologies, all three control
// planes, and the failure scenarios (random links recovered mid-run,
// flapping links snapshotted mid-cycle, a ToR power cycle with detection
// lag) whose loss and requeue state must survive the round trip.
func TestSnapshotRestoreEquivalence(t *testing.T) {
	for _, c := range fingerprintCases() {
		c := c
		t.Run(c.name, func(t *testing.T) {
			want := fingerprint(t, c.spec)
			if got := snapshotRun(t, c.spec, 1, 1, 60, 120, 0.7); got != want {
				t.Errorf("restored run diverges from uninterrupted\n got: %.400s\nwant: %.400s", got, want)
			}
		})
	}
}

// TestSnapshotWorkerInvariance pins the worker-count freedom of the
// checkpoint format: a snapshot taken by a maximally sharded run restores
// into a sequential fabric (and vice versa) and still reproduces the
// sequential fingerprint byte for byte. Skipped in -short mode like the
// fingerprint worker-invariance matrix.
func TestSnapshotWorkerInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("full matrix in -short mode")
	}
	for _, c := range fingerprintCases() {
		c := c
		t.Run(c.name, func(t *testing.T) {
			want := fingerprint(t, c.spec)
			if got := snapshotRun(t, c.spec, 16, 1, 60, 120, 0.7); got != want {
				t.Errorf("16->1 restore diverges\n got: %.400s\nwant: %.400s", got, want)
			}
			if got := snapshotRun(t, c.spec, 1, 16, 60, 120, 0.7); got != want {
				t.Errorf("1->16 restore diverges\n got: %.400s\nwant: %.400s", got, want)
			}
		})
	}
}

// TestSnapshotAtBoundaries covers the degenerate checkpoint positions: a
// snapshot before the first epoch (nothing has run; the checkpoint is a
// spec-validated zero state) and one after the last (nothing remains to
// run; restore must reproduce the final metrics exactly).
func TestSnapshotAtBoundaries(t *testing.T) {
	spec := negotiator.SmallSpec()
	want := fingerprint(t, spec)
	for _, snapAt := range []int{0, 1, 119, 120} {
		if got := snapshotRun(t, spec, 1, 1, snapAt, 120, 0.7); got != want {
			t.Errorf("snapshot at epoch %d diverges\n got: %.400s\nwant: %.400s", snapAt, got, want)
		}
	}
}

// TestSnapshotPortGroupFailure round-trips the remaining failure scenario
// vocabulary — a whole AWGR (port group) outage with detection lag — mid
// outage, so the restored cursors must reproduce the detection-lagged loss
// and requeue sequence.
func TestSnapshotPortGroupFailure(t *testing.T) {
	spec := negotiator.SmallSpec()
	spec.Failures = &negotiator.FailurePlan{
		Scenario:    negotiator.PortGroupFailure,
		Port:        2,
		FailAt:      negotiator.Time(50 * negotiator.Microsecond),
		RecoverAt:   negotiator.Time(400 * negotiator.Microsecond),
		DetectDelay: 25 * negotiator.Microsecond,
	}
	want := fingerprint(t, spec)
	// Epoch ~14.6µs: epoch 10 is pre-failure, 20 mid-outage pre-detection
	// horizon, 40 mid-outage — the checkpoint lands on each side of the
	// fail/detect edges.
	for _, snapAt := range []int{10, 20, 40} {
		if got := snapshotRun(t, spec, 1, 1, snapAt, 120, 0.7); got != want {
			t.Errorf("snapshot at epoch %d diverges\n got: %.400s\nwant: %.400s", snapAt, got, want)
		}
	}
}

// TestSnapshotIgnoresFCTQueries: the checkpoint writes FCT samples in
// recording order, never in the sorted order a query builds and caches, so
// a run that asked for Summary and MiceCDF before its snapshot writes the
// same bytes as an identical run that never asked — sequential and
// sharded.
func TestSnapshotIgnoresFCTQueries(t *testing.T) {
	var spec negotiator.Spec
	for _, c := range fingerprintCases() {
		if c.name == "negotiator/failures/parallel" {
			spec = c.spec
		}
	}
	for _, workers := range []int{1, 4} {
		snap := func(query bool) []byte {
			spec := spec
			spec.Workers = workers
			fab, err := spec.Build()
			if err != nil {
				t.Fatal(err)
			}
			fab.SetWorkload(negotiator.PoissonWorkload(spec, negotiator.Hadoop, 0.7, spec.Seed+6))
			// Query mid-run as well, so the snapshot follows a cached view
			// that later samples made stale.
			for i := 0; i < 2; i++ {
				fab.RunEpochs(40)
				if query {
					if fab.Summary().Flows == 0 || fab.MiceCDF(100) == nil {
						t.Fatal("no mice completed; the comparison would be empty")
					}
				}
			}
			var buf bytes.Buffer
			if err := fab.Snapshot(&buf); err != nil {
				t.Fatal(err)
			}
			return buf.Bytes()
		}
		if !bytes.Equal(snap(true), snap(false)) {
			t.Errorf("workers=%d: Summary/MiceCDF before the snapshot changed its bytes", workers)
		}
	}
}

// TestRestoreRejectsCorruption: a checkpoint damaged in transit (bit flip,
// truncation, version bump) must fail Restore with a clear error and leave
// the target fabric untouched — proven by restoring the intact checkpoint
// into the same fabric afterwards and finishing the run byte-identically.
func TestRestoreRejectsCorruption(t *testing.T) {
	spec := negotiator.SmallSpec()
	want := fingerprint(t, spec)

	spec.Workers = 1
	fab, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	fab.SetWorkload(negotiator.PoissonWorkload(spec, negotiator.Hadoop, 0.7, spec.Seed+6))
	fab.RunEpochs(60)
	var buf bytes.Buffer
	if err := fab.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	corruptions := []struct {
		name    string
		mutate  func([]byte) []byte
		errWant string
	}{
		{"payload bit flip", func(b []byte) []byte { b[len(b)/2] ^= 1; return b }, "CRC"},
		{"truncated", func(b []byte) []byte { return b[:len(b)/2] }, ""},
		{"unknown version", func(b []byte) []byte { b[8] = 99; return b }, "version"},
		{"empty", func(b []byte) []byte { return nil }, ""},
	}
	for _, c := range corruptions {
		t.Run(c.name, func(t *testing.T) {
			spec := spec
			fab2, err := spec.Build()
			if err != nil {
				t.Fatal(err)
			}
			fab2.SetWorkload(negotiator.PoissonWorkload(spec, negotiator.Hadoop, 0.7, spec.Seed+6))
			bad := c.mutate(bytes.Clone(good))
			err = fab2.Restore(bytes.NewReader(bad))
			if err == nil {
				t.Fatal("corrupt checkpoint restored without error")
			}
			if c.errWant != "" && !strings.Contains(err.Error(), c.errWant) {
				t.Fatalf("error %q does not mention %q", err, c.errWant)
			}
			// The failed restore must not have mutated the fabric: the
			// intact checkpoint still applies and the run completes
			// byte-identically.
			if err := fab2.Restore(bytes.NewReader(good)); err != nil {
				t.Fatalf("intact checkpoint rejected after failed restore: %v", err)
			}
			fab2.RunEpochs(60)
			got := fmt.Sprintf("%+v | cdf=%v", fab2.Summary(), fab2.MiceCDF(24))
			if got != want {
				t.Errorf("run after recovered restore diverges\n got: %.400s\nwant: %.400s", got, want)
			}
		})
	}
}

// TestRestoreRejectsMismatch: a structurally valid checkpoint applied to
// the wrong configuration (different plane, topology size, failure plan,
// or a wrongly seeded workload) must fail loudly instead of scrambling
// state.
func TestRestoreRejectsMismatch(t *testing.T) {
	spec := negotiator.SmallSpec()
	spec.Workers = 1
	fab, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	fab.SetWorkload(negotiator.PoissonWorkload(spec, negotiator.Hadoop, 0.7, spec.Seed+6))
	fab.RunEpochs(60)
	var buf bytes.Buffer
	if err := fab.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	t.Run("wrong plane", func(t *testing.T) {
		other := negotiator.SmallSpec()
		other.ControlPlane = negotiator.ObliviousPlane
		fab2, err := other.Build()
		if err != nil {
			t.Fatal(err)
		}
		fab2.SetWorkload(negotiator.PoissonWorkload(other, negotiator.Hadoop, 0.7, other.Seed+6))
		if err := fab2.Restore(bytes.NewReader(good)); err == nil {
			t.Error("checkpoint restored onto the wrong control plane")
		}
	})
	t.Run("wrong workload seed", func(t *testing.T) {
		fab2, err := spec.Build()
		if err != nil {
			t.Fatal(err)
		}
		fab2.SetWorkload(negotiator.PoissonWorkload(spec, negotiator.Hadoop, 0.7, spec.Seed+7))
		if err := fab2.Restore(bytes.NewReader(good)); err == nil {
			t.Error("checkpoint restored with a differently seeded workload")
		}
	})
	t.Run("no workload attached", func(t *testing.T) {
		fab2, err := spec.Build()
		if err != nil {
			t.Fatal(err)
		}
		if err := fab2.Restore(bytes.NewReader(good)); err == nil {
			t.Error("checkpoint restored without a workload to replay")
		}
	})
	t.Run("already run", func(t *testing.T) {
		fab2, err := spec.Build()
		if err != nil {
			t.Fatal(err)
		}
		fab2.SetWorkload(negotiator.PoissonWorkload(spec, negotiator.Hadoop, 0.7, spec.Seed+6))
		fab2.RunEpochs(1)
		if err := fab2.Restore(bytes.NewReader(good)); err == nil {
			t.Error("checkpoint restored onto a fabric that already ran")
		}
	})
}

// groupedSlice replays a fixed arrival slice — the grouped-checkpoint
// workload: group records in flight at the snapshot point plus one
// grouped arrival still in the future, so the checkpoint must carry both
// live member progress and the pump's pending group intact.
func groupedSlice() negotiator.Workload {
	arrivals := make([]workload.Arrival, 0, 9)
	for i := 0; i < 8; i++ {
		arrivals = append(arrivals, workload.Arrival{
			Time: 0, Src: i, Dst: (i + 8) % 16, Size: 2_000_000, Count: 4,
		})
	}
	// The 8 MB per pair take ~100 of the ~2.9us epochs to deliver, so the
	// groups are mid-flight at the epoch-10 checkpoint; the late group is
	// still pending in the pump there (100us ~ epoch 34) and injects well
	// before epoch 150 (~440us).
	arrivals = append(arrivals, workload.Arrival{
		Time: negotiator.Time(100 * negotiator.Microsecond),
		Src:  5, Dst: 2, Size: 2000, Count: 3,
	})
	return &sliceWorkload{arrivals: arrivals}
}

type sliceWorkload struct {
	arrivals []workload.Arrival
	next     int
}

func (s *sliceWorkload) Next() (workload.Arrival, bool) {
	if s.next >= len(s.arrivals) {
		return workload.Arrival{}, false
	}
	a := s.arrivals[s.next]
	s.next++
	return a, true
}

// groupedSnapshotRun is snapshotRun over the grouped slice workload.
func groupedSnapshotRun(t *testing.T, spec negotiator.Spec, snapWorkers, restoreWorkers, snapAt, epochs int) string {
	t.Helper()
	spec.Workers = snapWorkers
	fab, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	fab.SetWorkload(groupedSlice())
	fab.RunEpochs(snapAt)
	var buf bytes.Buffer
	if err := fab.Snapshot(&buf); err != nil {
		t.Fatalf("snapshot at epoch %d: %v", snapAt, err)
	}

	spec.Workers = restoreWorkers
	fab2, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	fab2.SetWorkload(groupedSlice())
	if err := fab2.Restore(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("restore at epoch %d: %v", snapAt, err)
	}
	fab2.RunEpochs(epochs - snapAt)
	return fmt.Sprintf("%+v | cdf=%v", fab2.Summary(), fab2.MiceCDF(24))
}

// TestSnapshotGroupedFlows round-trips flow-group state. round-trip: with
// 4-member groups mid-delivery and a 3-member group still pending in the
// pump, checkpointing at epoch 10 and restoring — at the same worker
// count and across 16 -> 1 — must continue byte-identically to the
// uninterrupted run: member FCT boundaries, the group counts and the
// pending group's count all survive the GRPS section. identity-bytes: a
// run whose workload passed through the identity GroupWorkload(w, 1)
// yields a checkpoint stream byte-identical to the plain run's — no GRPS
// section is written when no group has formed, so pre-group checkpoints
// and k=1 checkpoints stay interchangeable.
func TestSnapshotGroupedFlows(t *testing.T) {
	t.Run("round-trip", func(t *testing.T) {
		spec := negotiator.SmallSpec()
		fab, err := spec.Build()
		if err != nil {
			t.Fatal(err)
		}
		fab.SetWorkload(groupedSlice())
		fab.RunEpochs(150)
		want := fmt.Sprintf("%+v | cdf=%v", fab.Summary(), fab.MiceCDF(24))
		if s := fab.Summary(); s.Flows != 35 {
			t.Fatalf("uninterrupted run completed %d member flows, want 35 (8 groups of 4 + 1 of 3)", s.Flows)
		}
		if got := groupedSnapshotRun(t, spec, 1, 1, 10, 150); got != want {
			t.Errorf("restored grouped run diverges\n got: %.400s\nwant: %.400s", got, want)
		}
		if got := groupedSnapshotRun(t, spec, 16, 1, 10, 150); got != want {
			t.Errorf("16->1 grouped restore diverges\n got: %.400s\nwant: %.400s", got, want)
		}
	})

	t.Run("identity-bytes", func(t *testing.T) {
		spec := negotiator.SmallSpec()
		snap := func(group bool) []byte {
			fab, err := spec.Build()
			if err != nil {
				t.Fatal(err)
			}
			w := negotiator.PoissonWorkload(spec, negotiator.Hadoop, 0.7, spec.Seed+6)
			if group {
				if w, err = negotiator.GroupWorkload(w, 1); err != nil {
					t.Fatal(err)
				}
			}
			fab.SetWorkload(w)
			fab.RunEpochs(60)
			var buf bytes.Buffer
			if err := fab.Snapshot(&buf); err != nil {
				t.Fatal(err)
			}
			return buf.Bytes()
		}
		if !bytes.Equal(snap(true), snap(false)) {
			t.Error("identity GroupWorkload changes the checkpoint stream")
		}
	})
}
