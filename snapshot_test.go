package negotiator_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"

	negotiator "negotiator"
	"negotiator/internal/snap"
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
		// Version 1 stored cumulative-injected tables and spray pointers in
		// every node record and the match ratio in the plane state.
		{"version 1", func(b []byte) []byte { b[8] = 1; return b }, "version"},
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

// reframe rewrites the first section with the tag through mutate and
// re-frames the whole stream with valid CRCs: the shape of a writer bug
// or a hand-edited checkpoint, which the container checks cannot catch.
func reframe(t *testing.T, stream []byte, tag string, mutate func([]byte)) []byte {
	t.Helper()
	return reframeWhere(t, stream, tag, func(p []byte) bool { mutate(p); return true })
}

// reframeWhere is reframe for the first section with the tag whose
// mutate reports that it edited the payload.
func reframeWhere(t *testing.T, stream []byte, tag string, mutate func([]byte) bool) []byte {
	t.Helper()
	secs := splitSections(stream)
	found := false
	for i := range secs {
		secs[i].Payload = bytes.Clone(secs[i].Payload)
		if secs[i].Tag == tag && !found {
			found = mutate(secs[i].Payload)
		}
	}
	if !found {
		t.Fatalf("checkpoint has no %s section", tag)
	}
	return joinSections(t, secs)
}

// splitSections returns a well-formed stream's sections in order; the
// payloads alias the stream.
func splitSections(stream []byte) []snap.Section {
	var secs []snap.Section
	for off := 12; ; {
		tag := string(stream[off : off+4])
		n := int(binary.LittleEndian.Uint64(stream[off+4 : off+12]))
		if tag == "END." {
			return secs
		}
		secs = append(secs, snap.Section{Tag: tag, Payload: stream[off+12 : off+12+n]})
		off += 12 + n + 4
	}
}

// joinSections frames sections into a stream with valid CRCs.
func joinSections(tb testing.TB, secs []snap.Section) []byte {
	tb.Helper()
	var out bytes.Buffer
	w := snap.NewWriter(&out)
	for _, sec := range secs {
		w.Section(sec.Tag, sec.Payload)
	}
	if err := w.Close(); err != nil {
		tb.Fatal(err)
	}
	return out.Bytes()
}

// TestRestoreRejectsOversizedCounts: every decoder that allocates or loops
// on an element count must bound the count by the payload it came with
// before acting on it. Each case rewrites one count in an otherwise intact
// checkpoint (CRCs recomputed); Restore must fail, allocate well under the
// size the count asks for, and leave the fabric untouched — proven, as in
// TestRestoreRejectsCorruption, by restoring the intact checkpoint into the
// same fabric and finishing the run byte-identically. The TAGS count is the
// one a fuzzer found (a 4-byte payload claiming 402,653,184 tags); the other
// counts ask for 128-256 MB, well past the 64 MB bound. A failure past the
// workload replay (the plane sections) has drawn the attached generator, so
// every case attaches a fresh one before the intact restore.
func TestRestoreRejectsOversizedCounts(t *testing.T) {
	poisson := func(spec negotiator.Spec) func() negotiator.Workload {
		return func() negotiator.Workload {
			return negotiator.PoissonWorkload(spec, negotiator.Hadoop, 0.7, spec.Seed+6)
		}
	}
	small := negotiator.SmallSpec()
	hybrid := negotiator.SmallSpec()
	hybrid.ControlPlane = negotiator.HybridPlane
	put := func(at func([]byte) int, count uint32) func([]byte) {
		return func(p []byte) { binary.LittleEndian.PutUint32(p[at(p):], count) }
	}
	first := func([]byte) int { return 0 }
	// METR payload layout: the FCT samples and the mice samples (count,
	// then 8 bytes each), the goodput entries (count, then 12 bytes each:
	// destination 4, bytes 8), then the match ratio (count, then 16 bytes
	// each: accepts 8, grants 8).
	u32 := func(p []byte, at int) int { return int(binary.LittleEndian.Uint32(p[at:])) }
	mice := func(p []byte) int { return 4 + 8*u32(p, 0) }
	goodput := func(p []byte) int { return mice(p) + 4 + 8*u32(p, mice(p)) }
	matchRatio := func(p []byte) int { return goodput(p) + 4 + 12*u32(p, goodput(p)) }
	cases := []struct {
		name           string
		spec           negotiator.Spec
		work           func() negotiator.Workload
		snapAt, epochs int
		tag            string
		mutate         func([]byte)
	}{
		{"tags", small, poisson(small), 60, 120, "TAGS", put(first, 402_653_184)},
		{"fct-samples", small, poisson(small), 60, 120, "METR", put(first, 1<<24)},
		{"mice-samples", small, poisson(small), 60, 120, "METR", put(mice, 1<<24)},
		{"flows", small, poisson(small), 60, 120, "FLOW", put(first, 1<<22)},
		{"flow-groups", small, groupedSlice, 10, 150, "GRPS", put(func([]byte) int { return 4 }, 1<<22)},
		{"negotiator-match-ratio", small, poisson(small), 60, 120, "METR", put(matchRatio, 1<<23)},
		{"hybrid-match-ratio", hybrid, poisson(hybrid), 60, 120, "METR", put(matchRatio, 1<<23)},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			c.spec.Workers = 1
			build := func() negotiator.Fabric {
				fab, err := c.spec.Build()
				if err != nil {
					t.Fatal(err)
				}
				fab.SetWorkload(c.work())
				return fab
			}
			fab := build()
			fab.RunEpochs(c.epochs)
			want := fmt.Sprintf("%+v | cdf=%v", fab.Summary(), fab.MiceCDF(24))

			fab = build()
			fab.RunEpochs(c.snapAt)
			var buf bytes.Buffer
			if err := fab.Snapshot(&buf); err != nil {
				t.Fatal(err)
			}
			good := buf.Bytes()
			bad := reframe(t, good, c.tag, c.mutate)

			fab2 := build()
			runtime.GC()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			err := fab2.Restore(bytes.NewReader(bad))
			runtime.ReadMemStats(&after)
			if err == nil {
				t.Fatal("checkpoint with an oversized count restored without error")
			}
			if !strings.Contains(err.Error(), "snap: count") {
				t.Errorf("error %q is not the count bound", err)
			}
			if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 64<<20 {
				t.Errorf("rejecting the oversized count allocated %d MB, want < 64 MB", alloc>>20)
			}
			fab2.SetWorkload(c.work())
			if err := fab2.Restore(bytes.NewReader(good)); err != nil {
				t.Fatalf("intact checkpoint rejected after failed restore: %v", err)
			}
			fab2.RunEpochs(c.epochs - c.snapAt)
			if got := fmt.Sprintf("%+v | cdf=%v", fab2.Summary(), fab2.MiceCDF(24)); got != want {
				t.Errorf("run after recovered restore diverges\n got: %.400s\nwant: %.400s", got, want)
			}
		})
	}
}

// TestRestoreRejectsBadLossRecords: a NODE payload edited behind a valid
// CRC must fail Restore with an error, never a panic — a loss record whose
// destination or lane lies off the fabric (requeue would index out of
// range), or whose byte count the ledger does not hold, and (with no
// failure plan at all) queued bytes the ledger does not hold (the flow
// would over-deliver).
func TestRestoreRejectsBadLossRecords(t *testing.T) {
	failing := negotiator.SmallSpec()
	failing.Failures = &negotiator.FailurePlan{
		Fraction:    0.25,
		RecoverAt:   negotiator.Time(200 * negotiator.Microsecond),
		DetectDelay: 30 * negotiator.Microsecond,
		Seed:        3,
	}
	// NODE payload layout: the index (8 bytes), the loss records (count,
	// then 41 bytes each: flow 8, dst 4, off 8, n 8, at 8, class 1, via
	// 4), then the direct segments (count, then 29 bytes each: dst 4,
	// prio 1, flow 8, bytes 8, at 8).
	const losses = 8
	u32 := func(p []byte, at int) int { return int(binary.LittleEndian.Uint32(p[at:])) }
	firstLoss := func(edit func(p []byte, l int)) func([]byte) bool {
		return func(p []byte) bool {
			at := losses
			if u32(p, at) == 0 {
				return false
			}
			edit(p, at+4)
			return true
		}
	}
	cases := []struct {
		name   string
		spec   negotiator.Spec
		snapAt int
		mutate func([]byte) bool
	}{
		{"loss-dst-off-fabric", failing, 3, firstLoss(func(p []byte, l int) {
			binary.LittleEndian.PutUint32(p[l+8:], 1_000_000)
		})},
		{"lane-loss-without-lanes", failing, 3, firstLoss(func(p []byte, l int) {
			p[l+36] = 1 // RequeueLane
			binary.LittleEndian.PutUint32(p[l+37:], 1_000_000)
		})},
		{"loss-bytes-beyond-ledger", failing, 3, firstLoss(func(p []byte, l int) {
			n := binary.LittleEndian.Uint64(p[l+20:])
			binary.LittleEndian.PutUint64(p[l+20:], n+1000)
		})},
		{"segment-bytes-beyond-ledger", negotiator.SmallSpec(), 60, func(p []byte) bool {
			at := losses + 4 + 41*u32(p, losses)
			if u32(p, at) == 0 {
				return false
			}
			b := at + 4 + 4 + 1 + 8
			binary.LittleEndian.PutUint64(p[b:], binary.LittleEndian.Uint64(p[b:])+1000)
			return true
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			c.spec.Workers = 1
			build := func() negotiator.Fabric {
				fab, err := c.spec.Build()
				if err != nil {
					t.Fatal(err)
				}
				fab.SetWorkload(negotiator.PoissonWorkload(c.spec, negotiator.Hadoop, 0.7, c.spec.Seed+6))
				return fab
			}
			fab := build()
			fab.RunEpochs(c.snapAt)
			var buf bytes.Buffer
			if err := fab.Snapshot(&buf); err != nil {
				t.Fatal(err)
			}
			bad := reframeWhere(t, buf.Bytes(), "NODE", c.mutate)
			fab2 := build()
			err := func() (err error) {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("Restore panicked: %v", r)
					}
				}()
				if err = fab2.Restore(bytes.NewReader(bad)); err == nil {
					// A record that slipped through would fail here.
					fab2.RunEpochs(60)
				}
				return err
			}()
			if err == nil {
				t.Fatal("edited checkpoint restored without error")
			}
			t.Logf("rejected: %v", err)
		})
	}
}

// TestRestoreRejectsBadFlowRecords: a FLOW record edited behind a valid
// CRC must fail Restore with an error, never a panic: a tag the tag table
// does not list (the round in which the flow completes would update a
// missing tag entry), and a destination off the fabric (the oblivious
// plane's relay push would index past its page table). Each case edits
// every live record in turn, one per checkpoint. A rejected record must
// leave the fabric untouched — proven, as in TestRestoreRejectsCorruption,
// by restoring the intact checkpoint into the same fabric and finishing
// the run byte-identically.
func TestRestoreRejectsBadFlowRecords(t *testing.T) {
	oblivious := negotiator.SmallSpec()
	oblivious.ControlPlane = negotiator.ObliviousPlane
	hybrid := negotiator.SmallSpec()
	hybrid.ControlPlane = negotiator.HybridPlane
	hybrid.Topology = negotiator.ThinClos
	// FLOW payload layout: the record count (4 bytes), then 64-byte
	// records of eight 8-byte fields: ID, src, dst, size, arrival, tag,
	// sent, delivered.
	const tagField, dstField = 40, 16
	cases := []struct {
		name  string
		spec  negotiator.Spec
		field int
		value uint64
	}{
		{"negotiator-tag", negotiator.SmallSpec(), tagField, 77},
		{"oblivious-tag", oblivious, tagField, 77},
		{"hybrid-tag", hybrid, tagField, 77},
		{"oblivious-dst", oblivious, dstField, 1_000_000},
	}
	const snapAt, epochs = 20, 60
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			c.spec.Workers = 1
			build := func() negotiator.Fabric {
				fab, err := c.spec.Build()
				if err != nil {
					t.Fatal(err)
				}
				fab.SetWorkload(negotiator.PoissonWorkload(c.spec, negotiator.Hadoop, 0.7, c.spec.Seed+6))
				return fab
			}
			fab := build()
			fab.RunEpochs(epochs)
			want := fmt.Sprintf("%+v | cdf=%v", fab.Summary(), fab.MiceCDF(24))

			fab = build()
			fab.RunEpochs(snapAt)
			var buf bytes.Buffer
			if err := fab.Snapshot(&buf); err != nil {
				t.Fatal(err)
			}
			good := buf.Bytes()
			var live int
			reframe(t, good, "FLOW", func(p []byte) { live = int(binary.LittleEndian.Uint32(p)) })
			if live == 0 {
				t.Fatal("no live flow records to edit")
			}
			for r := 0; r < live; r++ {
				bad := reframe(t, good, "FLOW", func(p []byte) {
					binary.LittleEndian.PutUint64(p[4+64*r+c.field:], c.value)
				})
				fab2 := build()
				err := func() (err error) {
					defer func() {
						if v := recover(); v != nil {
							t.Fatalf("record %d: panic: %v", r, v)
						}
					}()
					if err = fab2.Restore(bytes.NewReader(bad)); err == nil {
						// A record that slipped through would fail here.
						fab2.RunEpochs(epochs - snapAt)
					}
					return err
				}()
				if err == nil {
					t.Errorf("record %d: edited checkpoint restored without error", r)
					continue
				}
				if err := fab2.Restore(bytes.NewReader(good)); err != nil {
					t.Fatalf("record %d: intact checkpoint rejected after failed restore: %v", r, err)
				}
				fab2.RunEpochs(epochs - snapAt)
				if got := fmt.Sprintf("%+v | cdf=%v", fab2.Summary(), fab2.MiceCDF(24)); got != want {
					t.Fatalf("record %d: run after recovered restore diverges\n got: %.400s\nwant: %.400s", r, got, want)
				}
				if r == 0 {
					t.Logf("%d live records; rejected: %v", live, err)
				}
			}
		})
	}
}

// TestRestoreRejectsBadClock: a CORE section whose clock disagrees with its
// round count, or whose pump holds an arrival that the last round would
// already have injected or that no replayed draw vouches for, must fail
// Restore with an error and leave the fabric untouched. Before the check, a hybrid checkpoint with its clock edited
// to 352 s restored without error, and its first round would have injected
// every arrival up to 352 s at once, so a rejected edit is never run
// forward. The intact checkpoint then restores into the same fabric and
// finishes byte-identically.
func TestRestoreRejectsBadClock(t *testing.T) {
	oblivious := negotiator.SmallSpec()
	oblivious.ControlPlane = negotiator.ObliviousPlane
	hybrid := negotiator.SmallSpec()
	hybrid.ControlPlane = negotiator.HybridPlane
	hybrid.Topology = negotiator.ThinClos
	// CORE payload layout: the plane name (4-byte length, then the bytes),
	// ToRs, ports and round length (8 bytes each), then 8-byte now, rounds,
	// skipped rounds, flow sequence and draw count, the exhausted and
	// buffered flags (1 byte each), and the buffered arrival's time first.
	const now, rounds, skipped, draws, buffered, pendingTime = 0, 8, 16, 32, 41, 42
	u64 := func(p []byte, at int) int64 { return int64(binary.LittleEndian.Uint64(p[at:])) }
	put := func(p []byte, at int, v int64) { binary.LittleEndian.PutUint64(p[at:], uint64(v)) }
	cases := []struct {
		name string
		edit func(p []byte, clock int) // clock is now's offset
	}{
		{"now-352s", func(p []byte, c int) { put(p, c+now, 352*int64(negotiator.Second)) }},
		{"rounds-plus-1e9", func(p []byte, c int) { put(p, c+rounds, u64(p, c+rounds)+1e9) }},
		{"skipped-beyond-rounds", func(p []byte, c int) { put(p, c+skipped, u64(p, c+rounds)+1) }},
		{"pending-before-last-round", func(p []byte, c int) {
			if p[c+buffered] != 1 {
				t.Fatal("checkpoint buffers no arrival")
			}
			put(p, c+pendingTime, u64(p, c+now)-u64(p, c-8))
		}},
		// With no draws to replay, nothing compares the buffered arrival
		// with the generator's: the restored pump would inject a flow the
		// workload never produced.
		{"buffered-without-draws", func(p []byte, c int) {
			if p[c+buffered] != 1 {
				t.Fatal("checkpoint buffers no arrival")
			}
			put(p, c+draws, 0)
		}},
	}
	const snapAt, epochs = 20, 60
	for _, spec := range []negotiator.Spec{negotiator.SmallSpec(), oblivious, hybrid} {
		spec.Workers = 1
		build := func() negotiator.Fabric {
			fab, err := spec.Build()
			if err != nil {
				t.Fatal(err)
			}
			fab.SetWorkload(negotiator.PoissonWorkload(spec, negotiator.Hadoop, 0.7, spec.Seed+6))
			return fab
		}
		fab := build()
		fab.RunEpochs(epochs)
		want := fmt.Sprintf("%+v | cdf=%v", fab.Summary(), fab.MiceCDF(24))
		fab = build()
		fab.RunEpochs(snapAt)
		var buf bytes.Buffer
		if err := fab.Snapshot(&buf); err != nil {
			t.Fatal(err)
		}
		good := buf.Bytes()
		for _, c := range cases {
			t.Run(fmt.Sprintf("%v/%s", spec.ControlPlane, c.name), func(t *testing.T) {
				bad := reframe(t, good, "CORE", func(p []byte) {
					c.edit(p, 4+int(binary.LittleEndian.Uint32(p))+24)
				})
				fab2 := build()
				err := func() (err error) {
					defer func() {
						if v := recover(); v != nil {
							t.Fatalf("Restore panicked: %v", v)
						}
					}()
					return fab2.Restore(bytes.NewReader(bad))
				}()
				if err == nil {
					t.Fatal("edited checkpoint restored without error")
				}
				t.Logf("rejected: %v", err)
				if err := fab2.Restore(bytes.NewReader(good)); err != nil {
					t.Fatalf("intact checkpoint rejected after failed restore: %v", err)
				}
				fab2.RunEpochs(epochs - snapAt)
				if got := fmt.Sprintf("%+v | cdf=%v", fab2.Summary(), fab2.MiceCDF(24)); got != want {
					t.Errorf("run after recovered restore diverges\n got: %.400s\nwant: %.400s", got, want)
				}
			})
		}
	}
}

// TestRestoreRejectsBadRelayRotation: a selective-relay rotation edited
// behind a valid CRC must fail Restore with an error. The planning walk
// indexes candidate intermediates by (j + rotation + step) mod n, so a
// negative rotation, or one so large that the sum overflows, indexes below
// zero: such a checkpoint used to restore without error and panic in the
// next epoch's planRelay. A run keeps each rotation in [0, n), so n itself
// is refused too. Each case edits every ToR's rotation; the intact
// checkpoint then restores into the same fabric (with the generator the
// failed restore drew attached afresh) and finishes byte-identically.
func TestRestoreRejectsBadRelayRotation(t *testing.T) {
	spec := negotiator.SmallSpec()
	spec.Topology = negotiator.ThinClos
	spec.SelectiveRelay = true
	spec.Workers = 1
	build := func() negotiator.Fabric {
		fab, err := spec.Build()
		if err != nil {
			t.Fatal(err)
		}
		fab.SetWorkload(negotiator.PoissonWorkload(spec, negotiator.Hadoop, 0.9, spec.Seed+6))
		return fab
	}
	const snapAt, epochs = 60, 80
	fab := build()
	fab.RunEpochs(epochs)
	want := fmt.Sprintf("%+v | cdf=%v", fab.Summary(), fab.MiceCDF(24))
	fab = build()
	fab.RunEpochs(snapAt)
	var buf bytes.Buffer
	if err := fab.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()
	// PLNE payload layout: the relay flag (1 byte), the rotation count (4
	// bytes), then one 8-byte rotation per ToR.
	for _, c := range []struct {
		name string
		rot  int64
	}{
		{"negative", -1_000_000_007},
		{"n", int64(spec.ToRs)},
		{"max-int64", math.MaxInt64},
	} {
		t.Run(c.name, func(t *testing.T) {
			bad := reframe(t, good, "PLNE", func(p []byte) {
				if p[0] != 1 || int(binary.LittleEndian.Uint32(p[1:])) != spec.ToRs {
					t.Fatal("plane state carries no relay rotations")
				}
				for i := 0; i < spec.ToRs; i++ {
					binary.LittleEndian.PutUint64(p[5+8*i:], uint64(c.rot))
				}
			})
			fab2 := build()
			err := func() (err error) {
				defer func() {
					if v := recover(); v != nil {
						t.Fatalf("panic: %v", v)
					}
				}()
				if err = fab2.Restore(bytes.NewReader(bad)); err == nil {
					// A rotation that slipped through fails here.
					fab2.RunEpochs(epochs - snapAt)
				}
				return err
			}()
			if err == nil {
				t.Fatal("edited checkpoint restored without error")
			}
			t.Logf("rejected: %v", err)
			fab2.SetWorkload(negotiator.PoissonWorkload(spec, negotiator.Hadoop, 0.9, spec.Seed+6))
			if err := fab2.Restore(bytes.NewReader(good)); err != nil {
				t.Fatalf("intact checkpoint rejected after failed restore: %v", err)
			}
			fab2.RunEpochs(epochs - snapAt)
			if got := fmt.Sprintf("%+v | cdf=%v", fab2.Summary(), fab2.MiceCDF(24)); got != want {
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
