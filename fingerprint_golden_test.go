package negotiator_test

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	negotiator "negotiator"
)

// The golden-fingerprint regression test locks the exact Summary and
// MiceCDF output of a small spec for every engine × topology combination
// (plus the failure-injection and selective-relay features that exercise
// loss accounting and relay queues). Refactors that claim byte-identical
// results — like the shared-fabric-core extraction — prove the claim
// mechanically by leaving testdata/fingerprints.golden untouched.
//
// Regenerate (only when an intentional semantic change is documented in
// EXPERIMENTS.md) with:
//
//	go test -run TestFingerprintGolden -update-fingerprints .
var updateFingerprints = flag.Bool("update-fingerprints", false, "rewrite testdata/fingerprints.golden from the current engines")

const fingerprintGoldenPath = "testdata/fingerprints.golden"

// fingerprintCases enumerates the locked combinations. Every case uses
// SmallSpec (16 ToRs) so the whole matrix runs in seconds.
func fingerprintCases() []struct {
	name string
	spec negotiator.Spec
} {
	var cases []struct {
		name string
		spec negotiator.Spec
	}
	add := func(name string, spec negotiator.Spec) {
		cases = append(cases, struct {
			name string
			spec negotiator.Spec
		}{name, spec})
	}
	topos := []negotiator.Topology{negotiator.ParallelNetwork, negotiator.ThinClos}
	for _, sched := range allSchedulers {
		for _, top := range topos {
			spec := negotiator.SmallSpec()
			spec.Scheduler = sched
			spec.Topology = top
			add(fmt.Sprintf("negotiator/%v/%v", sched, top), spec)
		}
	}
	for _, top := range topos {
		spec := negotiator.SmallSpec()
		spec.ControlPlane = negotiator.ObliviousPlane
		spec.Topology = top
		add(fmt.Sprintf("oblivious/%v", top), spec)
	}
	for _, top := range topos {
		spec := negotiator.SmallSpec()
		spec.ControlPlane = negotiator.HybridPlane
		spec.Topology = top
		add(fmt.Sprintf("hybrid/%v", top), spec)
	}
	fail := negotiator.SmallSpec()
	fail.Failures = &negotiator.FailurePlan{
		Fraction:  0.25,
		FailAt:    0,
		RecoverAt: negotiator.Time(200 * negotiator.Microsecond),
		Seed:      3,
	}
	add("negotiator/failures/parallel", fail)
	relay := negotiator.SmallSpec()
	relay.Topology = negotiator.ThinClos
	relay.SelectiveRelay = true
	add("negotiator/relay/thin-clos", relay)
	// Failure injection on the other planes (PR 6): same plan as the
	// NegotiaToR failure combo, locking the fabric-core-owned loss and
	// requeue paths of the oblivious and hybrid engines.
	for _, plane := range []negotiator.ControlPlaneKind{negotiator.ObliviousPlane, negotiator.HybridPlane} {
		spec := negotiator.SmallSpec()
		spec.ControlPlane = plane
		spec.Failures = &negotiator.FailurePlan{
			Fraction:  0.25,
			FailAt:    0,
			RecoverAt: negotiator.Time(200 * negotiator.Microsecond),
			Seed:      3,
		}
		add(fmt.Sprintf("%v/failures/parallel", plane), spec)
	}
	// Scenario vocabulary: flapping links on NegotiaToR, a whole-ToR
	// power cycle on the oblivious baseline.
	flap := negotiator.SmallSpec()
	flap.Failures = &negotiator.FailurePlan{
		Scenario: negotiator.FlappingLinks,
		Fraction: 0.2,
		Period:   60 * negotiator.Microsecond,
		Seed:     3,
	}
	add("negotiator/flapping/parallel", flap)
	tdown := negotiator.SmallSpec()
	tdown.ControlPlane = negotiator.ObliviousPlane
	tdown.Failures = &negotiator.FailurePlan{
		Scenario: negotiator.ToRFailure,
		ToR:      5,
		// The oblivious 120-round window spans ~29µs; the power cycle
		// must land inside it.
		FailAt:      negotiator.Time(5 * negotiator.Microsecond),
		RecoverAt:   negotiator.Time(20 * negotiator.Microsecond),
		DetectDelay: 2 * negotiator.Microsecond,
	}
	add("oblivious/tor-down/parallel", tdown)
	// Event-skip off (PR 7): the run loop optimization must be
	// semantically invisible, so a ticking negotiator and a ticking
	// oblivious run are locked in the corpus too. Their fingerprints
	// equal the corresponding default combos' byte for byte — the full
	// matrix is cross-checked by TestEventSkipEquivalence; these two pin
	// the DisableEventSkip plumbing itself against the golden file.
	noskip := negotiator.SmallSpec()
	noskip.DisableEventSkip = true
	add("negotiator/noskip/parallel", noskip)
	obNoskip := negotiator.SmallSpec()
	obNoskip.ControlPlane = negotiator.ObliviousPlane
	obNoskip.DisableEventSkip = true
	add("oblivious/noskip/parallel", obNoskip)
	return cases
}

// fingerprint renders one combination's locked output: the Summary struct
// and a 24-point mice CDF after 120 epochs at 70% Hadoop load, sequential.
func fingerprint(t *testing.T, spec negotiator.Spec) string {
	t.Helper()
	return shardRun(t, spec, 1, 120, 0.7)
}

// TestFingerprintGolden compares every combination's sequential run
// against the recorded goldens. Each run has CheckInvariants on: the
// per-round conservation, occupancy and conflict checks only read state,
// so they must leave every fingerprint unchanged. Worker-count
// equivalence (workers=16 reproducing these fingerprints byte for byte)
// is pinned by the separate TestFingerprintWorkerInvariance, which is
// skipped in -short mode.
func TestFingerprintGolden(t *testing.T) {
	cases := fingerprintCases()
	got := make(map[string]string, len(cases))
	var sb strings.Builder
	for _, c := range cases {
		spec := c.spec
		spec.CheckInvariants = true
		fp := fingerprint(t, spec)
		got[c.name] = fp
		fmt.Fprintf(&sb, "%s: %s\n", c.name, fp)
	}
	if *updateFingerprints {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(fingerprintGoldenPath, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d fingerprints to %s", len(cases), fingerprintGoldenPath)
		return
	}
	raw, err := os.ReadFile(fingerprintGoldenPath)
	if err != nil {
		t.Fatalf("missing goldens (run with -update-fingerprints to record): %v", err)
	}
	want := make(map[string]string)
	for _, line := range strings.Split(strings.TrimRight(string(raw), "\n"), "\n") {
		name, fp, ok := strings.Cut(line, ": ")
		if !ok {
			t.Fatalf("malformed golden line %q", line)
		}
		want[name] = fp
	}
	for _, c := range cases {
		if w, ok := want[c.name]; !ok {
			t.Errorf("%s: no recorded golden (new combo? run -update-fingerprints)", c.name)
		} else if got[c.name] != w {
			t.Errorf("%s: fingerprint diverged from golden\n got: %.400s\nwant: %.400s", c.name, got[c.name], w)
		}
	}
	for name := range want {
		if _, ok := got[name]; !ok {
			t.Errorf("%s: golden recorded but combo no longer enumerated", name)
		}
	}
}

// TestFingerprintWorkerInvariance pins the workers-1..16 contract on the
// golden matrix: the maximally sharded run (16 workers on a 16-ToR spec)
// must reproduce the sequential fingerprint exactly. Intermediate worker
// counts are covered by TestShardDeterminism.
func TestFingerprintWorkerInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("full matrix in -short mode")
	}
	for _, c := range fingerprintCases() {
		c := c
		t.Run(c.name, func(t *testing.T) {
			seq := fingerprint(t, c.spec)
			if max := shardRun(t, c.spec, 16, 120, 0.7); max != seq {
				t.Errorf("workers=16 diverges from sequential\n got: %.400s\nwant: %.400s", max, seq)
			}
		})
	}
}

// The snapshot-stream golden locks the checkpoint bytes themselves, not
// just what a restore reproduces: restore equivalence only proves that
// one binary reads back what it wrote, while a digest recorded by an
// earlier build proves a refactor left every section byte-identical.
// Regenerate (only for a documented checkpoint format change) with:
//
//	go test -run TestSnapshotStreamGolden -update-snapshots .
var updateSnapshots = flag.Bool("update-snapshots", false, "rewrite testdata/snapshots.golden from the current engines")

const snapshotGoldenPath = "testdata/snapshots.golden"

// TestSnapshotStreamGolden checkpoints every golden combo after 60
// sequential epochs of the snapshotRun workload and compares the
// stream's SHA-256 and length against the recorded digests.
func TestSnapshotStreamGolden(t *testing.T) {
	cases := fingerprintCases()
	got := make(map[string]string, len(cases))
	var sb strings.Builder
	for _, c := range cases {
		spec := c.spec
		spec.Workers = 1
		fab, err := spec.Build()
		if err != nil {
			t.Fatal(err)
		}
		fab.SetWorkload(negotiator.PoissonWorkload(spec, negotiator.Hadoop, 0.7, spec.Seed+6))
		fab.RunEpochs(60)
		var buf bytes.Buffer
		if err := fab.Snapshot(&buf); err != nil {
			t.Fatalf("%s: snapshot: %v", c.name, err)
		}
		got[c.name] = fmt.Sprintf("%x %d", sha256.Sum256(buf.Bytes()), buf.Len())
		fmt.Fprintf(&sb, "%s: %s\n", c.name, got[c.name])
	}
	if *updateSnapshots {
		if err := os.WriteFile(snapshotGoldenPath, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d snapshot digests to %s", len(cases), snapshotGoldenPath)
		return
	}
	raw, err := os.ReadFile(snapshotGoldenPath)
	if err != nil {
		t.Fatalf("missing snapshot digests (run with -update-snapshots to record): %v", err)
	}
	want := make(map[string]string)
	for _, line := range strings.Split(strings.TrimRight(string(raw), "\n"), "\n") {
		name, digest, ok := strings.Cut(line, ": ")
		if !ok {
			t.Fatalf("malformed snapshot golden line %q", line)
		}
		want[name] = digest
	}
	for _, c := range cases {
		if w, ok := want[c.name]; !ok {
			t.Errorf("%s: no recorded snapshot digest (new combo? run -update-snapshots)", c.name)
		} else if got[c.name] != w {
			t.Errorf("%s: checkpoint stream diverged from golden\n got: %s\nwant: %s", c.name, got[c.name], w)
		}
	}
	for name := range want {
		if _, ok := got[name]; !ok {
			t.Errorf("%s: snapshot digest recorded but combo no longer enumerated", name)
		}
	}
}
