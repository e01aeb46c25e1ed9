package negotiator_test

import (
	"bytes"
	"runtime"
	"slices"
	"testing"

	negotiator "negotiator"
	"negotiator/internal/snap"
)

// restoreSeed is one checkpoint FuzzRestore edits: the spec and workload
// that wrote it (and that every restore target is built from) and its
// sections in stream order.
type restoreSeed struct {
	spec     negotiator.Spec
	sections []snap.Section
}

// build returns a fresh fabric of the seed's spec with its workload
// attached, ready for Restore.
func (s *restoreSeed) build(tb testing.TB) negotiator.Fabric {
	tb.Helper()
	fab, err := s.spec.Build()
	if err != nil {
		tb.Fatal(err)
	}
	fab.SetWorkload(negotiator.PoissonWorkload(s.spec, negotiator.Hadoop, 0.7, s.spec.Seed+6))
	return fab
}

// restoreSeeds checkpoints SmallSpec once per control plane, plus the
// Stateful matcher, the selective relay and a failure plan whose losses
// await detection, each with CheckInvariants on and one worker.
func restoreSeeds(tb testing.TB) []*restoreSeed {
	oblivious := negotiator.SmallSpec()
	oblivious.ControlPlane = negotiator.ObliviousPlane
	hybrid := negotiator.SmallSpec()
	hybrid.ControlPlane = negotiator.HybridPlane
	stateful := negotiator.SmallSpec()
	stateful.Scheduler = negotiator.Stateful
	relay := negotiator.SmallSpec()
	relay.Topology = negotiator.ThinClos
	relay.SelectiveRelay = true
	failing := negotiator.SmallSpec()
	failing.Failures = &negotiator.FailurePlan{
		Fraction:    0.25,
		RecoverAt:   negotiator.Time(200 * negotiator.Microsecond),
		DetectDelay: 30 * negotiator.Microsecond,
		Seed:        3,
	}
	var seeds []*restoreSeed
	for _, c := range []struct {
		spec   negotiator.Spec
		snapAt int
	}{
		{negotiator.SmallSpec(), 60},
		{oblivious, 60},
		{hybrid, 60},
		{stateful, 60},
		{relay, 60},
		{failing, 10},
	} {
		c.spec.CheckInvariants = true
		c.spec.Workers = 1
		s := &restoreSeed{spec: c.spec}
		fab := s.build(tb)
		fab.RunEpochs(c.snapAt)
		var buf bytes.Buffer
		if err := fab.Snapshot(&buf); err != nil {
			tb.Fatal(err)
		}
		s.sections = splitSections(buf.Bytes())
		seeds = append(seeds, s)
	}
	return seeds
}

// FuzzRestore edits one section of a seed checkpoint: each input picks a
// seed, a section, an offset into its payload and 1-8 replacement bytes,
// and the target re-frames the stream with valid CRCs, as reframe does —
// the shape of a writer bug or a hand-edited file, which no CRC catches.
// Restore into a fresh fabric of the seed's spec must never panic and
// must allocate under 64 MB (the bound TestRestoreRejectsOversizedCounts
// uses); a checkpoint it accepts must then run 20 more epochs with
// CheckInvariants on without a panic.
//
// The seed corpus (one edit per section tag and seed, plus any crasher
// under testdata/fuzz/FuzzRestore/) runs in plain `go test`; fuzz with:
//
//	go test -run '^$' -fuzz '^FuzzRestore$' -fuzztime 20s .
func FuzzRestore(f *testing.F) {
	seeds := restoreSeeds(f)
	for i, s := range seeds {
		seen := map[string]bool{}
		for k, sec := range s.sections {
			if !seen[sec.Tag] {
				seen[sec.Tag] = true
				f.Add(uint8(i), uint8(k), uint16(0), []byte{0xff})
			}
		}
	}
	f.Fuzz(func(t *testing.T, seed, section uint8, offset uint16, repl []byte) {
		s := seeds[int(seed)%len(seeds)]
		k := int(section) % len(s.sections)
		payload := bytes.Clone(s.sections[k].Payload)
		if len(repl) == 0 || len(payload) == 0 {
			return
		}
		if len(repl) > 8 {
			repl = repl[:8]
		}
		copy(payload[int(offset)%len(payload):], repl)
		secs := slices.Clone(s.sections)
		secs[k].Payload = payload
		stream := joinSections(t, secs)

		fab := s.build(t)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := fab.Restore(bytes.NewReader(stream))
		runtime.ReadMemStats(&after)
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 64<<20 {
			t.Fatalf("restoring a %s edited at byte %d allocated %d MB, want < 64 MB",
				s.sections[k].Tag, int(offset)%len(payload), alloc>>20)
		}
		if err != nil {
			return
		}
		fab.RunEpochs(20)
	})
}
