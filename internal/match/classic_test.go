package match

import (
	"testing"

	"negotiator/internal/sim"
	"negotiator/internal/snap"
)

func runClassic(t *testing.T, kind ArbiterKind, iters, n, s int, epochs int) (matched float64) {
	t.Helper()
	top := parallel(t, n, s)
	m := NewClassic(top, sim.NewRNG(5), iters, kind)
	view := fullBacklogView(n)
	matches := make([][]int32, n)
	for i := range matches {
		matches[i] = make([]int32, s)
	}
	var total, possible int
	for e := 0; e < epochs; e++ {
		var reqs []Request
		for src := 0; src < n; src++ {
			m.Requests(src, view, 0, 0, func(r Request) { reqs = append(reqs, r) })
		}
		denseMatch(m, reqs, matches, nil)
		for _, row := range matches {
			for _, d := range row {
				if d >= 0 {
					total++
				}
			}
		}
		possible += n * s
	}
	return float64(total) / float64(possible)
}

func TestClassicNames(t *testing.T) {
	top := parallel(t, 8, 2)
	rng := sim.NewRNG(1)
	if got := NewClassic(top, rng, 1, PIM).Name(); got != "pim-1" {
		t.Errorf("Name = %q", got)
	}
	if got := NewClassic(top, rng, 4, ISLIP).Name(); got != "islip-4" {
		t.Errorf("Name = %q", got)
	}
	if got := NewClassic(top, rng, 2, RRM).Name(); got != "rrm-2" {
		t.Errorf("Name = %q", got)
	}
	if RRM.String() != "rrm" || PIM.String() != "pim" || ISLIP.String() != "islip" {
		t.Error("kind strings")
	}
}

func TestClassicMatchDelay(t *testing.T) {
	top := parallel(t, 8, 2)
	if d := NewClassic(top, sim.NewRNG(1), 3, ISLIP).MatchDelay(); d != 8 {
		t.Errorf("delay = %d, want 8", d)
	}
}

func TestPIMSingleIterationEfficiency(t *testing.T) {
	// PIM's classic single-iteration efficiency under saturation is
	// ~1-1/e = 63%.
	got := runClassic(t, PIM, 1, 32, 4, 30)
	if got < 0.55 || got > 0.72 {
		t.Errorf("PIM-1 efficiency = %.3f, want ~0.63", got)
	}
}

func TestISLIPDesynchronises(t *testing.T) {
	// iSLIP's famous property: under saturated uniform traffic the
	// pointers desynchronise and even a single iteration approaches a
	// perfect matching after a few epochs — clearly better than RRM,
	// whose synchronised pointers stay near 63%.
	islip := runClassic(t, ISLIP, 1, 32, 4, 60)
	rrm := runClassic(t, RRM, 1, 32, 4, 60)
	if islip <= rrm {
		t.Errorf("iSLIP (%.3f) should beat RRM (%.3f) under saturation", islip, rrm)
	}
	if islip < 0.85 {
		t.Errorf("iSLIP-1 efficiency = %.3f, want near 1.0 after desync", islip)
	}
}

func TestIterationImprovesPIM(t *testing.T) {
	one := runClassic(t, PIM, 1, 32, 4, 20)
	four := runClassic(t, PIM, 4, 32, 4, 20)
	if four <= one {
		t.Errorf("PIM-4 (%.3f) should beat PIM-1 (%.3f)", four, one)
	}
	if four < 0.9 {
		t.Errorf("PIM-4 efficiency = %.3f, want >0.9 (log-convergence)", four)
	}
}

func TestClassicConflictFreedom(t *testing.T) {
	for _, kind := range []ArbiterKind{RRM, PIM, ISLIP} {
		top := thinclos(t, 16, 4, 4)
		m := NewClassic(top, sim.NewRNG(9), 3, kind)
		view := fullBacklogView(16)
		var reqs []Request
		for src := 0; src < 16; src++ {
			m.Requests(src, view, 0, 0, func(r Request) { reqs = append(reqs, r) })
		}
		matches := make([][]int32, 16)
		for i := range matches {
			matches[i] = make([]int32, 4)
		}
		denseMatch(m, reqs, matches, nil)
		rx := map[[2]int32]bool{}
		for src := range matches {
			for port, dst := range matches[src] {
				if dst < 0 {
					continue
				}
				if !top.CanReach(src, port, int(dst)) {
					t.Fatalf("%v: unreachable match", kind)
				}
				key := [2]int32{dst, int32(port)}
				if rx[key] {
					t.Fatalf("%v: dst %d port %d double-matched", kind, dst, port)
				}
				rx[key] = true
			}
		}
	}
}

func TestClassicStatsConsistency(t *testing.T) {
	top := parallel(t, 16, 4)
	m := NewClassic(top, sim.NewRNG(2), 2, ISLIP)
	view := fullBacklogView(16)
	var reqs []Request
	for src := 0; src < 16; src++ {
		m.Requests(src, view, 0, 0, func(r Request) { reqs = append(reqs, r) })
	}
	matches := make([][]int32, 16)
	for i := range matches {
		matches[i] = make([]int32, 4)
	}
	var stats BatchStats
	denseMatch(m, reqs, matches, &stats)
	var matched int64
	for _, row := range matches {
		for _, d := range row {
			if d >= 0 {
				matched++
			}
		}
	}
	if stats.Accepts != matched {
		t.Errorf("stats.Accepts=%d, matched=%d", stats.Accepts, matched)
	}
	if stats.Grants < stats.Accepts {
		t.Errorf("grants %d < accepts %d", stats.Grants, stats.Accepts)
	}
}

// TestClassicSnapshotTags pins the checkpoint compatibility rule: an RRM
// Classic never draws from its RNG, so it writes the "iterative" tag and
// the ring pointers only (the stream of the paper's iterative variant),
// while PIM and iSLIP write "classic", the rings and four RNG words. A
// stream restores, consuming every byte, exactly into the kinds that share
// its tag.
func TestClassicSnapshotTags(t *testing.T) {
	top := parallel(t, 8, 2)
	kinds := []struct {
		kind     ArbiterKind
		tag      string
		rngWords int
	}{{RRM, "iterative", 0}, {PIM, "classic", 4}, {ISLIP, "classic", 4}}
	for _, tc := range kinds {
		m := NewClassic(top, sim.NewRNG(3), 3, tc.kind)
		var e snap.Enc
		if err := SnapshotState(m, &e); err != nil {
			t.Fatal(err)
		}
		var ref snap.Enc
		ref.Str(tc.tag)
		snapshotRings(m.Negotiator, &ref)
		if got, want := len(e.Bytes()), len(ref.Bytes())+8*tc.rngWords; got != want {
			t.Errorf("%s: %d bytes, want %d (tag %q, rings, %d RNG words)", tc.kind, got, want, tc.tag, tc.rngWords)
		}
		for _, into := range kinds {
			d := snap.NewDec(e.Bytes())
			err := RestoreState(NewClassic(top, sim.NewRNG(4), 3, into.kind), d)
			if err == nil {
				err = d.Finish()
			}
			if (err == nil) != (into.tag == tc.tag) {
				t.Errorf("%s stream restored into %s: err = %v", tc.kind, into.kind, err)
			}
		}
	}
}
