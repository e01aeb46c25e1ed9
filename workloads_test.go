package negotiator_test

import (
	"math"
	"strings"
	"testing"

	negotiator "negotiator"
	"negotiator/internal/workload"
)

// TestGroupWorkloadEveryConstructor is the flow-group property over every
// facade workload constructor: grouping by k (1, 2, 8, and 4 nested inside
// 8) leaves the arrival stream as it is, field for field, except that each
// record's Count becomes k times its member count — one record out per
// record in, whatever the generator. k == 1 is the identity, identical
// neighbours included. Every stream's times are non-negative and
// non-decreasing, also at load 0 and bwFraction 0, where the streams end
// instead of wrapping past the int64 range.
func TestGroupWorkloadEveryConstructor(t *testing.T) {
	spec := negotiator.SmallSpec()
	const limit = 500
	must := func(w negotiator.Workload, err error) negotiator.Workload {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	at := negotiator.Time(5 * negotiator.Microsecond)
	constructors := []struct {
		name string
		mk   func() negotiator.Workload
	}{
		{"poisson", func() negotiator.Workload { return negotiator.PoissonWorkload(spec, negotiator.Hadoop, 0.5, 3) }},
		{"poisson-load0", func() negotiator.Workload { return negotiator.PoissonWorkload(spec, negotiator.Hadoop, 0, 11416) }},
		{"fixed-size", func() negotiator.Workload { return negotiator.FixedSizeWorkload(spec, 4000, 0.5, 3) }},
		{"fixed-size-load0", func() negotiator.Workload { return negotiator.FixedSizeWorkload(spec, 4000, 0, 3) }},
		{"hotspot", func() negotiator.Workload {
			return must(negotiator.HotspotWorkload(spec, negotiator.Google, 0.5, 2, 0.6, 3))
		}},
		{"hotspot-load0", func() negotiator.Workload {
			return must(negotiator.HotspotWorkload(spec, negotiator.Google, 0, 2, 0.6, 3))
		}},
		{"diurnal", func() negotiator.Workload {
			return must(negotiator.DiurnalWorkload(spec, negotiator.WebSearch, 0.5, negotiator.Millisecond, 0.1, 3))
		}},
		{"diurnal-load0", func() negotiator.Workload {
			return must(negotiator.DiurnalWorkload(spec, negotiator.WebSearch, 0, negotiator.Millisecond, 0.1, 3))
		}},
		{"permutation", func() negotiator.Workload { return must(negotiator.PermutationWorkload(spec, 8, 100_000, at)) }},
		{"incast", func() negotiator.Workload { return must(negotiator.IncastWorkload(spec, 3, 10, 1000, at, 7, 3)) }},
		{"all-to-all", func() negotiator.Workload { return negotiator.AllToAllWorkload(spec, 1000, at) }},
		{"single-pair", func() negotiator.Workload { return negotiator.SinglePairWorkload(0, 5, 1<<20, at) }},
		{"mixed-incast", func() negotiator.Workload {
			return negotiator.MixedIncastWorkload(spec, negotiator.Hadoop, 0.4, 10, 1000, 0.05, 1, 3)
		}},
		{"mixed-incast-bw0", func() negotiator.Workload {
			return negotiator.MixedIncastWorkload(spec, negotiator.Hadoop, 0.4, 10, 1000, 0, 1, 3)
		}},
		{"mixed-incast-load0-bw0", func() negotiator.Workload {
			return negotiator.MixedIncastWorkload(spec, negotiator.Hadoop, 0, 10, 1000, 0, 1, 3)
		}},
		{"merge", func() negotiator.Workload {
			return negotiator.MergeWorkloads(
				negotiator.PoissonWorkload(spec, negotiator.Hadoop, 0.5, 3),
				must(negotiator.IncastWorkload(spec, 3, 10, 1000, at, 7, 3)))
		}},
		// Two identical arrivals back to back: grouping must not merge them.
		{"merge-identical", func() negotiator.Workload {
			return negotiator.MergeWorkloads(
				negotiator.SinglePairWorkload(0, 5, 1000, at),
				negotiator.SinglePairWorkload(0, 5, 1000, at))
		}},
	}
	factors := [][]int{{1}, {2}, {8}, {4, 8}}
	for _, c := range constructors {
		t.Run(c.name, func(t *testing.T) {
			base := drain(c.mk(), limit)
			var last negotiator.Time
			for i, a := range base {
				if a.Time < 0 || a.Time < last {
					t.Fatalf("arrival %d at %d after %d", i, int64(a.Time), int64(last))
				}
				if strings.HasSuffix(c.name, "bw0") && a.Tag != 0 {
					t.Fatalf("arrival %d is incast event %d at bwFraction 0", i, a.Tag)
				}
				last = a.Time
			}
			for _, ks := range factors {
				w, k := c.mk(), int64(1)
				for _, f := range ks {
					w = must(negotiator.GroupWorkload(w, f))
					k *= int64(f)
				}
				got := drain(w, limit)
				if len(got) != len(base) {
					t.Fatalf("k=%v: %d records, ungrouped %d", ks, len(got), len(base))
				}
				for i, a := range base {
					want := a
					if n := k * a.Members(); n > 1 {
						want.Count = int32(n)
					}
					if got[i] != want {
						t.Fatalf("k=%v: record %d = %+v, want %+v", ks, i, got[i], want)
					}
				}
			}
		})
	}
}

// drain reads up to limit arrivals.
func drain(w negotiator.Workload, limit int) []workload.Arrival {
	var out []workload.Arrival
	for len(out) < limit {
		a, ok := w.Next()
		if !ok {
			break
		}
		out = append(out, a)
	}
	return out
}

// TestGroupWorkloadBounds: a factor outside [1, MaxInt32] is an error at
// construction, with a nil workload — never a panic or a wrapped count at
// the first Next. (The adapter's tests cover nested products.)
func TestGroupWorkloadBounds(t *testing.T) {
	spec := negotiator.SmallSpec()
	perm := func() negotiator.Workload {
		w, err := negotiator.PermutationWorkload(spec, 0, 1000, 0)
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	for _, k := range []int{0, -1, math.MaxInt32 + 1} {
		if w, err := negotiator.GroupWorkload(perm(), k); err == nil || w != nil {
			t.Errorf("k=%d: got %v, %v; want a nil workload and an error", k, w, err)
		}
	}
	w, err := negotiator.GroupWorkload(perm(), math.MaxInt32)
	if err != nil {
		t.Fatal(err)
	}
	if a, ok := w.Next(); !ok || a.Count != math.MaxInt32 {
		t.Errorf("k=MaxInt32: first record %+v, ok=%v", a, ok)
	}
}
