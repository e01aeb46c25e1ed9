package negotiator_test

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	negotiator "negotiator"
)

// The grouped-PIAS golden locks what flow groups do under priority
// queues, the regime TestGroupEquivalence leaves out: members that
// straddle the PIAS bounds, grouped beside ungrouped background traffic,
// on every plane, with and without flapping links. Regenerate (only for a
// documented change) with:
//
//	go test -run TestGroupedPIASGolden -update-grouped-pias .
var updateGroupedPIAS = flag.Bool("update-grouped-pias", false, "rewrite testdata/grouped_pias.golden from the current engines")

const groupedPIASGoldenPath = "testdata/grouped_pias.golden"

// groupedPIASCase is one locked configuration: a plane, flapping links on
// or off, and the group member size.
type groupedPIASCase struct {
	name string
	spec negotiator.Spec
	size int64
}

// groupedPIASCases enumerates three planes × flapping on/off × members of
// 3,000 B (inside the second PIAS level) and 100,000 B (into the third).
func groupedPIASCases() []groupedPIASCase {
	var cases []groupedPIASCase
	for _, plane := range negotiator.ControlPlanes() {
		for _, flap := range []bool{false, true} {
			for _, size := range []int64{3000, 100_000} {
				spec := negotiator.SmallSpec()
				spec.ControlPlane = plane
				links := "steady"
				if flap {
					links = "flapping"
					spec.Failures = &negotiator.FailurePlan{
						Scenario: negotiator.FlappingLinks,
						Fraction: 0.2,
						Period:   60 * negotiator.Microsecond,
						Seed:     3,
					}
				}
				cases = append(cases, groupedPIASCase{fmt.Sprintf("%v/%s/%dB", plane, links, size), spec, size})
			}
		}
	}
	return cases
}

// groupedPIASRun runs 400 epochs of 8 permutation pairs, each one group
// of 64 members, over Hadoop background traffic at load 0.3, and renders
// the Summary and a 24-point mice CDF.
func groupedPIASRun(t *testing.T, c groupedPIASCase) string {
	t.Helper()
	fab, err := c.spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	perm, err := negotiator.PermutationWorkload(c.spec, 8, c.size, 0)
	if err != nil {
		t.Fatal(err)
	}
	groups, err := negotiator.GroupWorkload(perm, 64)
	if err != nil {
		t.Fatal(err)
	}
	fab.SetWorkload(negotiator.MergeWorkloads(groups,
		negotiator.PoissonWorkload(c.spec, negotiator.Hadoop, 0.3, c.spec.Seed+6)))
	fab.RunEpochs(400)
	return fmt.Sprintf("%+v | cdf=%v", fab.Summary(), fab.MiceCDF(24))
}

// TestGroupedPIASGolden compares every grouped-PIAS configuration against
// testdata/grouped_pias.golden.
func TestGroupedPIASGolden(t *testing.T) {
	cases := groupedPIASCases()
	var sb strings.Builder
	got := make(map[string]string, len(cases))
	for _, c := range cases {
		got[c.name] = groupedPIASRun(t, c)
		fmt.Fprintf(&sb, "%s: %s\n", c.name, got[c.name])
	}
	if *updateGroupedPIAS {
		if err := os.WriteFile(groupedPIASGoldenPath, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d configurations to %s", len(cases), groupedPIASGoldenPath)
		return
	}
	raw, err := os.ReadFile(groupedPIASGoldenPath)
	if err != nil {
		t.Fatalf("missing golden (run with -update-grouped-pias to record): %v", err)
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
			t.Errorf("%s: no recorded golden (new configuration? run -update-grouped-pias)", c.name)
		} else if got[c.name] != w {
			t.Errorf("%s: diverged from golden\n got: %.400s\nwant: %.400s", c.name, got[c.name], w)
		}
	}
	for name := range want {
		if _, ok := got[name]; !ok {
			t.Errorf("%s: golden recorded but configuration no longer enumerated", name)
		}
	}
}
