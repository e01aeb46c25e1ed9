package main

import (
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// usageCase is one invocation that must exit 2 with want on stderr.
type usageCase struct {
	name string
	args []string
	want string
}

// buildSim compiles the command into a temporary directory.
func buildSim(t *testing.T) string {
	t.Helper()
	if testing.Short() {
		t.Skip("builds and runs a subprocess")
	}
	bin := filepath.Join(t.TempDir(), "negotiator-sim")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building negotiator-sim: %v\n%s", err, out)
	}
	return bin
}

// checkUsageErrors runs every case through the real binary and requires
// the conventional usage-error status 2 plus the diagnostic.
func checkUsageErrors(t *testing.T, bin string, cases []usageCase) {
	t.Helper()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			out, err := exec.Command(bin, tc.args...).CombinedOutput()
			ee, ok := err.(*exec.ExitError)
			if !ok {
				t.Fatalf("want exit error, got %v\n%s", err, out)
			}
			if code := ee.ExitCode(); code != 2 {
				t.Errorf("exit code = %d, want 2\n%s", code, out)
			}
			if !strings.Contains(string(out), tc.want) {
				t.Errorf("stderr missing %q:\n%s", tc.want, out)
			}
		})
	}
}

// TestFlowGroupUsage pins the -flow-group validation contract through the
// real binary: a factor below 1 is always malformed, and a factor above 1
// is rejected here because this command's only workload is trace-driven
// (pairwise-distinct arrivals cannot coalesce into groups). Both are usage
// errors and must exit 2 with a diagnostic, matching the fatalUsagef
// convention; a factor of exactly 1 must be accepted.
func TestFlowGroupUsage(t *testing.T) {
	bin := buildSim(t)
	checkUsageErrors(t, bin, []usageCase{
		{"below-one", []string{"-flow-group", "0"}, "-flow-group must be >= 1"},
		{"trace-driven", []string{"-flow-group", "4"}, "coalescible"},
	})

	// The identity factor must run: a 4-ToR, short simulation.
	out, err := exec.Command(bin, "-flow-group", "1", "-tors", "4", "-ports", "2",
		"-duration", "100us").CombinedOutput()
	if err != nil {
		t.Fatalf("-flow-group 1 should be accepted: %v\n%s", err, out)
	}
}

// TestRateUsage pins the host-rate and load validation: a host rate of
// zero or below would hand the Poisson generator a zero rate, whose first
// round injects an unbounded burst, and a negative load would silently
// run with no traffic. Both must exit 2 before any fabric is built; a
// zero load is a valid idle run.
func TestRateUsage(t *testing.T) {
	bin := buildSim(t)
	small := []string{"-tors", "16", "-ports", "4", "-awgr", "4", "-duration", "200us"}
	checkUsageErrors(t, bin, []usageCase{
		{"zero-host-rate", append([]string{"-host-gbps", "0"}, small...), "-host-gbps must be > 0"},
		{"negative-host-rate", append([]string{"-host-gbps", "-100"}, small...), "-host-gbps must be > 0"},
		{"negative-load", append([]string{"-load", "-0.5"}, small...), "-load must be >= 0"},
	})

	out, err := exec.Command(bin, append([]string{"-load", "0", "-host-gbps", "200"}, small...)...).CombinedOutput()
	if err != nil {
		t.Fatalf("-load 0 should be accepted: %v\n%s", err, out)
	}
}
