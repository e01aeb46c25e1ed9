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

// TestRateUsage pins the host-rate, load and replicate validation: a host
// rate of zero or below would hand the Poisson generator a zero rate,
// whose first round injects an unbounded burst; a negative or NaN load
// would silently run with no traffic, and an infinite one flood t = 0;
// and fewer than one replicate would silently run one. All must exit 2
// before any fabric is built; a zero load is a valid idle run.
func TestRateUsage(t *testing.T) {
	bin := buildSim(t)
	small := []string{"-tors", "16", "-ports", "4", "-awgr", "4", "-duration", "200us"}
	checkUsageErrors(t, bin, []usageCase{
		{"zero-host-rate", append([]string{"-host-gbps", "0"}, small...), "-host-gbps must be > 0"},
		{"negative-host-rate", append([]string{"-host-gbps", "-100"}, small...), "-host-gbps must be > 0"},
		{"negative-load", append([]string{"-load", "-0.5"}, small...), "-load must be >= 0"},
		{"nan-load", append([]string{"-load", "NaN"}, small...), "-load must be >= 0 and finite"},
		{"inf-load", append([]string{"-load", "Inf"}, small...), "-load must be >= 0 and finite"},
		{"negative-inf-load", append([]string{"-load", "-Inf"}, small...), "-load must be >= 0 and finite"},
		{"zero-runs", append([]string{"-runs", "0"}, small...), "-runs must be >= 1"},
		{"negative-runs", append([]string{"-runs", "-3"}, small...), "-runs must be >= 1"},
	})

	out, err := exec.Command(bin, append([]string{"-load", "0", "-host-gbps", "200"}, small...)...).CombinedOutput()
	if err != nil {
		t.Fatalf("-load 0 should be accepted: %v\n%s", err, out)
	}
}
