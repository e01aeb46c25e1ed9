// Command perfbench is the repository's benchmark. It runs one workload
// through the public facade, checks the outputs, and prints every metric
// with its unit as the last line of standard output:
//
//	perfbench --workload negotiator-hadoop --seed 1 --seconds 25 --trace 0
//
// With --trace 0 it repeats untraced runs, each in a fresh child process,
// for about --seconds and reports the end-to-end metrics: host figures as
// means over the replica seeds of each seed's median run, simulated ones as
// means over the replica seeds. Host times are the child's CPU time, which
// leaves out the time it waits for a CPU on a shared host.
// With --trace 1 it makes fewer untraced runs and then one traced run that
// reports the per-layer metrics. README.md describes the workloads, the
// metrics and the seeds.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"maps"
	"os"
	"os/exec"
	"slices"
	"strconv"
	"syscall"
	"time"
)

// metric is a reported metric's definition; BENCHMARK.json at the
// repository root lists the same names and units.
type metric struct{ name, unit string }

var endToEnd = []metric{
	{"setup_s", "s"},
	{"run_s", "s"},
	{"flows_per_s", "1/s"},
	{"peak_rss_mb", "MB"},
	{"alloc_mb", "MB"},
	{"sim_fct_p99_us", "us"},
	{"sim_mice_p99_us", "us"},
	{"sim_goodput", "ratio"},
}

var perLayer = []metric{
	{"facade.build_s", "s"},
	{"facade.summary_s", "s"},
	{"metrics.fct_samples", "count"},
	{"workload.next_calls", "count"},
	{"workload.next_s", "s"},
	{"workload.host_flows", "count"},
	{"fabric.rounds", "count"},
	{"fabric.round_s", "s"},
	{"fabric.round_p50_us", "us"},
	{"fabric.round_p99_us", "us"},
	{"fabric.backlog_mb_max", "MB"},
	{"match.requests_calls", "count"},
	{"match.grants_calls", "count"},
	{"match.accepts_calls", "count"},
	{"match.requests_s", "s"},
	{"match.grants_s", "s"},
	{"match.accepts_s", "s"},
	{"match.accept_ratio", "ratio"},
	{"negotiator.self_s", "s"},
	{"oblivious.self_s", "s"},
	{"hybrid.self_s", "s"},
	{"failure.lost_mb", "MB"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_s", "s"},
	{"trace.overhead_s", "s"},
}

// childTimeout bounds the whole command, so that a stuck run fails instead
// of hanging.
const childTimeout = 170 * time.Second

func main() {
	name := flag.String("workload", "", "workload name (see README.md)")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 25, "measurement time in seconds")
	trace := flag.Int("trace", 0, "1 reports the per-layer metrics of a traced run, 0 the end-to-end metrics")
	child := flag.Bool("child", false, "run the workload once in this process and print the result as JSON")
	traced := flag.Bool("traced", false, "with -child: make the traced run")
	flag.Parse()

	w, err := workloadByName(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	if *child {
		r, err := runOnce(w, *seed, runOpts{traced: *traced})
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		var ru syscall.Rusage
		if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: getrusage:", err)
			os.Exit(1)
		}
		r.PeakRSSMB = float64(ru.Maxrss) * 1024 / 1e6 // Maxrss is in KiB on Linux
		if err := json.NewEncoder(os.Stdout).Encode(r); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	rep, err := measure(ctx, w, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		cancel()
		os.Exit(1)
	}
	out, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the final output line.
type report struct {
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// replicas is how many input seeds one run simulates: untraced run i uses
// replicaSeed(seed, i). A single input's tail FCTs, and on oblivious-incast
// its CPU time, move by up to a quarter from seed to seed (a few large
// flows or incast collisions set them), so the metrics are means over the
// replicas. Ten is as many runs as the slowest workload fits in 25 s.
const replicas = 10

func replicaSeed(seed int64, i int) int64 { return seed*replicas + int64(i%replicas) }

// measure repeats untraced runs of w in child processes, cycling through
// the replica seeds, until the next one would overrun the measurement time
// (at least one run per replica). With trace it makes untraced runs of the
// first replica only, then the traced run of that replica.
func measure(ctx context.Context, w *workloadDef, seed int64, seconds time.Duration, trace bool) (*report, error) {
	start := time.Now()
	minRuns, reserve := replicas, 0.0
	if trace {
		minRuns, reserve = 1, 2 // a traced run takes up to about twice an untraced one
	}
	var runs []*result
	var seeds []int64
	var durs []float64
	for i := 0; ; i++ {
		s := replicaSeed(seed, i)
		if trace {
			s = replicaSeed(seed, 0)
		}
		t := time.Now()
		r, err := spawn(ctx, w, s, false)
		if err != nil {
			return nil, err
		}
		runs, seeds = append(runs, r), append(seeds, s)
		durs = append(durs, time.Since(t).Seconds())
		next := median(durs)
		if len(runs) >= minRuns && time.Since(start).Seconds()+next*(1+reserve) > seconds.Seconds() {
			break
		}
	}
	all := runs
	if trace {
		tr, err := spawn(ctx, w, replicaSeed(seed, 0), true)
		if err != nil {
			return nil, err
		}
		all = append(slices.Clone(runs), tr)
		seeds = append(seeds, replicaSeed(seed, 0))
	}

	rep := &report{Correct: true, Metrics: map[string]value{}}
	fingerprints := map[int64]string{}
	for i, r := range all {
		rep.Attempted += r.HostFlows
		rep.Failed += max(r.HostFlows-r.Flows, 0)
		if r.Check != "" {
			fmt.Fprintf(os.Stderr, "perfbench: %s run %d: %s\n", w.name, i, r.Check)
			rep.Correct = false
		}
		// Runs of one seed, traced or not, must simulate the same.
		if f, ok := fingerprints[seeds[i]]; ok && f != r.Fingerprint {
			fmt.Fprintf(os.Stderr, "perfbench: %s run %d: Summary/MiceCDF fingerprint differs from an earlier run of seed %d\n", w.name, i, seeds[i])
			rep.Correct = false
		}
		fingerprints[seeds[i]] = r.Fingerprint
	}
	host := func(f func(*result) float64) float64 { return replicaMean(runs, seeds[:len(runs)], f) }
	runS := host(func(r *result) float64 { return r.RunS })
	if trace {
		tr := all[len(all)-1]
		for _, m := range perLayer {
			v := tr.Layers[m.name]
			if m.name == "trace.overhead_s" {
				v = tr.RunS - runS
			}
			rep.Metrics[m.name] = value{v, m.unit}
		}
		return rep, nil
	}
	sims := runs[:replicas]
	vals := map[string]float64{
		"setup_s":         host(func(r *result) float64 { return r.SetupS }),
		"run_s":           runS,
		"flows_per_s":     host(func(r *result) float64 { return float64(r.RunFlows) }) / runS,
		"peak_rss_mb":     host(func(r *result) float64 { return r.PeakRSSMB }),
		"alloc_mb":        host(func(r *result) float64 { return r.AllocMB }),
		"sim_fct_p99_us":  meanOf(sims, func(r *result) float64 { return r.FCTP99us }),
		"sim_mice_p99_us": meanOf(sims, func(r *result) float64 { return r.MiceP99us }),
		"sim_goodput":     meanOf(sims, func(r *result) float64 { return r.Goodput }),
	}
	for _, m := range endToEnd {
		rep.Metrics[m.name] = value{vals[m.name], m.unit}
	}
	return rep, nil
}

// spawn makes one run of w in a child process, so that each run starts
// from a fresh heap and peak_rss_mb is that one run's.
func spawn(ctx context.Context, w *workloadDef, seed int64, traced bool) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{"-child", "-workload", w.name, "-seed", strconv.FormatInt(seed, 10)}
	if traced {
		args = append(args, "-traced")
	}
	cmd := exec.CommandContext(ctx, exe, args...)
	cmd.Stderr = os.Stderr
	// The child dies with this process, however that ends.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.Output()
	if err != nil {
		if errors.Is(ctx.Err(), context.DeadlineExceeded) {
			return nil, fmt.Errorf("%s: out of time after %v", w.name, childTimeout)
		}
		return nil, fmt.Errorf("%s run: %w", w.name, err)
	}
	var r result
	if err := json.Unmarshal(out, &r); err != nil {
		return nil, fmt.Errorf("%s run output: %w", w.name, err)
	}
	return &r, nil
}

func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func meanOf(runs []*result, f func(*result) float64) float64 {
	var s float64
	for _, r := range runs {
		s += f(r)
	}
	return s / float64(len(runs))
}

// replicaMean is the mean over the replica seeds of each seed's median of f
// over its runs, so that which seeds the last runs of a measurement fell on
// does not move it. seeds[i] is the seed of runs[i].
func replicaMean(runs []*result, seeds []int64, f func(*result) float64) float64 {
	by := map[int64][]float64{}
	for i, r := range runs {
		by[seeds[i]] = append(by[seeds[i]], f(r))
	}
	var s float64
	for _, seed := range slices.Sorted(maps.Keys(by)) {
		s += median(by[seed])
	}
	return s / float64(len(by))
}
