// Command negotiator-sim runs one fabric simulation with explicit
// parameters and prints its summary — the general-purpose entry point for
// exploring configurations outside the paper's experiment matrix.
//
// Examples:
//
//	negotiator-sim -list                        # engines, schedulers, topologies, traces
//	negotiator-sim -topology thin-clos -load 0.75 -duration 10ms
//	negotiator-sim -engine oblivious -trace websearch -load 0.5
//	negotiator-sim -engine hybrid -load 1.0     # mice on round-robin, elephants negotiated
//	negotiator-sim -scheduler stateful -tors 64 -no-pq
//	negotiator-sim -fail-frac 0.05 -fail-detect 3us   # 5% links down forever
//	negotiator-sim -engine hybrid -fail-scenario tor-down -fail-tor 3 -fail-at 100us -fail-recover 400us
//	negotiator-sim -runs 8 -parallel 4   # 8 seed replicates, 4 at a time
//	negotiator-sim -tors 512 -workers 0  # one big run, sharded over all cores
//	negotiator-sim -duration 30ms -checkpoint-every 500 -checkpoint-dir ck   # rolling checkpoint
//	negotiator-sim -duration 30ms -restore ck/checkpoint.negosnap            # resume after a crash
//
// A checkpoint is a resume token, not an archive: -restore must be given
// the same binary, the same configuration flags, and the same workload
// parameters as the run that wrote it, and then reproduces the
// uninterrupted run's output byte for byte.
//
// With -runs N the same configuration is executed for seeds seed..seed+N-1
// as independent cells on a bounded worker pool (see -parallel); the
// per-seed summaries print in seed order regardless of completion order.
// With -workers P each run additionally splits its ToRs into P shards that
// execute every epoch concurrently; results are identical at any P.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	negotiator "negotiator"
	"negotiator/internal/exp"
	"negotiator/internal/sim"
)

// schedulerNames maps CLI names to facade schedulers, in listing order.
var schedulerNames = []struct {
	name string
	s    negotiator.Scheduler
}{
	{"matching", negotiator.Matching},
	{"iterative1", negotiator.Iterative1},
	{"iterative3", negotiator.Iterative3},
	{"iterative5", negotiator.Iterative5},
	{"data-size", negotiator.DataSizePriority},
	{"hol-delay", negotiator.HoLDelayPriority},
	{"stateful", negotiator.Stateful},
	{"projector", negotiator.ProjecToRStyle},
	{"pim", negotiator.PIMStyle},
	{"islip", negotiator.ISLIPStyle},
}

var traceNames = []struct {
	name string
	t    negotiator.Trace
}{
	{"hadoop", negotiator.Hadoop},
	{"websearch", negotiator.WebSearch},
	{"google", negotiator.Google},
}

func main() {
	var (
		tors        = flag.Int("tors", 128, "number of ToRs")
		ports       = flag.Int("ports", 8, "uplink ports per ToR")
		awgr        = flag.Int("awgr", 16, "thin-clos AWGR port count W (ToRs must equal ports*W)")
		topology    = flag.String("topology", "parallel", "parallel | thin-clos")
		engine      = flag.String("engine", "negotiator", "control plane: negotiator | oblivious | hybrid (see -list)")
		scheduler   = flag.String("scheduler", "matching", "NegotiaToR scheduling policy (see -list)")
		trace       = flag.String("trace", "hadoop", "hadoop | websearch | google")
		load        = flag.Float64("load", 0.5, "network load L = F/(R*N*tau)")
		duration    = flag.Duration("duration", 6*time.Millisecond, "simulated duration")
		linkGbps    = flag.Int64("link-gbps", 100, "per-port line rate (Gbps)")
		hostGbps    = flag.Int64("host-gbps", 400, "per-ToR host aggregate (Gbps)")
		reconfig    = flag.Duration("reconfig", 10*time.Nanosecond, "reconfiguration delay / guardband")
		schedLen    = flag.Int("sched-slots", 30, "scheduled phase length in timeslots")
		noPB        = flag.Bool("no-pb", false, "disable data piggybacking")
		noPQ        = flag.Bool("no-pq", false, "disable priority queues")
		relay       = flag.Bool("relay", false, "enable traffic-aware selective relay (thin-clos)")
		failScen    = flag.String("fail-scenario", "", "failure scenario: random | flapping | port-group | tor-down (empty = no failures unless -fail-frac is set)")
		failFrac    = flag.Float64("fail-frac", 0, "fraction of directed port-links to fail (random, flapping)")
		failAt      = flag.Duration("fail-at", 0, "when links go down (flapping: first cycle start)")
		failRec     = flag.Duration("fail-recover", 0, "when links come back (<= -fail-at means never)")
		failDetect  = flag.Duration("fail-detect", 0, "failure detection lag (0 = three epochs at default timing)")
		failPeriod  = flag.Duration("fail-period", 0, "flapping cycle period (required for -fail-scenario flapping)")
		failDown    = flag.Duration("fail-down", 0, "flapping downtime per cycle (0 = half the period)")
		failCycles  = flag.Int("fail-cycles", 0, "flapping cycle count (0 = 8)")
		failPort    = flag.Int("fail-port", 0, "AWGR port index to kill on every ToR (port-group)")
		failToR     = flag.Int("fail-tor", 0, "ToR index to power down (tor-down)")
		seed        = flag.Int64("seed", 1, "random seed")
		ckptEvery   = flag.Int("checkpoint-every", 0, "write a checkpoint every N epochs (requires -checkpoint-dir; 0 = off)")
		ckptDir     = flag.String("checkpoint-dir", "", "directory for the rolling checkpoint file (atomically replaced after every interval)")
		restoreCkpt = flag.String("restore", "", "resume from a checkpoint file; the remaining flags must rebuild the checkpointed configuration")
		runs        = flag.Int("runs", 1, "number of seed replicates (seeds seed..seed+runs-1)")
		parallel    = flag.Int("parallel", 0, "max concurrent runs (0 = GOMAXPROCS, 1 = sequential)")
		workers     = flag.Int("workers", 1, "ToR shards per run (intra-run parallelism; 0 = GOMAXPROCS, 1 = sequential). Results are identical at any value")
		list        = flag.Bool("list", false, "list engines, schedulers, topologies and traces, then exit")
	)
	flag.Parse()

	if *list {
		printLists(os.Stdout)
		return
	}

	if *ckptEvery < 0 {
		fatalUsagef("-checkpoint-every must be >= 0, got %d", *ckptEvery)
	}
	if *ckptEvery > 0 && *ckptDir == "" {
		fatalUsagef("-checkpoint-every requires -checkpoint-dir (nowhere to write checkpoints)")
	}
	if *ckptDir != "" && *ckptEvery <= 0 {
		fatalUsagef("-checkpoint-dir requires -checkpoint-every > 0 (nothing would be written)")
	}
	if (*ckptEvery > 0 || *restoreCkpt != "") && *runs > 1 {
		fatalUsagef("-runs %d cannot be combined with -checkpoint-every/-restore: a checkpoint captures a single run", *runs)
	}
	if *hostGbps <= 0 {
		fatalUsagef("-host-gbps must be > 0, got %d: workloads scale their arrival rate by it", *hostGbps)
	}
	if *load < 0 {
		fatalUsagef("-load must be >= 0, got %v", *load)
	}

	spec := negotiator.DefaultSpec()
	spec.ToRs, spec.Ports, spec.AWGRPorts = *tors, *ports, *awgr
	spec.LinkRate = negotiator.Gbps(*linkGbps)
	spec.HostRate = negotiator.Gbps(*hostGbps)
	spec.ReconfigDelay = sim.Duration(reconfig.Nanoseconds())
	spec.ScheduledSlots = *schedLen
	spec.Piggyback = !*noPB
	spec.PriorityQueues = !*noPQ
	spec.SelectiveRelay = *relay
	spec.Seed = *seed
	if *workers > *tors {
		fatalUsagef("-workers %d exceeds -tors %d: each worker shards a non-empty contiguous ToR range; lower -workers or use 0 for auto", *workers, *tors)
	}
	spec.Workers = exp.EffectiveParallelism(*workers)
	if spec.Workers > *tors {
		spec.Workers = *tors // auto (-workers 0) on a small fabric: one shard per ToR
	}

	plane, ok := negotiator.ControlPlaneByName(strings.ToLower(*engine))
	if !ok {
		fatalListf("unknown engine %q; available engines:\n%s", *engine, engineList())
	}
	spec.ControlPlane = plane

	switch strings.ToLower(*topology) {
	case "parallel":
		spec.Topology = negotiator.ParallelNetwork
	case "thin-clos", "thinclos", "tc":
		spec.Topology = negotiator.ThinClos
	default:
		fatalListf("unknown topology %q; available topologies:\n  parallel\n  thin-clos", *topology)
	}

	schedOK := false
	for _, sn := range schedulerNames {
		if strings.ToLower(*scheduler) == sn.name || (*scheduler == "" && sn.name == "matching") {
			spec.Scheduler = sn.s
			schedOK = true
			break
		}
	}
	if !schedOK {
		fatalListf("unknown scheduler %q; available schedulers:\n%s", *scheduler, schedulerList())
	}

	var tr negotiator.Trace
	traceOK := false
	for _, tn := range traceNames {
		if strings.ToLower(*trace) == tn.name {
			tr = tn.t
			traceOK = true
			break
		}
	}
	if !traceOK {
		fatalListf("unknown trace %q; available traces:\n%s", *trace, traceList())
	}

	failFlagSet := false
	flag.Visit(func(f *flag.Flag) {
		if strings.HasPrefix(f.Name, "fail-") {
			failFlagSet = true
		}
	})
	if failFlagSet {
		scen := negotiator.RandomLinks
		if *failScen != "" {
			var ok bool
			scen, ok = negotiator.FailureScenarioByName(strings.ToLower(*failScen))
			if !ok {
				fatalListf("unknown failure scenario %q; available scenarios:\n%s", *failScen, scenarioList())
			}
		}
		switch scen {
		case negotiator.RandomLinks, negotiator.FlappingLinks:
			if *failFrac <= 0 || *failFrac > 1 {
				fatalListf("-fail-scenario %s needs -fail-frac in (0, 1], got %v", scen, *failFrac)
			}
			if scen == negotiator.FlappingLinks && *failPeriod <= 0 {
				fatalListf("-fail-scenario flapping needs -fail-period > 0")
			}
		case negotiator.PortGroupFailure:
			if *failPort < 0 || *failPort >= *ports {
				fatalListf("-fail-port %d out of range [0, %d)", *failPort, *ports)
			}
		case negotiator.ToRFailure:
			if *failToR < 0 || *failToR >= *tors {
				fatalListf("-fail-tor %d out of range [0, %d)", *failToR, *tors)
			}
		}
		spec.Failures = &negotiator.FailurePlan{
			Scenario:    scen,
			Fraction:    *failFrac,
			FailAt:      negotiator.Time((*failAt).Nanoseconds()),
			RecoverAt:   negotiator.Time((*failRec).Nanoseconds()),
			DetectDelay: negotiator.Duration((*failDetect).Nanoseconds()),
			Period:      negotiator.Duration((*failPeriod).Nanoseconds()),
			DownFor:     negotiator.Duration((*failDown).Nanoseconds()),
			Cycles:      *failCycles,
			Port:        *failPort,
			ToR:         *failToR,
			Seed:        *seed,
		}
	}

	runOne := func(runSeed int64, w io.Writer) error {
		sp := spec
		sp.Seed = runSeed
		fab, err := sp.Build()
		if err != nil {
			return err
		}
		fab.SetWorkload(negotiator.PoissonWorkload(sp, tr, *load, runSeed+6))
		start := time.Now()
		if *restoreCkpt != "" {
			if err := restoreCheckpoint(fab, *restoreCkpt); err != nil {
				return err
			}
		}
		total := sim.Duration(duration.Nanoseconds())
		if *ckptEvery > 0 {
			if err := runCheckpointed(fab, total, *ckptEvery, *ckptDir); err != nil {
				return err
			}
		} else {
			fab.Run(total)
		}
		sum := fab.Summary()

		fmt.Fprintf(w, "%s on %s: %d ToRs x %d ports, trace=%s load=%.0f%%, %v simulated (%v wall)\n",
			plane, sp.Topology, sp.ToRs, sp.Ports, tr, *load*100, sum.Duration, time.Since(start).Round(time.Millisecond))
		fmt.Fprintf(w, "  flows completed:   %d (%d mice)\n", sum.Flows, sum.MiceFlows)
		fmt.Fprintf(w, "  mice FCT 99p/mean: %v / %v\n", sum.Mice99p, sum.MiceMean)
		fmt.Fprintf(w, "  all-flow FCT 99p:  %v\n", sum.All99p)
		fmt.Fprintf(w, "  goodput:           %.3f (normalized to %d Gbps hosts)\n", sum.GoodputNormalized, *hostGbps)
		if plane == negotiator.ObliviousPlane {
			fmt.Fprintf(w, "  round-robin cycle: %v\n", sum.EpochLen)
		} else {
			fmt.Fprintf(w, "  match ratio:       %.3f\n", sum.MatchRatio)
			fmt.Fprintf(w, "  epoch length:      %v\n", sum.EpochLen)
		}
		fmt.Fprintf(w, "  bytes delivered:   %d of %d injected\n", sum.Delivered, sum.Injected)
		if sp.Failures != nil {
			fmt.Fprintf(w, "  bytes lost:        %d (destroyed by failed links, pre-requeue)\n", sum.LostBytes)
		}
		return nil
	}

	if *runs <= 1 {
		if err := runOne(*seed, os.Stdout); err != nil {
			fatalf("%v", err)
		}
		return
	}
	// Seed replicates as independent cells: run on the worker pool, print
	// in seed order.
	r := exp.NewRunner(*parallel)
	total := time.Now()
	for k := 0; k < *runs; k++ {
		runSeed := *seed + int64(k)
		r.Textf("-- seed %d --\n", runSeed)
		r.Cell(func(w io.Writer) error { return runOne(runSeed, w) })
	}
	if err := r.Flush(os.Stdout); err != nil {
		fatalf("%v", err)
	}
	fmt.Printf("-- %d runs in %s wall time (parallel=%d) --\n",
		*runs, time.Since(total).Round(time.Millisecond), r.Parallelism())
}

// restoreCheckpoint applies a checkpoint file to a freshly built fabric
// (workload already attached). Core.Restore validates the file end to end
// before touching any state, so a bad file fails here without side effects.
func restoreCheckpoint(fab negotiator.Fabric, path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := fab.Restore(f); err != nil {
		return fmt.Errorf("restoring %s: %w", path, err)
	}
	return nil
}

// runCheckpointed advances the fabric to the target duration in
// epoch-count intervals, atomically replacing the rolling checkpoint file
// after each. A restored run resumes mid-schedule: the loop only ever runs
// the epochs still missing, so the final state matches an uninterrupted
// run exactly. RunEpochs(k) advances the clock by exactly k epochs (k
// cycles on the oblivious plane), so the clock is read from one Summary up
// front and then kept locally, rather than merging and sorting every FCT
// sample at each interval.
func runCheckpointed(fab negotiator.Fabric, total sim.Duration, every int, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, "checkpoint.negosnap")
	s := fab.Summary()
	for now := s.Duration; now < total; {
		epochs := int((total - now + s.EpochLen - 1) / s.EpochLen)
		if epochs > every {
			epochs = every
		}
		fab.RunEpochs(epochs)
		now += sim.Duration(epochs) * s.EpochLen
		if err := writeCheckpoint(fab, path); err != nil {
			return err
		}
	}
	return nil
}

// writeCheckpoint snapshots the fabric into path via temp + rename, so the
// rolling file always holds a complete checkpoint even if the process dies
// mid-write.
func writeCheckpoint(fab negotiator.Fabric, path string) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if err := fab.Snapshot(f); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

func engineList() string {
	var b strings.Builder
	desc := map[negotiator.ControlPlaneKind]string{
		negotiator.NegotiaToRPlane: "on-demand negotiation (the paper's design)",
		negotiator.ObliviousPlane:  "traffic-oblivious round-robin + VLB relay (Sirius-like baseline)",
		negotiator.HybridPlane:     "mice on the round-robin schedule, elephants negotiated",
	}
	for _, k := range negotiator.ControlPlanes() {
		fmt.Fprintf(&b, "  %-12s %s\n", k, desc[k])
	}
	return strings.TrimRight(b.String(), "\n")
}

func schedulerList() string {
	var b strings.Builder
	for _, sn := range schedulerNames {
		fmt.Fprintf(&b, "  %s\n", sn.name)
	}
	return strings.TrimRight(b.String(), "\n")
}

func traceList() string {
	var b strings.Builder
	for _, tn := range traceNames {
		fmt.Fprintf(&b, "  %s\n", tn.name)
	}
	return strings.TrimRight(b.String(), "\n")
}

func scenarioList() string {
	var b strings.Builder
	desc := map[negotiator.FailureScenario]string{
		negotiator.RandomLinks:      "random directed links down over [-fail-at, -fail-recover)",
		negotiator.FlappingLinks:    "links cycle down/up every -fail-period",
		negotiator.PortGroupFailure: "one AWGR dies: -fail-port on every ToR",
		negotiator.ToRFailure:       "-fail-tor powers down entirely",
	}
	for _, sc := range negotiator.FailureScenarios() {
		fmt.Fprintf(&b, "  %-12s %s\n", sc, desc[sc])
	}
	return strings.TrimRight(b.String(), "\n")
}

func printLists(w io.Writer) {
	fmt.Fprintf(w, "engines (-engine):\n%s\n", engineList())
	fmt.Fprintf(w, "schedulers (-scheduler, NegotiaToR engine only):\n%s\n", schedulerList())
	fmt.Fprintf(w, "topologies (-topology):\n  parallel\n  thin-clos\n")
	fmt.Fprintf(w, "traces (-trace):\n%s\n", traceList())
	fmt.Fprintf(w, "failure scenarios (-fail-scenario):\n%s\n", scenarioList())
}

func fatalf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "negotiator-sim: "+format+"\n", args...)
	os.Exit(1)
}

// fatalListf rejects an unknown name: the error plus the valid list, and
// a non-zero exit so scripts cannot silently run the wrong thing.
func fatalListf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "negotiator-sim: "+format+"\n", args...)
	os.Exit(2)
}

// fatalUsagef rejects an invalid flag combination with the conventional
// usage-error status 2, so scripts can tell a bad invocation from a run
// that failed.
func fatalUsagef(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "negotiator-sim: "+format+"\n", args...)
	os.Exit(2)
}
