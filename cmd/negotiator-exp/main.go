// Command negotiator-exp regenerates the tables and figures of the
// NegotiaToR paper's evaluation (SIGCOMM 2024, §4 and appendices).
//
// Usage:
//
//	negotiator-exp -list
//	negotiator-exp -exp fig9
//	negotiator-exp -exp all -quick
//	negotiator-exp -exp table2 -duration 30ms   # the paper's full duration
//	negotiator-exp -exp all -parallel 8         # 8 simulation cells at once
//	negotiator-exp -exp scale-sweep -workers 8  # 8 ToR shards inside each run
//	negotiator-exp -exp all -state-dir sweep.state          # durable: cells persist as they finish
//	negotiator-exp -exp all -state-dir sweep.state -resume  # after a crash: only unfinished cells run
//	negotiator-exp -exp all -cell-timeout 10m   # quarantine runaway cells instead of hanging
//
// With -state-dir each completed cell's output is persisted (with a
// manifest recording its hash) the moment it finishes; killing the process
// at any point loses at most the cells in flight. -resume verifies the
// state dir belongs to the same sweep (experiment, duration, size, seed),
// salvages the finished cells, runs the rest, and emits a byte-identical
// stream to an uninterrupted run. Quarantined cells (panics or -cell-timeout
// overruns) are marked in the output and summarized at exit (status 1)
// instead of aborting the sweep; -resume retries exactly those.
//
// Two levels of parallelism compose: each experiment decomposes into
// independent (system, load, seed) cells executed by a bounded worker
// pool (-parallel; default GOMAXPROCS), and each simulation can split its
// ToRs into intra-run shards (-workers). Output is byte-identical at any
// setting of either knob.
//
// Absolute numbers differ from the paper (purpose-built simulator, shorter
// default duration); EXPERIMENTS.md records the shape claims each
// experiment reproduces and the measured values.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"negotiator/internal/exp"
	"negotiator/internal/sim"
)

func main() {
	var (
		id       = flag.String("exp", "", "experiment id (see -list), or 'all'")
		list     = flag.Bool("list", false, "list experiments")
		quick    = flag.Bool("quick", false, "trim sweep points and duration for a smoke run")
		duration = flag.Duration("duration", 0, "simulated duration per run (e.g. 30ms; default 6ms, paper uses 30ms)")
		tors     = flag.Int("tors", 0, "override network size (default 128 ToRs)")
		seed     = flag.Int64("seed", 0, "seed offset")
		parallel = flag.Int("parallel", 0, "max concurrent simulation cells (0 = GOMAXPROCS, 1 = sequential)")
		workers  = flag.Int("workers", 0, "ToR shards per simulation (intra-run parallelism; 0 = auto: sequential for paper experiments, GOMAXPROCS for scale-sweep). Results are identical at any value")
		stateDir = flag.String("state-dir", "", "persist completed cells here so a crashed sweep can be resumed with -resume")
		resume   = flag.Bool("resume", false, "skip cells already completed by a previous -state-dir run; output stays byte-identical to an uninterrupted run")
		cellTime = flag.Duration("cell-timeout", 0, "wall-clock budget per simulation cell; a cell exceeding it is retried once, then quarantined (0 = no limit)")
	)
	flag.Parse()

	if *resume && *stateDir == "" {
		fmt.Fprintln(os.Stderr, "negotiator-exp: -resume requires -state-dir (there is nothing to resume from)")
		os.Exit(2)
	}
	if *cellTime < 0 {
		fmt.Fprintf(os.Stderr, "negotiator-exp: -cell-timeout must be >= 0, got %v\n", *cellTime)
		os.Exit(2)
	}

	if *list {
		for _, e := range exp.All() {
			fmt.Printf("%-8s %s\n", e.ID, e.Title)
		}
		return
	}
	if *id == "" {
		fmt.Fprintln(os.Stderr, "negotiator-exp: pass -exp <id> or -list")
		os.Exit(2)
	}

	o := exp.Options{
		Duration:    sim.Duration(duration.Nanoseconds()),
		ToRs:        *tors,
		Quick:       *quick,
		Seed:        *seed,
		Parallel:    *parallel,
		Workers:     *workers,
		StateDir:    *stateDir,
		Resume:      *resume,
		CellTimeout: *cellTime,
	}
	if *quick && o.Duration == 0 {
		o.Duration = 2 * sim.Millisecond
		if o.ToRs == 0 {
			o.ToRs = 64
		}
	}

	var todo []exp.Experiment
	if strings.EqualFold(*id, "all") {
		todo = exp.All()
	} else {
		for _, one := range strings.Split(*id, ",") {
			e, ok := exp.ByID(strings.TrimSpace(one))
			if !ok {
				// Unknown names exit non-zero with the full list, so a typo
				// cannot silently run nothing.
				fmt.Fprintf(os.Stderr, "negotiator-exp: unknown experiment %q; available experiments:\n", one)
				for _, e := range exp.All() {
					fmt.Fprintf(os.Stderr, "  %-12s %s\n", e.ID, e.Title)
				}
				os.Exit(2)
			}
			todo = append(todo, e)
		}
	}
	total := time.Now()
	var casualties []string
	for _, e := range todo {
		fmt.Printf("== %s: %s ==\n", e.ID, e.Title)
		start := time.Now()
		eo := o
		eo.StateID = e.ID // keep each experiment's cells apart in the state dir
		err := e.Run(eo, os.Stdout)
		var cas *exp.CasualtyError
		switch {
		case errors.As(err, &cas):
			// Quarantined cells (panics, timeouts): the rest of the sweep
			// completed and is on disk/stdout, so keep going and report the
			// casualties at the end. A -resume run retries exactly these.
			for _, c := range cas.Cells {
				casualties = append(casualties, fmt.Sprintf("%s cell %d: %v", e.ID, c.Key, firstLine(c.Err)))
			}
		case err != nil:
			fmt.Fprintf(os.Stderr, "negotiator-exp: %s: %v\n", e.ID, err)
			os.Exit(1)
		}
		fmt.Printf("(%s wall time)\n\n", time.Since(start).Round(time.Millisecond))
	}
	if len(todo) > 1 {
		fmt.Printf("== total: %d experiments in %s wall time (parallel=%d) ==\n",
			len(todo), time.Since(total).Round(time.Millisecond), exp.EffectiveParallelism(*parallel))
	}
	if len(casualties) > 0 {
		fmt.Fprintf(os.Stderr, "negotiator-exp: %d cell(s) quarantined:\n", len(casualties))
		for _, c := range casualties {
			fmt.Fprintf(os.Stderr, "  %s\n", c)
		}
		if *stateDir != "" {
			fmt.Fprintln(os.Stderr, "rerun with -resume to retry only the failed cells")
		}
		os.Exit(1)
	}
}

// firstLine trims a multi-line error (panic stacks) for the summary list.
func firstLine(err error) string {
	s := err.Error()
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		s = s[:i] + " ..."
	}
	return s
}
