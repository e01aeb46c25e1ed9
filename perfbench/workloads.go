package main

import (
	"cmp"
	"fmt"
	"math/rand/v2"
	"slices"

	"negotiator"
	"negotiator/internal/workload"
)

// A workloadDef is one benchmark workload: a fabric, an arrival stream, and
// the run shape. Every run goes through three stages: set-up (build, attach
// the stream, run the warm-up rounds), a measured arrival window, then a
// drain after the stream is cut at the window end. Window and drain plus
// Summary/MiceCDF form run_s.
type workloadDef struct {
	name string
	// plane is the control plane whose self time the trace reports.
	plane string
	// spec returns the fabric for a seed (Workers = 1, no observers).
	spec func(seed int64) negotiator.Spec
	// gen returns the arrival stream for a seed.
	gen func(spec negotiator.Spec, seed int64) (negotiator.Workload, error)
	// warm and window are simulated spans, rounded up to whole epochs.
	warm, window negotiator.Duration
	// drain bounds the drain stage in simulated time; a host flow still
	// undelivered after it is a failed operation.
	drain negotiator.Duration
}

// workloads lists the benchmark's workloads; README.md records why each
// one is here and which layer does its work.
var workloads = []*workloadDef{
	{
		name:  "negotiator-hadoop",
		plane: "negotiator",
		spec:  func(seed int64) negotiator.Spec { return seeded(negotiator.DefaultSpec(), seed) },
		gen: func(spec negotiator.Spec, seed int64) (negotiator.Workload, error) {
			return negotiator.PoissonWorkload(spec, negotiator.Hadoop, 0.9, seed), nil
		},
		warm:   1 * negotiator.Millisecond,
		window: 12 * negotiator.Millisecond,
		drain:  200 * negotiator.Millisecond,
	},
	{
		name:  "oblivious-incast",
		plane: "oblivious",
		spec: func(seed int64) negotiator.Spec {
			s := seeded(negotiator.DefaultSpec(), seed)
			s.ControlPlane = negotiator.ObliviousPlane
			return s
		},
		gen: func(spec negotiator.Spec, seed int64) (negotiator.Workload, error) {
			// Figure 13a's mix: 2% of host bandwidth in degree-20 incasts
			// of 1 KB flows over Hadoop background traffic.
			return negotiator.MixedIncastWorkload(spec, negotiator.Hadoop, 0.4, 20, 1000, 0.02, 1, seed), nil
		},
		warm:   50 * negotiator.Microsecond,
		window: 500 * negotiator.Microsecond,
		drain:  200 * negotiator.Millisecond,
	},
	{
		name:  "hybrid-google-flap",
		plane: "hybrid",
		spec: func(seed int64) negotiator.Spec {
			s := seeded(negotiator.DefaultSpec(), seed)
			s.ControlPlane = negotiator.HybridPlane
			s.Topology = negotiator.ThinClos
			// 2% of links flap (down half of every 1 ms period) from the
			// start of the run to the end of the arrival window.
			s.Failures = &negotiator.FailurePlan{
				Scenario: negotiator.FlappingLinks,
				Fraction: 0.02,
				Period:   negotiator.Millisecond,
				Cycles:   21,
				Seed:     seed,
			}
			return s
		},
		gen: func(spec negotiator.Spec, seed int64) (negotiator.Workload, error) {
			return negotiator.PoissonWorkload(spec, negotiator.Google, 0.7, seed), nil
		},
		warm:   1 * negotiator.Millisecond,
		window: 20 * negotiator.Millisecond,
		drain:  200 * negotiator.Millisecond,
	},
	{
		name:  "wide-permutation",
		plane: "negotiator",
		spec: func(seed int64) negotiator.Spec {
			s := seeded(negotiator.DefaultSpec(), seed)
			s.ToRs = 65536
			return s
		},
		gen: func(spec negotiator.Spec, seed int64) (negotiator.Workload, error) {
			perm, err := negotiator.PermutationWorkload(spec, wideActive, 100_000, 0)
			if err != nil {
				return nil, err
			}
			if perm, err = negotiator.GroupWorkload(perm, 8192); err != nil {
				return nil, err
			}
			return negotiator.MergeWorkloads(perm, newActiveMice(wideActive, wideMice, 1000, 20*negotiator.Millisecond, seed)), nil
		},
		warm:   negotiator.Microsecond,
		window: 20 * negotiator.Millisecond,
		drain:  5 * negotiator.Second,
	},
}

// wideActive is wide-permutation's active ToR count; wideMice is the number
// of 1 KB mice it spreads over those ToRs during the window, so the mice
// FCT is measured behind the elephant groups.
const (
	wideActive = 256
	wideMice   = 2048
)

func seeded(s negotiator.Spec, seed int64) negotiator.Spec {
	s.Seed = seed
	s.Workers = 1
	return s
}

func workloadByName(name string) (*workloadDef, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// activeMice is a seeded stream of n size-byte flows between distinct
// random ToRs of the first active ones, at uniform random times in
// [0, span), in time order.
type activeMice struct {
	arr []workload.Arrival
}

func newActiveMice(active, n int, size int64, span negotiator.Duration, seed int64) *activeMice {
	rng := rand.New(rand.NewPCG(uint64(seed), 0x6d696365))
	arr := make([]workload.Arrival, n)
	for i := range arr {
		src := rng.IntN(active)
		dst := rng.IntN(active - 1)
		if dst >= src {
			dst++
		}
		arr[i] = workload.Arrival{Time: negotiator.Time(rng.Int64N(int64(span))), Src: src, Dst: dst, Size: size}
	}
	slices.SortStableFunc(arr, func(a, b workload.Arrival) int { return cmp.Compare(a.Time, b.Time) })
	return &activeMice{arr: arr}
}

func (g *activeMice) Next() (workload.Arrival, bool) {
	if len(g.arr) == 0 {
		return workload.Arrival{}, false
	}
	a := g.arr[0]
	g.arr = g.arr[1:]
	return a, true
}
