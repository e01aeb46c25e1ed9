package main

import (
	"encoding/json"
	"math"
	"os"
	"slices"
	"sync"
	"testing"
	"time"

	"negotiator/internal/match"
	"negotiator/internal/sim"
	"negotiator/internal/topo"
)

// The self-tests make full-size runs of every workload (about two minutes
// in all); -short skips them.

// spinPerCall is the sensitivity self-test's added cost per wrapper call.
const spinPerCall = 3 * time.Microsecond

// dominant is each workload's stated dominant layer in the traced run: the
// largest of the plane self times, the matcher, the generator and the
// Summary. README.md records the measured shares.
var dominant = map[string]string{
	"negotiator-hadoop":  "negotiator.self_s",
	"oblivious-incast":   "oblivious.self_s",
	"hybrid-google-flap": "hybrid.self_s",
	"wide-permutation":   "negotiator.self_s",
}

// benchmarkFile is the subset of ../BENCHMARK.json the tests read.
type benchmarkFile struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit string
		Bound      float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) *benchmarkFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	return &f
}

func bound(t *testing.T, name string) float64 {
	for _, m := range readBenchmarkFile(t).EndToEnd {
		if m.Name == name {
			return m.Bound
		}
	}
	t.Fatalf("no bound for %s in BENCHMARK.json", name)
	return 0
}

// TestBenchmarkFileMatchesCode checks that BENCHMARK.json declares exactly
// the workloads and metrics the command runs and prints.
func TestBenchmarkFileMatchesCode(t *testing.T) {
	f := readBenchmarkFile(t)
	var names []string
	for _, w := range f.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if !slices.Equal(names, want) {
		t.Errorf("BENCHMARK.json workloads %v, code runs %v", names, want)
	}
	var e2e, layers []metric
	for _, m := range f.EndToEnd {
		e2e = append(e2e, metric{m.Name, m.Unit})
	}
	for _, m := range f.PerLayer {
		layers = append(layers, metric{m.Name, m.Unit})
	}
	if !slices.Equal(e2e, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end %v, code prints %v", e2e, endToEnd)
	}
	if !slices.Equal(layers, perLayer) {
		t.Errorf("BENCHMARK.json per_layer %v, code prints %v", layers, perLayer)
	}
}

// plainMatcher hides every optional interface of the matcher it embeds.
type plainMatcher struct{ match.Matcher }

// TestWrapperFidelity: the matcher wrapper keeps the wrapped matcher's
// request traits and its match.Sharded implementation, through Fork too.
// Without the traits the engine silently drops its incremental request
// cache while results stay byte-identical, so the fingerprint check alone
// could not catch it.
func TestWrapperFidelity(t *testing.T) {
	top, err := topo.NewParallel(16, 4)
	if err != nil {
		t.Fatal(err)
	}
	inner := match.NewNegotiator(top, sim.NewRNG(1))
	ls := &layerStats{}
	check := func(name string, inner, wrapped match.Matcher) {
		t.Helper()
		ii, ip := match.TraitsOf(inner)
		wi, wp := match.TraitsOf(wrapped)
		if ii != wi || ip != wp {
			t.Errorf("%s: TraitsOf(wrapped) = (%v, %v), TraitsOf(inner) = (%v, %v)", name, wi, wp, ii, ip)
		}
		_, is := inner.(match.Sharded)
		_, ws := wrapped.(match.Sharded)
		if is != ws {
			t.Errorf("%s: wrapped implements match.Sharded = %v, inner = %v", name, ws, is)
		}
	}
	w := wrapMatcher(inner, ls, 0)
	check("base", inner, w)
	if ii, ip := match.TraitsOf(inner); !ii || !ip {
		t.Fatalf("base matcher traits (%v, %v): the check above proves nothing", ii, ip)
	}
	for i, h := range w.(match.Sharded).Fork(2) {
		check("fork handle", inner.Fork(2)[i], h)
	}
	check("plain", plainMatcher{inner}, wrapMatcher(plainMatcher{inner}, ls, 0))
}

var (
	runCache   = map[string]*result{}
	runCacheMu sync.Mutex
)

// cachedRun makes (once per test binary) the named run of workload name on
// the default seed.
func cachedRun(t *testing.T, name string, traced bool) *result {
	t.Helper()
	if testing.Short() {
		t.Skip("full-size runs")
	}
	key := name
	if traced {
		key += "/traced"
	}
	runCacheMu.Lock()
	defer runCacheMu.Unlock()
	if r, ok := runCache[key]; ok {
		return r
	}
	r := mustRun(t, name, runOpts{traced: traced})
	runCache[key] = r
	return r
}

func mustRun(t *testing.T, name string, o runOpts) *result {
	t.Helper()
	w, err := workloadByName(name)
	if err != nil {
		t.Fatal(err)
	}
	r, err := runOnce(w, 1, o)
	if err != nil {
		t.Fatal(err)
	}
	if r.Check != "" {
		t.Fatalf("%s: %s", name, r.Check)
	}
	return r
}

// callCounts are the per-layer metrics that must repeat exactly.
var callCounts = []string{
	"metrics.fct_samples", "workload.next_calls", "workload.host_flows", "fabric.rounds",
	"match.requests_calls", "match.grants_calls", "match.accepts_calls",
}

// TestSeedHygiene: two runs on one seed give identical simulated results
// and per-layer call counts, and the traced run simulates exactly what the
// untraced one does.
func TestSeedHygiene(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			timed := cachedRun(t, w.name, false)
			a := cachedRun(t, w.name, true)
			b := mustRun(t, w.name, runOpts{traced: true})
			if a.Fingerprint != timed.Fingerprint || b.Fingerprint != timed.Fingerprint {
				t.Errorf("fingerprints differ: untraced %s, traced %s and %s", timed.Fingerprint, a.Fingerprint, b.Fingerprint)
			}
			if a.FCTP99us != b.FCTP99us || a.MiceP99us != b.MiceP99us || a.Goodput != b.Goodput {
				t.Errorf("sim metrics differ: %+v vs %+v", a, b)
			}
			for _, k := range callCounts {
				if a.Layers[k] != b.Layers[k] {
					t.Errorf("%s: %v then %v", k, a.Layers[k], b.Layers[k])
				}
			}
		})
	}
}

// TestDominance: each workload's stated layer does most of its traced
// work, the layer self times account for fabric.round_s, and layers a
// workload bypasses stay idle.
func TestDominance(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			l := cachedRun(t, w.name, true).Layers
			matchS := l["match.requests_s"] + l["match.grants_s"] + l["match.accepts_s"]
			shares := map[string]float64{
				"negotiator.self_s": l["negotiator.self_s"],
				"oblivious.self_s":  l["oblivious.self_s"],
				"hybrid.self_s":     l["hybrid.self_s"],
				"match":             matchS,
				"workload.next_s":   l["workload.next_s"],
				"facade.summary_s":  l["facade.summary_s"],
			}
			top, topS := "", -1.0
			for k, v := range shares {
				if v > topS {
					top, topS = k, v
				}
			}
			t.Logf("shares of fabric.round_s + facade.summary_s: %v", shares)
			if top != dominant[w.name] {
				t.Errorf("dominant layer %s (%.3f s), README states %s", top, topS, dominant[w.name])
			}
			self := l[w.plane+".self_s"]
			if self <= 0 || math.Abs(self+matchS+l["workload.next_s"]-l["fabric.round_s"]) > 1e-6 {
				t.Errorf("self %.3f + match %.3f + workload %.3f != fabric.round_s %.3f", self, matchS, l["workload.next_s"], l["fabric.round_s"])
			}
			if w.plane != "negotiator" && l["match.grants_calls"] != 0 {
				t.Errorf("%s plane made %v matcher calls", w.plane, l["match.grants_calls"])
			}
		})
	}
}

// TestSensitivity: a fixed spin added per call in a wrapper raises run_s
// past its bound when the layer does real work, and the traced run
// attributes the added time to that layer; on wide-permutation, whose
// generator is called a few thousand times, the same spin stays within
// the bound.
func TestSensitivity(t *testing.T) {
	b := bound(t, "run_s")
	cases := []struct {
		workload, layer string
		o               runOpts
		raises          bool
	}{
		{"hybrid-google-flap", "workload.next_s", runOpts{spinNext: spinPerCall}, true},
		{"negotiator-hadoop", "match.grants_s", runOpts{spinGrants: spinPerCall}, true},
		{"wide-permutation", "workload.next_s", runOpts{spinNext: spinPerCall}, false},
	}
	for _, c := range cases {
		t.Run(c.workload, func(t *testing.T) {
			base := cachedRun(t, c.workload, false)
			spun := mustRun(t, c.workload, c.o)
			if spun.Fingerprint != base.Fingerprint {
				t.Fatalf("spin changed the simulated results")
			}
			baseS, spunS := base.RunS, spun.RunS
			if !c.raises {
				// A small effect: compare medians of three runs each, so
				// host noise cannot fake a rise.
				baseS = median([]float64{baseS, mustRun(t, c.workload, runOpts{}).RunS, mustRun(t, c.workload, runOpts{}).RunS})
				spunS = median([]float64{spunS, mustRun(t, c.workload, c.o).RunS, mustRun(t, c.workload, c.o).RunS})
			}
			rise := spunS/baseS - 1
			t.Logf("run_s %.3f s -> %.3f s (%+.1f%%, bound %.0f%%)", baseS, spunS, 100*rise, 100*b)
			if c.raises && rise <= b {
				t.Errorf("run_s rose %.1f%%, not past the %.0f%% bound", 100*rise, 100*b)
			}
			if !c.raises {
				if rise > b/2 {
					t.Errorf("run_s rose %.1f%%; the spin should stay well within the %.0f%% bound", 100*rise, 100*b)
				}
				return
			}
			tb := cachedRun(t, c.workload, true)
			o := c.o
			o.traced = true
			ts := mustRun(t, c.workload, o)
			added := ts.RunS - tb.RunS
			moved := ts.Layers[c.layer] - tb.Layers[c.layer]
			calls := ts.Layers["workload.next_calls"]
			if c.layer == "match.grants_s" {
				calls = ts.Layers["match.grants_calls"]
			}
			spinS := calls * spinPerCall.Seconds()
			t.Logf("traced run_s %+.3f s, %s %+.3f s, spin total %.3f s", added, c.layer, moved, spinS)
			// The layer's own time must grow by the whole spin, and be where
			// most of the traced run_s rise shows (the rest is host noise).
			if moved < 0.95*spinS || moved < 0.5*added {
				t.Errorf("%s grew %.3f s of the %.3f s spun; traced run_s grew %.3f s", c.layer, moved, spinS, added)
			}
		})
	}
}
