package fabric

import (
	"math/rand"
	"strings"
	"testing"

	"negotiator/internal/flows"
	"negotiator/internal/queue"
	"negotiator/internal/sim"
	"negotiator/internal/topo"
)

// idlePlane moves nothing: rounds only merge, age and release pages.
type idlePlane struct{}

func (idlePlane) Name() string           { return "idle" }
func (idlePlane) RoundLen() sim.Duration { return 100 }
func (idlePlane) Round()                 {}

// TestClassModel drives random operations through the class choke points
// of four nodes on a two-shard core with priority queues, lanes and relay
// on: pushes (grouped and zero-byte ones included), every take flavour on
// both VOQ classes, relay pushes and ready-time drains, losses recorded
// and requeued through each class, and idle rounds that age empty pages
// past pageReleaseAge. After every operation each class's Total, Occ and
// per-destination bytes must match a map-based reference, and the core's
// occupancy and conservation checks must pass.
func TestClassModel(t *testing.T) {
	n := queue.PageSize + 8 // two pages, the second partial
	top, err := topo.NewParallel(n, 2)
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(Config{Topology: top, Workers: 2, PriorityQueues: true, Lanes: true, Relay: true})
	if err != nil {
		t.Fatal(err)
	}
	c.Bind(idlePlane{}, nil)
	nodes := []int{0, 1, n/2 + 1, n - 1} // both shards
	dsts := []int{0, 1, queue.PageSize - 1, queue.PageSize, n - 1}
	// One long flow and three groups of mice-to-elephant members, every
	// one far larger than what the run queues: losses advance a flow's
	// sent cursor, which must stay inside its total.
	fl := []*flows.Flow{
		{ID: 1, Size: 1 << 30},
		{ID: 2, Size: 700, Count: 1 << 22},
		{ID: 3, Size: 3000, Count: 1 << 20},
		{ID: 4, Size: 100_000, Count: 1 << 14},
	}

	type key struct{ node, class, dst int }
	voq := map[key]int64{}             // Direct (class 0) and Lanes (class 1)
	relay := map[key][]queue.Segment{} // per (node, dst) relay FIFO
	classes := func(nd *Node) [2]*QueueClass { return [2]*QueueClass{&nd.Direct, &nd.Lanes} }
	relayBytes := func(k key) (b int64) {
		for _, s := range relay[k] {
			b += s.Bytes
		}
		return b
	}
	// drainModel removes up to max bytes from the front of a relay FIFO
	// while the front has arrived by now — FIFO.TakeReady's rule.
	drainModel := func(k key, max int64, now sim.Time) (taken int64) {
		segs := relay[k]
		for len(segs) > 0 && taken < max && segs[0].Enqueued <= now {
			m := min(segs[0].Bytes, max-taken)
			taken += m
			if segs[0].Bytes -= m; segs[0].Bytes == 0 {
				segs = segs[1:]
			}
		}
		relay[k] = segs
		return taken
	}

	check := func(op int, what string) {
		t.Helper()
		for _, i := range nodes {
			nd := c.Nodes[i]
			for ci, cls := range classes(nd) {
				var total int64
				for _, d := range dsts {
					want := voq[key{i, ci, d}]
					if got := cls.Bytes(d); got != want {
						t.Fatalf("op %d (%s): node %d %s[%d] holds %d, model %d", op, what, i, className[ci], d, got, want)
					}
					if cls.Slab.Materialized() && cls.Occ.Has(d) != (want > 0) {
						t.Fatalf("op %d (%s): node %d %s occupancy[%d] = %v, model %d", op, what, i, className[ci], d, cls.Occ.Has(d), want)
					}
					total += want
				}
				if cls.Total != total {
					t.Fatalf("op %d (%s): node %d %s Total %d, model %d", op, what, i, className[ci], cls.Total, total)
				}
			}
			var total int64
			for _, d := range dsts {
				want := relayBytes(key{i, 2, d})
				if got := nd.Relay.Bytes(d); got != want {
					t.Fatalf("op %d (%s): node %d relay[%d] holds %d, model %d", op, what, i, d, got, want)
				}
				if nd.Relay.Slab.Materialized() && nd.Relay.Occ.Has(d) != (want > 0) {
					t.Fatalf("op %d (%s): node %d relay occupancy[%d] = %v, model %d", op, what, i, d, nd.Relay.Occ.Has(d), want)
				}
				total += want
			}
			if nd.Relay.Total != total {
				t.Fatalf("op %d (%s): node %d relay Total %d, model %d", op, what, i, nd.Relay.Total, total)
			}
		}
		c.CheckOccupancy()
		c.CheckConservation()
	}

	rng := rand.New(rand.NewSource(21))
	var released, requeued int
	for op := 0; op < 3000; op++ {
		i := nodes[rng.Intn(len(nodes))]
		nd, sh := c.Nodes[i], c.Shards[c.ShardOf[i]]
		d := dsts[rng.Intn(len(dsts))]
		f := fl[rng.Intn(len(fl))]
		now := c.Now()
		var what string
		switch r := rng.Intn(12); {
		case r < 3:
			what = "push"
			ci := rng.Intn(2)
			var b int64
			if rng.Intn(8) > 0 {
				b = 1 + rng.Int63n(6000)
			}
			off := rng.Int63n(f.Total() - b + 1)
			classes(nd)[ci].Push(d, f, b, off, now)
			voq[key{i, ci, d}] += b
			c.Ledger.Injected += b
		case r < 6:
			ci, max := rng.Intn(2), 1+rng.Int63n(6000)
			cls := classes(nd)[ci]
			var emitted, taken int64
			emit := func(_ *flows.Flow, m int64) { emitted += m }
			switch rng.Intn(3) {
			case 0:
				what, taken = "take", cls.Take(d, max, emit)
			case 1:
				what, taken = "take-lowest", cls.TakeLowest(d, max, emit)
			case 2:
				what = "take-head-cell"
				_, taken = cls.TakeHeadCell(d, max, emit)
			}
			k := key{i, ci, d}
			if taken != emitted || taken < 0 || taken > max || taken > voq[k] {
				t.Fatalf("op %d: %s took %d (emitted %d) of %d queued, max %d", op, what, taken, emitted, voq[k], max)
			}
			voq[k] -= taken
			c.Ledger.Delivered += taken
		case r < 8:
			what = "relay-push"
			var b int64
			if rng.Intn(8) > 0 {
				b = 1 + rng.Int63n(4000)
			}
			s := queue.Segment{Flow: f, Bytes: b, Enqueued: now.Add(sim.Duration(rng.Intn(300)))}
			nd.Relay.Push(d, s)
			if b > 0 {
				k := key{i, 2, d}
				relay[k] = append(relay[k], s)
			}
			c.Ledger.Injected += b
		case r < 9:
			what = "relay-drain"
			max, at := 1+rng.Int63n(5000), now.Add(sim.Duration(rng.Intn(200)))
			want := drainModel(key{i, 2, d}, max, at)
			if got := nd.Relay.Drain(d, max, at, func(*flows.Flow, int64) {}); got != want {
				t.Fatalf("op %d: relay drain took %d, model %d", op, got, want)
			}
			c.Ledger.Delivered += want
		case r < 11:
			// Bytes destroyed in flight, booked as a loss in the class its
			// requeue returns them to; the next idle step requeues them.
			max := 1 + rng.Int63n(3000)
			switch rng.Intn(3) {
			case 0, 1:
				ci := rng.Intn(2)
				class, via := RequeueDirect, -1
				what = "direct-loss"
				if ci == 1 {
					class, via, what = RequeueLane, d, "lane-loss"
				}
				taken := classes(nd)[ci].Take(d, max, func(g *flows.Flow, m int64) {
					off := g.Sent()
					g.NoteSent(m)
					sh.RecordLossClass(nd, g, d, off, m, now, class, via)
				})
				voq[key{i, ci, d}] -= taken
			case 2:
				what = "relay-loss"
				drainModel(key{i, 2, d}, max, now)
				nd.Relay.Drain(d, max, now, func(g *flows.Flow, m int64) {
					sh.RecordLossClass(nd, g, d, 0, m, now, RequeueRelay, -1)
				})
			}
			c.mergeRound() // fold the loss into the ledger, as a round would
		default:
			what = "idle"
			pages := func() (k int) {
				for _, j := range nodes {
					nd := c.Nodes[j]
					k += nd.Direct.Slab.MaterializedPages() + nd.Lanes.Slab.MaterializedPages() + nd.Relay.Slab.MaterializedPages()
				}
				return k
			}
			before := pages()
			for k := rng.Intn(pageReleaseAge + 3); k >= 0; k-- {
				c.RunRound()
			}
			if pages() < before {
				released++
			}
			// Every outstanding loss is detected now: mirror the requeue
			// in node and record order before the core applies it.
			at := c.Now()
			for _, j := range nodes {
				for _, l := range c.Nodes[j].Losses {
					switch l.Class {
					case RequeueDirect:
						voq[key{j, 0, l.Dst}] += l.N
					case RequeueLane:
						voq[key{j, 1, int(l.Via)}] += l.N
					case RequeueRelay:
						k := key{j, 2, l.Dst}
						relay[k] = append(relay[k], queue.Segment{Flow: l.F, Bytes: l.N, Enqueued: at})
					}
					requeued++
				}
			}
			c.RequeueDetectedLosses(at, 0)
		}
		check(op, what)
	}
	t.Logf("%d idle steps released pages; %d losses requeued", released, requeued)
	if released == 0 || requeued == 0 {
		t.Fatalf("the run released %d pages and requeued %d losses; both must happen", released, requeued)
	}
}

// TestRelayAggregateDriftPanics: the relay class aggregate, which the
// selective relay reads for its headroom, is checked like every other
// class aggregate — a drifted Total must fail CheckOccupancy on any
// relay-configured core.
func TestRelayAggregateDriftPanics(t *testing.T) {
	c := failCore(t)
	nd := c.Nodes[1]
	f := &flows.Flow{ID: 1, Src: 3, Dst: 2, Size: 1000}
	nd.Relay.Push(2, queue.Segment{Flow: f, Bytes: 600, Enqueued: 0})
	c.CheckOccupancy()

	nd.Relay.Total += 32 // drift the aggregate; every queue still agrees
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("CheckOccupancy accepted a drifted relay aggregate")
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, "relay aggregate 632, queues hold 600") {
			t.Fatalf("panic %q does not name the drifted relay aggregate", r)
		}
	}()
	c.CheckOccupancy()
}
