package queue

import (
	"fmt"
	"math/rand"
	"testing"

	"negotiator/internal/flows"
	"negotiator/internal/sim"
)

// TestFIFOFootprint: a FIFO's front segment lives in its header and a
// drained FIFO rewinds, so a queue that never holds more than one segment
// never allocates a segment array, and one that fills to k segments and
// drains, cycle after cycle, keeps an array of about k instead of sliding
// its head toward the compaction threshold.
func TestFIFOFootprint(t *testing.T) {
	f := newFlow(1, 1<<40)
	drop := func(*flows.Flow, int64) {}
	var one FIFO
	for i := 0; i < 1000; i++ {
		one.Push(Segment{Flow: f, Bytes: 10})
		one.Take(10, drop)
	}
	if c := cap(one.segs); c != 0 {
		t.Errorf("single-segment FIFO grew a segment array: cap %d after 1000 push/take cycles", c)
	}
	const k = 3
	var pool SegPool
	for _, pooled := range []bool{false, true} {
		var q FIFO
		for i := 0; i < 1000; i++ {
			for j := 0; j < k; j++ {
				if pooled {
					q.PushPool(&pool, Segment{Flow: f, Bytes: 10})
				} else {
					q.Push(Segment{Flow: f, Bytes: 10})
				}
			}
			// Drain in uneven bites so takes end inside and across
			// segments.
			for !q.Empty() {
				q.Take(7, drop)
			}
		}
		if c := cap(q.segs); c > k+1 {
			t.Errorf("pooled=%v: FIFO filled to %d segments per cycle holds cap %d, want <= %d", pooled, k, c, k+1)
		}
	}
}

// run is one emitted (flow, byte count) pair.
type run struct {
	f *flows.Flow
	n int64
}

func recorder(dst *[]run) func(*flows.Flow, int64) {
	return func(f *flows.Flow, n int64) { *dst = append(*dst, run{f, n}) }
}

// modelFIFO is the reference a FIFO must match: a plain slice of the
// queued segments, front first.
type modelFIFO struct{ segs []Segment }

func (m *modelFIFO) push(s Segment) {
	if s.Bytes > 0 {
		m.segs = append(m.segs, s)
	}
}

func (m *modelFIFO) bytes() int64 {
	var b int64
	for _, s := range m.segs {
		b += s.Bytes
	}
	return b
}

// take removes up to max bytes from the front while keep accepts the
// front segment, appending the emitted runs to out.
func (m *modelFIFO) take(max int64, keep func(Segment) bool, out *[]run) int64 {
	var taken int64
	for taken < max && len(m.segs) > 0 && keep(m.segs[0]) {
		s := &m.segs[0]
		n := min(s.Bytes, max-taken)
		s.Bytes -= n
		taken += n
		*out = append(*out, run{s.Flow, n})
		if s.Bytes == 0 {
			m.segs = m.segs[1:]
		}
	}
	return taken
}

func always(Segment) bool { return true }

// cellOf keeps the segments bound for the front segment's destination.
func (m *modelFIFO) cellOf() (int, func(Segment) bool) {
	if len(m.segs) == 0 {
		return -1, always
	}
	dst := m.segs[0].Flow.Dst
	return dst, func(s Segment) bool { return s.Flow.Dst == dst }
}

// checkFIFO compares every observable of q against m.
func checkFIFO(q *FIFO, m *modelFIFO, now sim.Time) error {
	if q.Bytes() != m.bytes() || q.Empty() != (len(m.segs) == 0) || q.Len() != len(m.segs) {
		return fmt.Errorf("bytes/empty/len %d/%v/%d, model %d/%v/%d",
			q.Bytes(), q.Empty(), q.Len(), m.bytes(), len(m.segs) == 0, len(m.segs))
	}
	ready := len(m.segs) > 0 && m.segs[0].Enqueued <= now
	if q.HeadReady(now) != ready {
		return fmt.Errorf("HeadReady(%d) = %v, model %v", now, q.HeadReady(now), ready)
	}
	if len(m.segs) > 0 && *q.Head() != m.segs[0] {
		return fmt.Errorf("Head %+v, model %+v", *q.Head(), m.segs[0])
	}
	var got []Segment
	q.ForEachSegment(func(s Segment) { got = append(got, s) })
	if len(got) != len(m.segs) {
		return fmt.Errorf("ForEachSegment yields %d segments, model %d", len(got), len(m.segs))
	}
	for i := range got {
		if got[i] != m.segs[i] {
			return fmt.Errorf("segment %d = %+v, model %+v", i, got[i], m.segs[i])
		}
	}
	return nil
}

func sameRuns(got, want []run) error {
	if len(got) != len(want) {
		return fmt.Errorf("emitted %d runs %v, model %d %v", len(got), got, len(want), want)
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("run %d = %v, model %v", i, got[i], want[i])
		}
	}
	return nil
}

// modelFlows returns a small flow set: singles and groups spread over
// three destinations, so cells pack runs of one destination and PIAS
// splits land on member boundaries.
func modelFlows() []*flows.Flow {
	fs := make([]*flows.Flow, 9)
	for i := range fs {
		fs[i] = &flows.Flow{ID: int64(i), Dst: i % 3, Size: 1 << 20}
		if i%4 == 3 {
			fs[i].Size, fs[i].Count = 700+int64(i)*300, 5
		}
	}
	return fs
}

// TestFIFOModel drives seeded op sequences through a FIFO and a plain
// segment-slice model: pushes (plain and pooled), Take, TakeReady and
// TakeCell must emit the same (flow, n) runs, and every observable must
// agree after each op. Mid-sequence, after a take leaves the front
// segment partly consumed, the queue is copied through ForEachSegment
// into a fresh FIFO, and the copy must then track the model too.
func TestFIFOModel(t *testing.T) {
	fs := modelFlows()
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var pool SegPool
		qs := []*FIFO{new(FIFO)}
		var m modelFIFO
		var clock sim.Time
		for op := 0; op < 3000; op++ {
			clock += sim.Time(rng.Intn(50))
			now := clock - 100 + sim.Time(rng.Intn(200))
			fail := func(err error) {
				t.Helper()
				if err != nil {
					t.Fatalf("seed %d op %d: %v", seed, op, err)
				}
			}
			switch c := rng.Intn(10); {
			case c < 4:
				s := Segment{Flow: fs[rng.Intn(len(fs))], Bytes: int64(rng.Intn(3000)), Enqueued: clock}
				for _, q := range qs {
					if c%2 == 0 {
						q.Push(s)
					} else {
						q.PushPool(&pool, s)
					}
				}
				m.push(s)
			case c < 9:
				max := int64(1 + rng.Intn(4000))
				var want []run
				keep := always
				wantDst := -1
				switch c {
				case 6:
					keep = func(s Segment) bool { return s.Enqueued <= now }
				case 7, 8:
					wantDst, keep = m.cellOf()
				}
				wantN := m.take(max, keep, &want)
				for i, q := range qs {
					var got []run
					var n int64
					switch c {
					case 6:
						n = q.TakeReady(max, now, recorder(&got))
					case 7, 8:
						var dst int
						dst, n = q.TakeCell(max, recorder(&got))
						if dst != wantDst {
							fail(fmt.Errorf("queue %d: TakeCell dst %d, want %d", i, dst, wantDst))
						}
					default:
						n = q.Take(max, recorder(&got))
					}
					if n != wantN {
						fail(fmt.Errorf("queue %d: took %d, model %d", i, n, wantN))
					}
					fail(sameRuns(got, want))
				}
			default:
				// Leave the front partly consumed, then round-trip.
				if len(m.segs) > 0 && m.segs[0].Bytes > 1 {
					half := m.segs[0].Bytes / 2
					var want []run
					m.take(half, always, &want)
					for _, q := range qs {
						var got []run
						q.Take(half, recorder(&got))
						fail(sameRuns(got, want))
					}
				}
				cp := new(FIFO)
				qs[len(qs)-1].ForEachSegment(func(s Segment) { cp.PushPool(&pool, s) })
				if len(qs) == 4 {
					qs = qs[1:]
				}
				qs = append(qs, cp)
			}
			for i, q := range qs {
				if err := checkFIFO(q, &m, now); err != nil {
					fail(fmt.Errorf("queue %d: %v", i, err))
				}
			}
		}
	}
}

// modelDest is the reference a DestQueue must match: one modelFIFO per
// level in use.
type modelDest struct{ levels []modelFIFO }

// push splits n bytes of f, first byte at offset off, at member
// boundaries and at the PIAS thresholds, one segment per piece.
func (m *modelDest) push(f *flows.Flow, n, off int64, now sim.Time) {
	if len(m.levels) == 1 {
		m.levels[0].push(Segment{Flow: f, Bytes: n, Enqueued: now})
		return
	}
	for n > 0 {
		mOff, memberLeft := off, n
		if f.Count > 1 {
			mOff = off % f.Size
			memberLeft = f.Size - mOff
		}
		level, levelLeft := 2, n
		switch {
		case mOff < DefaultPrio0Bytes:
			level, levelLeft = 0, DefaultPrio0Bytes-mOff
		case mOff < DefaultPrio1Bytes:
			level, levelLeft = 1, DefaultPrio1Bytes-mOff
		}
		piece := min(n, memberLeft, levelLeft)
		m.levels[level].push(Segment{Flow: f, Bytes: piece, Enqueued: now})
		off += piece
		n -= piece
	}
}

func (m *modelDest) bytes() int64 {
	var b int64
	for i := range m.levels {
		b += m.levels[i].bytes()
	}
	return b
}

// first returns the first non-empty level, or nil.
func (m *modelDest) first() *modelFIFO {
	for i := range m.levels {
		if len(m.levels[i].segs) > 0 {
			return &m.levels[i]
		}
	}
	return nil
}

// checkDest compares every observable of d against m.
func checkDest(d *DestQueue, m *modelDest, now sim.Time) error {
	b := m.bytes()
	if d.Bytes() != b || d.Recount() != b || d.Empty() != (b == 0) {
		return fmt.Errorf("bytes/recount/empty %d/%d/%v, model %d", d.Bytes(), d.Recount(), d.Empty(), b)
	}
	wantDst := -1
	if f := m.first(); f != nil {
		wantDst = f.segs[0].Flow.Dst
	}
	if d.HeadDst() != wantDst {
		return fmt.Errorf("HeadDst %d, model %d", d.HeadDst(), wantDst)
	}
	var wantHoL [NumPriorities]sim.Duration
	for p := range m.levels {
		if segs := m.levels[p].segs; len(segs) > 0 {
			wantHoL[p] = now.Sub(segs[0].Enqueued)
		}
	}
	if d.HoLWait(now) != wantHoL {
		return fmt.Errorf("HoLWait %v, model %v", d.HoLWait(now), wantHoL)
	}
	if got, want := d.LowestPriorityBytes(), m.levels[len(m.levels)-1].bytes(); got != want {
		return fmt.Errorf("LowestPriorityBytes %d, model %d", got, want)
	}
	got := make([][]Segment, NumPriorities)
	d.ForEachSegment(func(p int, s Segment) { got[p] = append(got[p], s) })
	for p := range got {
		var want []Segment
		if p < len(m.levels) {
			want = m.levels[p].segs
		}
		if len(got[p]) != len(want) {
			return fmt.Errorf("level %d yields %d segments, model %d", p, len(got[p]), len(want))
		}
		for i := range want {
			if got[p][i] != want[i] {
				return fmt.Errorf("level %d segment %d = %+v, model %+v", p, i, got[p][i], want[i])
			}
		}
		if p < len(m.levels) {
			if err := checkFIFO(&d.prios[p], &m.levels[p], now); err != nil {
				return fmt.Errorf("level %d: %v", p, err)
			}
		}
	}
	return nil
}

// TestDestQueueModel is TestFIFOModel for DestQueue, with priority queues
// on and off: PIAS pushes (single flows and groups, at random offsets),
// Take, TakeHeadCell and TakeLowestOnly against one model FIFO per level,
// with mid-sequence ForEachSegment -> RestoreSegment round trips while
// the serving level's front is partly consumed.
func TestDestQueueModel(t *testing.T) {
	fs := modelFlows()
	for _, priority := range []bool{false, true} {
		for seed := int64(1); seed <= 8; seed++ {
			rng := rand.New(rand.NewSource(seed))
			var pool SegPool
			qs := []*DestQueue{NewDestQueue(priority)}
			m := modelDest{levels: make([]modelFIFO, numLevels(priority))}
			var clock sim.Time
			for op := 0; op < 3000; op++ {
				clock += sim.Time(rng.Intn(50))
				now := clock + sim.Time(rng.Intn(100))
				fail := func(err error) {
					t.Helper()
					if err != nil {
						t.Fatalf("priority=%v seed %d op %d: %v", priority, seed, op, err)
					}
				}
				switch c := rng.Intn(10); {
				case c < 4:
					f := fs[rng.Intn(len(fs))]
					// Mostly a flow's head (mice-class bytes), sometimes
					// deep inside it.
					off := int64(rng.Intn(12 << 10))
					if rng.Intn(4) == 0 {
						off = rng.Int63n(f.Total())
					}
					off = min(off, f.Total()-1)
					n := min(int64(1+rng.Intn(4000)), f.Total()-off)
					for _, d := range qs {
						d.PushBytesPool(&pool, f, n, off, clock)
					}
					m.push(f, n, off, clock)
				case c < 9:
					max := int64(1 + rng.Intn(4000))
					var want []run
					var wantN int64
					wantDst := -1
					switch c {
					case 6, 7:
						if l := m.first(); l != nil {
							var keep func(Segment) bool
							wantDst, keep = l.cellOf()
							wantN = l.take(max, keep, &want)
						}
					case 8:
						wantN = m.levels[len(m.levels)-1].take(max, always, &want)
					default:
						for p := range m.levels {
							wantN += m.levels[p].take(max-wantN, always, &want)
						}
					}
					for i, d := range qs {
						var got []run
						var n int64
						switch c {
						case 6, 7:
							var dst int
							dst, n = d.TakeHeadCell(max, recorder(&got))
							if dst != wantDst {
								fail(fmt.Errorf("queue %d: TakeHeadCell dst %d, model %d", i, dst, wantDst))
							}
						case 8:
							n = d.TakeLowestOnly(max, recorder(&got))
						default:
							n = d.Take(max, recorder(&got))
						}
						if n != wantN {
							fail(fmt.Errorf("queue %d: took %d, model %d", i, n, wantN))
						}
						fail(sameRuns(got, want))
					}
				default:
					if l := m.first(); l != nil && l.segs[0].Bytes > 1 {
						half := l.segs[0].Bytes / 2
						var want []run
						l.take(half, always, &want)
						for _, d := range qs {
							var got []run
							d.Take(half, recorder(&got))
							fail(sameRuns(got, want))
						}
					}
					cp := NewDestQueue(priority)
					qs[len(qs)-1].ForEachSegment(func(p int, s Segment) {
						fail(cp.RestoreSegment(&pool, p, s))
					})
					if len(qs) == 4 {
						qs = qs[1:]
					}
					qs = append(qs, cp)
				}
				for i, d := range qs {
					if err := checkDest(d, &m, now); err != nil {
						fail(fmt.Errorf("queue %d: %v", i, err))
					}
				}
			}
		}
	}
}
