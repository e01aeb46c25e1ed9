package queue

import (
	"math/rand"
	"testing"
	"unsafe"

	"negotiator/internal/flows"
)

// destBytes reads dst's queued bytes through the nil-page-safe Probe.
func destBytes(s *DestSlab, dst int) int64 {
	if q := s.Probe(dst); q != nil {
		return q.Bytes()
	}
	return 0
}

// fifoBytes is destBytes for a FIFO slab.
func fifoBytes(s *FIFOSlab, dst int) int64 {
	if q := s.Probe(dst); q != nil {
		return q.Bytes()
	}
	return 0
}

// TestDestSlabPageBoundaries: pushes and takes straddling page boundaries
// behave exactly like adjacent monolithic-slab entries — neighbouring
// destinations on different pages stay independent, HeadDst carries the
// true destination across the boundary, and a trailing partial page trims
// to the slab width.
func TestDestSlabPageBoundaries(t *testing.T) {
	for _, priority := range []bool{false, true} {
		n := 2*PageSize + 37 // three pages, last one partial
		var pool PagePool[DestQueue]
		s := NewDestSlab(n, priority)
		if s.NumPages() != 3 {
			t.Fatalf("priority=%v NumPages = %d, want 3", priority, s.NumPages())
		}
		// Touch the four destinations hugging the first boundary plus the
		// slab's last destination.
		dsts := []int{PageSize - 1, PageSize, 2*PageSize - 1, 2 * PageSize, n - 1}
		for _, d := range dsts {
			f := &flows.Flow{ID: int64(d), Dst: d, Size: 1 << 30}
			s.Queue(d, &pool).PushBytes(f, int64(100+d), 0, 0)
			s.Add(d, int64(100+d))
		}
		if got := s.MaterializedPages(); got != 3 {
			t.Fatalf("priority=%v materialized %d pages, want 3", priority, got)
		}
		for _, d := range dsts {
			if got := destBytes(&s, d); got != int64(100+d) {
				t.Fatalf("priority=%v Bytes(%d) = %d, want %d", priority, d, got, 100+d)
			}
			if got := s.Probe(d).HeadDst(); got != d {
				t.Fatalf("priority=%v HeadDst(%d) = %d", priority, d, got)
			}
		}
		// Untouched neighbours of touched destinations read empty, on both
		// sides of each boundary.
		for _, d := range []int{PageSize - 2, PageSize + 1, n - 2} {
			if got := destBytes(&s, d); got != 0 {
				t.Fatalf("priority=%v untouched dst %d holds %d bytes", priority, d, got)
			}
			if q := s.Probe(d); q == nil || q.HeadDst() != -1 {
				t.Fatalf("priority=%v dst %d on a materialized page must probe empty", priority, d)
			}
		}
		// Page-wise iteration covers exactly the touched pages and trims
		// the last to the slab width.
		covered := 0
		s.ForEachPage(func(page, base int, qs []DestQueue, bytes int64) {
			covered += len(qs)
			if page == 2 && len(qs) != 37 {
				t.Fatalf("priority=%v final page len %d, want 37", priority, len(qs))
			}
			var sum int64
			for j := range qs {
				sum += qs[j].Bytes()
			}
			if sum != bytes {
				t.Fatalf("priority=%v page %d counter %d != queue sum %d", priority, page, bytes, sum)
			}
		})
		if covered != n {
			t.Fatalf("priority=%v ForEachPage covered %d of %d destinations", priority, covered, n)
		}
		// Draining one boundary destination leaves its cross-page
		// neighbour intact.
		d := PageSize
		taken := s.Probe(d).Take(1<<20, func(*flows.Flow, int64) {})
		if taken != int64(100+d) {
			t.Fatalf("priority=%v drained %d of %d", priority, taken, 100+d)
		}
		if pb, _ := s.Add(d, -taken); pb != int64(100+2*PageSize-1) {
			t.Fatalf("priority=%v page counter after drain = %d", priority, pb)
		}
		if got := destBytes(&s, PageSize-1); got != int64(100+PageSize-1) {
			t.Fatalf("priority=%v neighbour across boundary lost bytes: %d", priority, got)
		}
	}
}

// TestFIFOSlabPageBoundaries: the relay-slab variant of the boundary
// behaviour.
func TestFIFOSlabPageBoundaries(t *testing.T) {
	n := PageSize + 5
	var pool PagePool[FIFO]
	s := NewFIFOSlab(n)
	if s.NumPages() != 2 {
		t.Fatalf("NumPages = %d, want 2", s.NumPages())
	}
	f := &flows.Flow{ID: 1, Dst: 9, Size: 1 << 30}
	for _, d := range []int{PageSize - 1, PageSize, n - 1} {
		s.Queue(d, &pool).Push(Segment{Flow: f, Bytes: int64(10 + d)})
		s.Add(d, int64(10+d))
	}
	for _, d := range []int{PageSize - 1, PageSize, n - 1} {
		if got := fifoBytes(&s, d); got != int64(10+d) {
			t.Fatalf("Bytes(%d) = %d, want %d", d, got, 10+d)
		}
	}
	if s.Probe(PageSize-2) == nil || !s.Probe(PageSize-2).Empty() {
		t.Fatal("untouched dst on materialized page must probe empty")
	}
	covered := 0
	s.ForEachPage(func(page, base int, fs []FIFO, bytes int64) {
		covered += len(fs)
		if page == 1 && len(fs) != 5 {
			t.Fatalf("final page len %d, want 5", len(fs))
		}
	})
	if covered != n {
		t.Fatalf("ForEachPage covered %d of %d", covered, n)
	}
}

// TestUnmaterializedPageReadsEmpty: destinations whose page has never been
// touched — and whole unmaterialized slabs — read as empty through every
// accessor, so releasing a page is invisible to readers.
func TestUnmaterializedPageReadsEmpty(t *testing.T) {
	var bare DestSlab // zero value: unmaterialized slab
	if bare.Materialized() {
		t.Fatal("zero-value slab claims materialized")
	}
	if bare.Probe(12345) != nil || destBytes(&bare, 12345) != 0 || bare.PageMaterialized(12345) {
		t.Fatal("unmaterialized slab leaks state")
	}
	var pool PagePool[DestQueue]
	s := NewDestSlab(4*PageSize, true)
	s.Queue(0, &pool) // materialize page 0 only
	for _, d := range []int{PageSize, 2 * PageSize, 4*PageSize - 1} {
		if s.Probe(d) != nil || destBytes(&s, d) != 0 || s.PageMaterialized(d) {
			t.Fatalf("dst %d on absent page leaks state", d)
		}
	}
	var bareF FIFOSlab
	if bareF.Materialized() || bareF.Probe(7) != nil || fifoBytes(&bareF, 7) != 0 {
		t.Fatal("zero-value FIFO slab leaks state")
	}
}

// TestPagePoolRecycleAndReuse: a released page returns to the pool with
// cleared queues but intact segment capacity, so re-materializing and
// pushing through the pool allocates nothing.
func TestPagePoolRecycleAndReuse(t *testing.T) {
	var pool PagePool[DestQueue]
	var segs SegPool
	s := NewDestSlab(2*PageSize, true)
	f := &flows.Flow{ID: 1, Dst: 3, Size: 1 << 30}

	// Fill a page with enough segments to grow every FIFO's array, then
	// drain and release it.
	fill := func(dst int) (ver uint32) {
		for i := 0; i < 16; i++ {
			s.Queue(dst, &pool).PushBytesPool(&segs, f, 100, int64(i*100), 0)
			_, ver = s.Add(dst, 100)
		}
		return ver
	}
	drain := func(dst int) (pageBytes int64, ver uint32) {
		n := s.Probe(dst).Take(1<<20, func(*flows.Flow, int64) {})
		return s.Add(dst, -n)
	}
	fill(3)
	pb, ver := drain(3)
	if pb != 0 {
		t.Fatalf("page bytes %d after full drain", pb)
	}
	if !s.ReleaseIfEmpty(0, ver, &pool) {
		t.Fatal("empty untouched page refused release")
	}
	if s.PageMaterialized(3) {
		t.Fatal("released page still materialized")
	}

	// Re-materializing the same destinations must reuse the pooled page
	// and push into its retained segment arrays without allocating.
	allocs := testing.AllocsPerRun(10, func() {
		fill(3)
		pb, ver := drain(3)
		if pb != 0 {
			t.Fatal("refill did not drain clean")
		}
		if !s.ReleaseIfEmpty(0, ver, &pool) {
			t.Fatal("release refused on recycle round")
		}
	})
	if allocs != 0 {
		t.Errorf("recycle round allocated %.1f times, want 0", allocs)
	}

	// A recycled page is indistinguishable from fresh: every queue empty.
	s.Queue(3, &pool)
	for d := 0; d < PageSize; d++ {
		if destBytes(&s, d) != 0 {
			t.Fatalf("recycled page dst %d holds %d bytes", d, destBytes(&s, d))
		}
	}
}

// TestPageQueuesCacheAligned: a page's queues start on a 64-byte
// boundary, fresh from the allocator and recycled through the pool, and
// a FIFO header is exactly one cache line, so every relay FIFO's head
// reads touch a single line. The page's pad assumes the allocator puts an
// 8-byte header in front of a pointer-holding object over 512 bytes; this
// test is the check that the assumption holds on the toolchain in use.
// Without the pad the queues would start 24 bytes into a line.
func TestPageQueuesCacheAligned(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("the page pad assumes 8-byte pointers")
	}
	if got := unsafe.Sizeof(FIFO{}); got != cacheLineBytes {
		t.Errorf("FIFO header is %d bytes, want %d", got, cacheLineBytes)
	}
	checkPageAligned[FIFO](t, "relay", 0)
	checkPageAligned[DestQueue](t, "destination", NumPriorities)
}

// checkPageAligned draws a few pages from a fresh pool, returns them and
// draws them again, checking that each one's first queue starts on a
// cache line both times.
func checkPageAligned[Q Queue](t *testing.T, kind string, levels int) {
	t.Helper()
	var pool PagePool[Q]
	check := func(pg *page[Q], how string) {
		t.Helper()
		if off := uintptr(unsafe.Pointer(&pg.qs[0])) % cacheLineBytes; off != 0 {
			t.Errorf("%s %s page: queues start %d bytes into a cache line (page is %d bytes)",
				how, kind, off, unsafe.Sizeof(*pg))
		}
	}
	pages := make([]*page[Q], 4)
	for i := range pages {
		pages[i] = pool.get(levels)
		check(pages[i], "fresh")
	}
	for _, pg := range pages {
		pool.put(pg, levels)
	}
	for range pages {
		check(pool.get(levels), "recycled")
	}
}

// TestReleaseVersionHysteresis: a page touched after its empty transition
// was recorded (the churn case) must refuse release — only pages that
// stayed empty and untouched since the recorded version go back to the
// pool.
func TestReleaseVersionHysteresis(t *testing.T) {
	var pool PagePool[DestQueue]
	s := NewDestSlab(PageSize, false)
	f := &flows.Flow{ID: 1, Dst: 0, Size: 1 << 30}

	s.Queue(0, &pool).PushBytes(f, 50, 0, 0)
	s.Add(0, 50)
	n := s.Probe(0).Take(50, func(*flows.Flow, int64) {})
	pb, staleVer := s.Add(0, -n)
	if pb != 0 {
		t.Fatalf("page bytes %d", pb)
	}
	// The page is refilled before the deferred release fires.
	s.Queue(0, &pool).PushBytes(f, 70, 50, 0)
	s.Add(0, 70)
	if s.ReleaseIfEmpty(0, staleVer, &pool) {
		t.Fatal("released a page that was refilled after the candidate was recorded")
	}
	// Even once empty again, the stale version must not release it.
	n = s.Probe(0).Take(70, func(*flows.Flow, int64) {})
	_, freshVer := s.Add(0, -n)
	if s.ReleaseIfEmpty(0, staleVer, &pool) {
		t.Fatal("stale version released an empty page touched since")
	}
	if !s.ReleaseIfEmpty(0, freshVer, &pool) {
		t.Fatal("fresh version refused to release an empty untouched page")
	}
}

// TestPagedSlabTraceEquivalence replays one recorded op trace against the
// monolithic NewSlab and the paged DestSlab and demands byte-identical
// observable state after every op: per-destination bytes, head
// destinations, emitted (flow, n) sequences and weighted HoL ages.
func TestPagedSlabTraceEquivalence(t *testing.T) {
	for _, priority := range []bool{false, true} {
		const n = 3*PageSize + 11
		rng := rand.New(rand.NewSource(42))
		mono := NewSlab(n, priority)
		var pool PagePool[DestQueue]
		paged := NewDestSlab(n, priority)
		flowsByID := map[int64]*flows.Flow{}
		flowFor := func(id int64, dst int) *flows.Flow {
			fl, ok := flowsByID[id]
			if !ok {
				fl = &flows.Flow{ID: id, Dst: dst, Size: 1 << 30}
				flowsByID[id] = fl
			}
			return fl
		}
		type emitRec struct {
			id int64
			n  int64
		}
		for op := 0; op < 20000; op++ {
			// Concentrate on a sparse hot set plus uniform background so
			// page-boundary and cross-page cases both occur.
			var dst int
			if rng.Intn(4) > 0 {
				dst = (PageSize - 3) + rng.Intn(8) // straddles pages 0/1
			} else {
				dst = rng.Intn(n)
			}
			switch rng.Intn(3) {
			case 0: // push
				id := int64(rng.Intn(50))
				sz := int64(1 + rng.Intn(4000))
				fl := flowFor(id, dst)
				mono[dst].PushBytes(fl, sz, 0, 0)
				paged.Queue(dst, &pool).PushBytes(fl, sz, 0, 0)
				paged.Add(dst, sz)
			case 1: // take
				max := int64(1 + rng.Intn(3000))
				var em, ep []emitRec
				tm := mono[dst].Take(max, func(f *flows.Flow, n int64) { em = append(em, emitRec{f.ID, n}) })
				var tp int64
				if q := paged.Probe(dst); q != nil {
					tp = q.Take(max, func(f *flows.Flow, n int64) { ep = append(ep, emitRec{f.ID, n}) })
					paged.Add(dst, -tp)
				}
				if tm != tp || len(em) != len(ep) {
					t.Fatalf("priority=%v op %d: take(%d) mono %d paged %d", priority, op, dst, tm, tp)
				}
				for i := range em {
					if em[i] != ep[i] {
						t.Fatalf("priority=%v op %d: emit %d differs: %+v vs %+v", priority, op, i, em[i], ep[i])
					}
				}
			case 2: // observe
				var pb int64
				var hd = -1
				var hol float64
				if q := paged.Probe(dst); q != nil {
					pb, hd, hol = q.Bytes(), q.HeadDst(), q.WeightedHoL(0, 0.5)
				}
				if mb := mono[dst].Bytes(); mb != pb {
					t.Fatalf("priority=%v op %d: Bytes(%d) mono %d paged %d", priority, op, dst, mb, pb)
				}
				if mh := mono[dst].HeadDst(); mh != hd {
					t.Fatalf("priority=%v op %d: HeadDst(%d) mono %d paged %d", priority, op, dst, mh, hd)
				}
				if mw := mono[dst].WeightedHoL(0, 0.5); mw != hol {
					t.Fatalf("priority=%v op %d: WeightedHoL(%d) mono %v paged %v", priority, op, dst, mw, hol)
				}
			}
		}
		// Final sweep: every destination byte-identical.
		for d := 0; d < n; d++ {
			if mono[d].Bytes() != destBytes(&paged, d) {
				t.Fatalf("priority=%v final dst %d: mono %d paged %d", priority, d, mono[d].Bytes(), destBytes(&paged, d))
			}
		}
	}
}
