package queue

import (
	"fmt"
	"unsafe"
)

// Paged slabs decouple a node's queue memory from topology width. A slab
// laid out as one N-wide array would make a single touched node at 65,536
// ToRs pay for 65,536 destinations' worth of queue headers when spray
// traffic occupies a few hundred. A paged slab keeps only a page TABLE of
// pointers (N/PageSize words) and materializes fixed-width pages of
// PageSize contiguous destinations on first touch, so per-node memory
// follows the destinations traffic actually reaches while sweeps inside a
// page still walk consecutive cache lines. A page is one allocation: its
// queues are an inline array, and each queue's priority levels and front
// segments are inline in it. One generic Slab serves both element types:
// DestSlab (per-destination VOQs with PIAS levels) and FIFOSlab (plain
// relay FIFOs).
//
// Pages carry two small bookkeeping fields the fabric's deferred release
// relies on:
//
//   - bytes: the page-aggregate byte counter, maintained by the owner
//     through Add at the same choke points that maintain the per-queue
//     aggregates. A page whose counter hits zero is a release candidate.
//   - ver: a touch version bumped by every materialization and every
//     positive Add (push). A release candidate is recorded with its
//     version; the releaser honours it only if the version is unchanged,
//     i.e. the page has stayed empty and untouched since the candidate
//     was recorded. Churning pages (emptied and refilled every round)
//     are never released, so steady state stays allocation-free.
//
// Release returns pages to a PagePool with their FIFO segment arrays
// attached (cleared), so a page re-materialized from the pool pushes
// without allocating — recycling is invisible to the zero-alloc
// guarantees as well as to the simulation (a recycled page is
// indistinguishable from a fresh one).
const (
	// PageShift sets the page width: PageSize = 128 destinations keeps a
	// destination page at ~26 KB (128 queues of 208 bytes, three inline
	// priority levels whether PIAS is on or off) and a relay page at
	// 8 KB (128 FIFOs of 64 bytes), and means the sparse tiers'
	// contiguous active sets (e.g. 256 destinations) occupy two pages.
	PageShift = 7
	PageSize  = 1 << PageShift
	pageMask  = PageSize - 1
)

// Queue is the element constraint of a paged slab: a per-destination
// VOQ with its priority levels, or a plain FIFO.
type Queue interface {
	DestQueue | FIFO
}

// Page layout. A page is one heap object of more than 512 bytes that
// holds pointers, and since Go 1.22 the allocator puts an 8-byte type
// header (the malloc header) in front of every such object. Both page
// types fall in size classes that are multiples of 64 bytes, so the
// object the header opens starts on a cache line. The page's counters
// and a pad fill out the rest of that first line, so qs starts on the
// next one: every relay FIFO header is exactly one cache line, and a
// destination page's first queue starts on one. Without the pad qs would
// start 24 bytes into a line and every FIFO header would straddle two.
// TestPageQueuesCacheAligned checks the layout on the toolchain in use.
const (
	cacheLineBytes    = 64
	mallocHeaderBytes = 8
)

// pageCounters is a page's bookkeeping prefix: the byte counter and the
// touch version (see the paged-slab comment above).
type pageCounters struct {
	bytes int64
	ver   uint32
}

// page is one materialized chunk of PageSize queues, laid out so that qs
// starts on a cache line (see the page-layout comment above).
type page[Q Queue] struct {
	pageCounters
	_  [cacheLineBytes - mallocHeaderBytes - unsafe.Sizeof(pageCounters{})]byte
	qs [PageSize]Q
}

// newPage allocates a page whose destination queues use levels priority
// levels (FIFO pages ignore it).
func newPage[Q Queue](levels int) *page[Q] {
	pg := new(page[Q])
	if qs, ok := any(&pg.qs).(*[PageSize]DestQueue); ok {
		for j := range qs {
			qs[j].levels = levels
		}
	}
	return pg
}

// recycle clears a released page for reuse, dropping flow references
// but keeping every FIFO's segment array and every queue's level count.
func (pg *page[Q]) recycle() {
	switch qs := any(&pg.qs).(type) {
	case *[PageSize]DestQueue:
		for i := range qs {
			for l := range qs[i].prios {
				qs[i].prios[l].recycle()
			}
			qs[i].bytes = 0
		}
	case *[PageSize]FIFO:
		for i := range qs {
			qs[i].recycle()
		}
	}
	pg.bytes, pg.ver = 0, 0
}

// recycle clears a FIFO for reuse, dropping flow references but KEEPING
// the backing segment array (a recycled page must push without
// allocating). The whole capacity is cleared: compaction can leave stale
// segment copies beyond len.
func (q *FIFO) recycle() {
	segs := q.segs[:cap(q.segs)]
	clear(segs)
	*q = FIFO{segs: segs[:0]}
}

// PagePool recycles released pages of one element type, keyed by the
// queues' level count (destination pages with and without PIAS levels
// never mix). Like SegPool it is unsynchronised: pages are taken at
// materialization (pushes, which run only in serial phases) and returned
// by the core's serial merge.
type PagePool[Q Queue] struct {
	free [NumPriorities + 1][]*page[Q]
}

// maxFreePages caps each freelist; beyond it released pages go to the GC.
const maxFreePages = 4096

func (p *PagePool[Q]) get(levels int) *page[Q] {
	if free := p.free[levels]; len(free) > 0 {
		pg := free[len(free)-1]
		free[len(free)-1] = nil
		p.free[levels] = free[:len(free)-1]
		return pg
	}
	return newPage[Q](levels)
}

func (p *PagePool[Q]) put(pg *page[Q], levels int) {
	pg.recycle()
	if len(p.free[levels]) < maxFreePages {
		p.free[levels] = append(p.free[levels], pg)
	}
}

// Slab is a paged queue set: a page table over n destinations whose
// pages materialize on first push. The zero value is an unmaterialized
// slab (the lazy-node idiom: no memory at all until the class is first
// pushed into).
type Slab[Q Queue] struct {
	pages  []*page[Q]
	n      int32
	levels int32 // priority levels of every DestQueue; 0 for FIFO slabs
}

// DestSlab is the paged per-destination VOQ set.
type DestSlab = Slab[DestQueue]

// FIFOSlab is the paged relay FIFO set.
type FIFOSlab = Slab[FIFO]

// NewDestSlab returns a paged VOQ slab over n destinations holding only
// the page table — no queue memory until pages materialize; priority
// selects the PIAS multi-level queues.
func NewDestSlab(n int, priority bool) DestSlab {
	return DestSlab{pages: make([]*page[DestQueue], numPages(n)), n: int32(n), levels: int32(numLevels(priority))}
}

// NewFIFOSlab returns a paged FIFO slab over n destinations holding only
// the page table.
func NewFIFOSlab(n int) FIFOSlab {
	return FIFOSlab{pages: make([]*page[FIFO], numPages(n)), n: int32(n)}
}

// numPages returns the page-table length covering n destinations.
func numPages(n int) int { return (n + PageSize - 1) >> PageShift }

// PageOf returns the page index covering dst.
func PageOf(dst int) int { return dst >> PageShift }

// Materialized reports whether the slab itself exists (the class has been
// pushed into at least once).
func (s *Slab[Q]) Materialized() bool { return s.pages != nil }

// NumPages returns the page-table length.
func (s *Slab[Q]) NumPages() int { return len(s.pages) }

// Probe returns the queue for dst, or nil when its page (or the slab) has
// not materialized — the nil-page-safe read path. An absent page reads as
// a set of empty queues.
func (s *Slab[Q]) Probe(dst int) *Q {
	i := dst >> PageShift
	if i >= len(s.pages) {
		return nil
	}
	pg := s.pages[i]
	if pg == nil {
		return nil
	}
	return &pg.qs[dst&pageMask]
}

// Queue returns the queue for dst, materializing its page from the pool
// on first touch (and bumping the page's touch version). Mutation path
// only: pushes run in serial phases, so materialization never races with
// the parallel phases' Probe reads.
func (s *Slab[Q]) Queue(dst int, pool *PagePool[Q]) *Q {
	i := dst >> PageShift
	pg := s.pages[i]
	if pg == nil {
		pg = pool.get(int(s.levels))
		s.pages[i] = pg
	}
	pg.ver++
	return &pg.qs[dst&pageMask]
}

// Add adjusts dst's page byte counter by delta (the owner calls it at the
// same choke points that maintain the per-queue aggregates) and returns
// the page's new total with its touch version — a zero total is a release
// candidate, honoured later only if the version is still current.
func (s *Slab[Q]) Add(dst int, delta int64) (pageBytes int64, ver uint32) {
	pg := s.pages[dst>>PageShift]
	pg.bytes += delta
	if pg.bytes < 0 {
		panic(fmt.Sprintf("queue: page %d byte counter negative (%d)", dst>>PageShift, pg.bytes))
	}
	return pg.bytes, pg.ver
}

// ReleaseIfEmpty returns the page to the pool if it still holds zero
// bytes AND its touch version matches ver (no push since the candidate
// was recorded). It reports whether the page was released.
func (s *Slab[Q]) ReleaseIfEmpty(page int, ver uint32, pool *PagePool[Q]) bool {
	pg := s.pages[page]
	if pg == nil || pg.bytes != 0 || pg.ver != ver {
		return false
	}
	s.pages[page] = nil
	pool.put(pg, int(s.levels))
	return true
}

// ForEachPage invokes fn for every materialized page with the page index,
// the first destination it covers, its queues (trimmed to the slab width
// on the final page) and its byte counter — the contiguous-iteration
// surface for page-wise sweeps and invariant checks.
func (s *Slab[Q]) ForEachPage(fn func(page, base int, qs []Q, bytes int64)) {
	for i, pg := range s.pages {
		if pg == nil {
			continue
		}
		base := i << PageShift
		qs := pg.qs[:]
		if rem := int(s.n) - base; rem < PageSize {
			qs = qs[:rem]
		}
		fn(i, base, qs, pg.bytes)
	}
}

// PageMaterialized reports whether the page covering dst exists.
func (s *Slab[Q]) PageMaterialized(dst int) bool {
	i := dst >> PageShift
	return i < len(s.pages) && s.pages[i] != nil
}

// MaterializedPages counts materialized pages.
func (s *Slab[Q]) MaterializedPages() int {
	var k int
	for _, pg := range s.pages {
		if pg != nil {
			k++
		}
	}
	return k
}

// MaterializeAll eagerly materializes every page, reproducing the
// one-array footprint (lazy-vs-eager equivalence tests).
func (s *Slab[Q]) MaterializeAll(pool *PagePool[Q]) {
	for i := range s.pages {
		if s.pages[i] == nil {
			s.pages[i] = pool.get(int(s.levels))
		}
	}
}
