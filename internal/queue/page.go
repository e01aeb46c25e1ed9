package queue

import "fmt"

// Paged destination slabs decouple a node's queue memory from topology
// width. NewSlab lays a node's whole VOQ set out as one N-wide array —
// compact per node, but a single touched node at 65,536 ToRs would pay
// for 65,536 destinations' worth of queue headers when spray traffic
// occupies a few hundred. A paged slab keeps only a page TABLE of
// pointers (N/PageSize words) and materializes fixed-width pages of
// PageSize contiguous destinations on first touch, so per-node memory
// follows the destinations traffic actually reaches while sweeps inside
// a page still walk consecutive cache lines, exactly as the monolithic
// slab's did.
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
	// plain page at ~5 KB (one-priority) and means the sparse tiers'
	// contiguous active sets (e.g. 256 destinations) occupy two pages.
	PageShift = 7
	PageSize  = 1 << PageShift
	pageMask  = PageSize - 1
)

// numPages returns the page-table length covering n destinations.
func numPages(n int) int { return (n + PageSize - 1) >> PageShift }

// destPage is one materialized chunk of PageSize destination queues with
// their priority FIFOs in a shared backing array (the monolithic slab's
// layout, at page granularity).
type destPage struct {
	qs    []DestQueue // len PageSize
	fifos []FIFO      // len PageSize * numPriorities, backing qs' prios
	bytes int64
	ver   uint32
}

func newDestPage(priority bool) *destPage {
	np := 1
	if priority {
		np = NumPriorities
	}
	fifos := make([]FIFO, PageSize*np)
	qs := make([]DestQueue, PageSize)
	for j := range qs {
		qs[j] = DestQueue{prios: fifos[j*np : (j+1)*np : (j+1)*np], priority: priority}
	}
	return &destPage{qs: qs, fifos: fifos}
}

// fifoPage is one materialized chunk of PageSize plain FIFOs (relay
// queues).
type fifoPage struct {
	fifos []FIFO // len PageSize
	bytes int64
	ver   uint32
}

func newFIFOPage() *fifoPage { return &fifoPage{fifos: make([]FIFO, PageSize)} }

// recycle clears a FIFO for reuse, dropping flow references but KEEPING
// the backing segment array (a recycled page must push without
// allocating). The whole capacity is cleared: compaction can leave stale
// segment copies beyond len.
func (q *FIFO) recycle() {
	segs := q.segs[:cap(q.segs)]
	for i := range segs {
		segs[i] = Segment{}
	}
	q.segs = q.segs[:0]
	q.head = 0
	q.bytes = 0
}

// PagePool recycles released pages, keyed by page kind (plain FIFO pages
// vs destination pages with and without priority levels). Like SegPool it
// is unsynchronised: pages are taken at materialization (pushes, which
// run only in serial phases) and returned by the core's serial merge.
type PagePool struct {
	dest [2][]*destPage // [0] single-FIFO, [1] priority
	fifo []*fifoPage
}

// maxFreePages caps each freelist; beyond it released pages go to the GC.
const maxFreePages = 4096

func (p *PagePool) getDest(priority bool) *destPage {
	k := 0
	if priority {
		k = 1
	}
	if free := p.dest[k]; len(free) > 0 {
		pg := free[len(free)-1]
		free[len(free)-1] = nil
		p.dest[k] = free[:len(free)-1]
		return pg
	}
	return newDestPage(priority)
}

func (p *PagePool) putDest(pg *destPage, priority bool) {
	for i := range pg.fifos {
		pg.fifos[i].recycle()
	}
	for i := range pg.qs {
		pg.qs[i].bytes = 0
	}
	pg.bytes, pg.ver = 0, 0
	k := 0
	if priority {
		k = 1
	}
	if len(p.dest[k]) < maxFreePages {
		p.dest[k] = append(p.dest[k], pg)
	}
}

func (p *PagePool) getFIFO() *fifoPage {
	if free := p.fifo; len(free) > 0 {
		pg := free[len(free)-1]
		free[len(free)-1] = nil
		p.fifo = free[:len(free)-1]
		return pg
	}
	return newFIFOPage()
}

func (p *PagePool) putFIFO(pg *fifoPage) {
	for i := range pg.fifos {
		pg.fifos[i].recycle()
	}
	pg.bytes, pg.ver = 0, 0
	if len(p.fifo) < maxFreePages {
		p.fifo = append(p.fifo, pg)
	}
}

// DestSlab is the paged replacement for a NewSlab VOQ set: a page table
// over n destinations whose pages materialize on first push. The zero
// value is an unmaterialized slab (the lazy-node idiom: no memory at all
// until the class is first pushed into).
type DestSlab struct {
	pages    []*destPage
	n        int
	priority bool
}

// NewDestSlab returns a paged slab over n destinations holding only the
// page table — no queue memory until pages materialize.
func NewDestSlab(n int, priority bool) DestSlab {
	return DestSlab{pages: make([]*destPage, numPages(n)), n: n, priority: priority}
}

// Materialized reports whether the slab itself exists (the class has been
// pushed into at least once).
func (s *DestSlab) Materialized() bool { return s.pages != nil }

// NumPages returns the page-table length.
func (s *DestSlab) NumPages() int { return len(s.pages) }

// PageOf returns the page index covering dst.
func PageOf(dst int) int { return dst >> PageShift }

// Probe returns the queue for dst, or nil when its page (or the slab) has
// not materialized — the nil-page-safe read path. An absent page reads as
// a set of empty queues.
func (s *DestSlab) Probe(dst int) *DestQueue {
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
func (s *DestSlab) Queue(dst int, pool *PagePool) *DestQueue {
	i := dst >> PageShift
	pg := s.pages[i]
	if pg == nil {
		pg = pool.getDest(s.priority)
		s.pages[i] = pg
	}
	pg.ver++
	return &pg.qs[dst&pageMask]
}

// Bytes returns the queued bytes for dst (zero for absent pages).
func (s *DestSlab) Bytes(dst int) int64 {
	if q := s.Probe(dst); q != nil {
		return q.Bytes()
	}
	return 0
}

// Add adjusts dst's page byte counter by delta (the owner calls it at the
// same choke points that maintain the per-queue aggregates) and returns
// the page's new total with its touch version — a zero total is a release
// candidate, honoured later only if the version is still current.
func (s *DestSlab) Add(dst int, delta int64) (pageBytes int64, ver uint32) {
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
func (s *DestSlab) ReleaseIfEmpty(page int, ver uint32, pool *PagePool) bool {
	pg := s.pages[page]
	if pg == nil || pg.bytes != 0 || pg.ver != ver {
		return false
	}
	s.pages[page] = nil
	pool.putDest(pg, s.priority)
	return true
}

// ForEachPage invokes fn for every materialized page with the page index,
// the first destination it covers, its queues (trimmed to the slab width
// on the final page) and its byte counter — the contiguous-iteration
// surface for page-wise sweeps and invariant checks.
func (s *DestSlab) ForEachPage(fn func(page, base int, qs []DestQueue, bytes int64)) {
	for i, pg := range s.pages {
		if pg == nil {
			continue
		}
		base := i << PageShift
		qs := pg.qs
		if rem := s.n - base; rem < PageSize {
			qs = qs[:rem]
		}
		fn(i, base, qs, pg.bytes)
	}
}

// PageMaterialized reports whether the page covering dst exists.
func (s *DestSlab) PageMaterialized(dst int) bool {
	i := dst >> PageShift
	return i < len(s.pages) && s.pages[i] != nil
}

// MaterializedPages counts materialized pages.
func (s *DestSlab) MaterializedPages() int {
	var k int
	for _, pg := range s.pages {
		if pg != nil {
			k++
		}
	}
	return k
}

// MaterializeAll eagerly materializes every page, reproducing the
// monolithic pre-paging footprint (lazy-vs-eager equivalence tests).
func (s *DestSlab) MaterializeAll(pool *PagePool) {
	for i := range s.pages {
		if s.pages[i] == nil {
			s.pages[i] = pool.getDest(s.priority)
		}
	}
}

// FIFOSlab is the paged replacement for a []FIFO relay set: a page table
// over n destinations whose FIFO pages materialize on first push.
type FIFOSlab struct {
	pages []*fifoPage
	n     int
}

// NewFIFOSlab returns a paged FIFO slab over n destinations holding only
// the page table.
func NewFIFOSlab(n int) FIFOSlab {
	return FIFOSlab{pages: make([]*fifoPage, numPages(n)), n: n}
}

// Materialized reports whether the slab itself exists.
func (s *FIFOSlab) Materialized() bool { return s.pages != nil }

// NumPages returns the page-table length.
func (s *FIFOSlab) NumPages() int { return len(s.pages) }

// Probe returns the FIFO for dst, or nil when its page (or the slab) has
// not materialized.
func (s *FIFOSlab) Probe(dst int) *FIFO {
	i := dst >> PageShift
	if i >= len(s.pages) {
		return nil
	}
	pg := s.pages[i]
	if pg == nil {
		return nil
	}
	return &pg.fifos[dst&pageMask]
}

// Get returns the FIFO for dst, materializing its page from the pool on
// first touch (and bumping the page's touch version). Mutation path only.
func (s *FIFOSlab) Get(dst int, pool *PagePool) *FIFO {
	i := dst >> PageShift
	pg := s.pages[i]
	if pg == nil {
		pg = pool.getFIFO()
		s.pages[i] = pg
	}
	pg.ver++
	return &pg.fifos[dst&pageMask]
}

// Bytes returns the queued bytes for dst (zero for absent pages).
func (s *FIFOSlab) Bytes(dst int) int64 {
	if q := s.Probe(dst); q != nil {
		return q.Bytes()
	}
	return 0
}

// Add adjusts dst's page byte counter by delta, returning the page total
// and touch version (see DestSlab.Add).
func (s *FIFOSlab) Add(dst int, delta int64) (pageBytes int64, ver uint32) {
	pg := s.pages[dst>>PageShift]
	pg.bytes += delta
	if pg.bytes < 0 {
		panic(fmt.Sprintf("queue: page %d byte counter negative (%d)", dst>>PageShift, pg.bytes))
	}
	return pg.bytes, pg.ver
}

// ReleaseIfEmpty returns the page to the pool if still empty and
// untouched since ver was recorded.
func (s *FIFOSlab) ReleaseIfEmpty(page int, ver uint32, pool *PagePool) bool {
	pg := s.pages[page]
	if pg == nil || pg.bytes != 0 || pg.ver != ver {
		return false
	}
	s.pages[page] = nil
	pool.putFIFO(pg)
	return true
}

// ForEachPage invokes fn for every materialized page (see
// DestSlab.ForEachPage).
func (s *FIFOSlab) ForEachPage(fn func(page, base int, fs []FIFO, bytes int64)) {
	for i, pg := range s.pages {
		if pg == nil {
			continue
		}
		base := i << PageShift
		fs := pg.fifos
		if rem := s.n - base; rem < PageSize {
			fs = fs[:rem]
		}
		fn(i, base, fs, pg.bytes)
	}
}

// PageMaterialized reports whether the page covering dst exists.
func (s *FIFOSlab) PageMaterialized(dst int) bool {
	i := dst >> PageShift
	return i < len(s.pages) && s.pages[i] != nil
}

// MaterializedPages counts materialized pages.
func (s *FIFOSlab) MaterializedPages() int {
	var k int
	for _, pg := range s.pages {
		if pg != nil {
			k++
		}
	}
	return k
}

// MaterializeAll eagerly materializes every page.
func (s *FIFOSlab) MaterializeAll(pool *PagePool) {
	for i := range s.pages {
		if s.pages[i] == nil {
			s.pages[i] = pool.getFIFO()
		}
	}
}
