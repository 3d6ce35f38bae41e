package ztier

import (
	"fmt"

	"leap/internal/core"
	"leap/internal/pagemap"
)

// entryOverhead is the bookkeeping charge per sealed page, on top of its
// compressed bytes, so a budget of B bytes admits strictly fewer than
// B/entryOverhead pages even at infinite compression ratio.
const entryOverhead = 64

// entry is one sealed page: its compressed bytes on the pool's LRU list.
type entry struct {
	page  core.PageID
	data  []byte
	dirty bool
	prev  *entry
	next  *entry
}

// Stats is a snapshot of a Pool's accounting.
type Stats struct {
	// Pages and UsedBytes are the current occupancy: sealed pages and their
	// budget charge (compressed bytes plus entryOverhead each).
	Pages     int
	UsedBytes int64
	// Seals counts pages compressed in; Takes counts exclusive removals on
	// a hit (Take).
	Seals, Takes int64
	// OverflowEvictions counts sealed pages pushed out by the byte budget;
	// OverflowDirty of those carried the only fresh copy of their bytes and
	// were handed to OnEvict for writeback.
	OverflowEvictions, OverflowDirty int64
	// RawBytes and CompressedBytes are cumulative sealed input and output
	// sizes; their quotient is the realized compression ratio.
	RawBytes, CompressedBytes int64
}

// Pool is a byte-budgeted compressed page store: the zswap-style victim
// tier one runtime stripe owns. Put seals a page (compress + LRU insert),
// Take unseals it exclusively (decompress + remove), and inserts that push
// the pool past its budget evict the LRU tail through OnEvict. Entry nodes
// and compressed buffers are free-listed, so steady-state seal/unseal churn
// does not allocate. Not safe for concurrent use: the owning stripe's lock
// serializes it.
type Pool struct {
	budget   int64
	pageSize int
	used     int64
	idx      *pagemap.Map[*entry]
	head     *entry // MRU
	tail     *entry // LRU
	comp     Compressor
	free     *entry // entry free list, linked through next; buffers retained
	scratch  []byte // decompress scratch for dirty overflow victims

	// OnEvict, when set, receives each page the byte budget pushes out.
	// raw holds the page's decompressed bytes only when dirty is true —
	// a dirty victim's only fresh copy, which the owner must write back;
	// clean victims pass raw == nil (their backing-store image is current).
	// Called synchronously inside Put, after the victim has left the pool.
	OnEvict func(page core.PageID, raw []byte, dirty bool)

	stats Stats
}

// NewPool returns a pool that seals pages of at most pageSize bytes under a
// budget of bytes (compressed sizes plus entryOverhead each).
func NewPool(budget int64, pageSize int) *Pool {
	return &Pool{
		budget:   budget,
		pageSize: pageSize,
		idx:      pagemap.New[*entry](0),
	}
}

// Budget reports the configured byte budget.
func (p *Pool) Budget() int64 { return p.budget }

// Len reports the number of sealed pages.
func (p *Pool) Len() int { return p.idx.Len() }

// UsedBytes reports the current budget charge.
func (p *Pool) UsedBytes() int64 { return p.used }

// Pages calls yield for every sealed page until yield returns false.
func (p *Pool) Pages(yield func(core.PageID) bool) { p.idx.Keys(yield) }

// Contains reports whether page is sealed in the pool.
func (p *Pool) Contains(page core.PageID) bool { return p.idx.Contains(page) }

// Stats reports a snapshot of the pool's accounting.
func (p *Pool) Stats() Stats {
	s := p.stats
	s.Pages = p.idx.Len()
	s.UsedBytes = p.used
	return s
}

// Put seals page's bytes (at most pageSize of them) into the pool, marking
// whether they are dirty — the only fresh copy, which an overflow eviction
// must write back. A page already sealed is replaced. Inserts that push the
// pool past its budget evict LRU victims through OnEvict before Put
// returns; a page whose compressed size alone exceeds the budget passes
// straight through to OnEvict.
func (p *Pool) Put(page core.PageID, src []byte, dirty bool) {
	if old, ok := p.idx.Get(page); ok {
		p.unlink(old)
		p.idx.Delete(page)
		p.used -= p.cost(old)
		p.freeEntry(old)
	}
	e := p.newEntry()
	e.page = page
	e.dirty = dirty
	e.data = p.comp.Compress(e.data[:0], src)
	p.idx.Put(page, e)
	p.linkFront(e)
	p.used += p.cost(e)
	p.stats.Seals++
	p.stats.RawBytes += int64(len(src))
	p.stats.CompressedBytes += int64(len(e.data))
	for p.used > p.budget && p.tail != nil {
		p.evictTail()
	}
}

// Take unseals page exclusively: its bytes are appended to dst (which needs
// cap for at most pageSize more bytes to stay allocation-free), the entry
// leaves the pool, and its dirty mark is returned. ok is false when the
// page is not sealed. Sealed bytes are the pool's own Compress output, so a
// decode failure here means memory corruption: Take panics rather than
// propagate silently wrong page contents.
func (p *Pool) Take(page core.PageID, dst []byte) (data []byte, dirty bool, ok bool) {
	e, found := p.idx.Get(page)
	if !found {
		return nil, false, false
	}
	p.unlink(e)
	p.idx.Delete(page)
	p.used -= p.cost(e)
	raw, err := Decompress(dst, e.data, p.pageSize)
	if err != nil {
		panic(fmt.Sprintf("ztier: sealed page %d corrupt: %v", page, err))
	}
	dirty = e.dirty
	p.freeEntry(e)
	p.stats.Takes++
	return raw, dirty, true
}

// evictTail pushes the LRU entry out of the pool and hands it to OnEvict.
func (p *Pool) evictTail() {
	v := p.tail
	p.unlink(v)
	p.idx.Delete(v.page)
	p.used -= p.cost(v)
	p.stats.OverflowEvictions++
	page, dirty := v.page, v.dirty
	var raw []byte
	if dirty {
		p.stats.OverflowDirty++
		var err error
		raw, err = Decompress(p.scratch[:0], v.data, p.pageSize)
		if err != nil {
			panic(fmt.Sprintf("ztier: sealed page %d corrupt: %v", page, err))
		}
		p.scratch = raw[:0]
	}
	p.freeEntry(v)
	if p.OnEvict != nil {
		p.OnEvict(page, raw, dirty)
	}
}

// cost is an entry's budget charge.
func (p *Pool) cost(e *entry) int64 { return int64(len(e.data)) + entryOverhead }

// linkFront inserts e at the MRU head.
func (p *Pool) linkFront(e *entry) {
	e.prev = nil
	e.next = p.head
	if p.head != nil {
		p.head.prev = e
	}
	p.head = e
	if p.tail == nil {
		p.tail = e
	}
}

// unlink removes e from the LRU list.
func (p *Pool) unlink(e *entry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		p.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		p.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

// newEntry takes a node off the free list (its compressed buffer retained)
// or allocates one.
func (p *Pool) newEntry() *entry {
	e := p.free
	if e == nil {
		return &entry{}
	}
	p.free = e.next
	e.next = nil
	return e
}

// freeEntry returns an unlinked node to the free list.
func (p *Pool) freeEntry(e *entry) {
	e.data = e.data[:0]
	e.dirty = false
	e.next = p.free
	p.free = e
}
