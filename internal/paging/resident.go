package paging

import (
	"leap/internal/core"
	"leap/internal/pagemap"
)

// resEntry is one resident page in an owner's LRU list. Entries are pooled
// on the owning engine's free list across all Resident sets.
type resEntry struct {
	page       core.PageID // global address
	prev, next *resEntry
}

// Resident is one owner's residency set — the page-table side of the fault
// path: an LRU-ordered page set bounded by a cgroup-style budget. The
// engine's MapIn inserts pages and evicts (with writeback) past the budget;
// the owner answers its own residency checks with Touch before entering the
// fault path.
type Resident struct {
	// Limit is the local memory budget in pages (the cgroup limit).
	Limit int64
	// Charged tracks page-cache pages attributed to this owner's cgroup:
	// in Linux, swap-cache pages are charged to the faulting cgroup, so a
	// flooding prefetcher squeezes the owner's own resident set. MapIn
	// enforces resident+charged <= limit. The owner keeps it in step via
	// the engine's OnInsert hook and the cache's OnEvict callback.
	Charged int64

	m          *pagemap.Map[*resEntry]
	head, tail *resEntry // head = most recently used
}

// NewResident returns an empty set with capacity hinted to the budget.
func NewResident(hint int) *Resident {
	return &Resident{m: pagemap.New[*resEntry](hint)}
}

// Len reports the number of resident pages.
func (r *Resident) Len() int { return r.m.Len() }

// Pages calls yield for every resident page until yield returns false.
func (r *Resident) Pages(yield func(core.PageID) bool) { r.m.Keys(yield) }

// Contains reports residency without touching LRU order.
func (r *Resident) Contains(page core.PageID) bool { return r.m.Contains(page) }

// Touch reports whether page is resident, moving it to the LRU front when
// it is — the no-fault path of an access.
func (r *Resident) Touch(page core.PageID) bool {
	e, ok := r.m.Get(page)
	if !ok {
		return false
	}
	if r.head == e {
		return true
	}
	// Unlink.
	if e.prev != nil {
		e.prev.next = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	}
	if r.tail == e {
		r.tail = e.prev
	}
	// Push front.
	e.prev = nil
	e.next = r.head
	if r.head != nil {
		r.head.prev = e
	}
	r.head = e
	if r.tail == nil {
		r.tail = e
	}
	return true
}
