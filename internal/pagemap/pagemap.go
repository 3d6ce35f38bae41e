// Package pagemap provides an open-addressing hash map keyed by
// core.PageID, specialized for the simulators' hottest state: residency
// sets, the prefetch in-flight table, and the page-cache index. Each
// simulated access performs tens of membership tests on these tables, and
// the runtime map's generic hashing shows up as a top profile entry; this
// map replaces it with one multiply and a linear probe over a single slot
// array (state, key and value share a cache line).
//
// The map is deterministic (layout depends only on the operation sequence,
// and Range walks it in slot order) and is not safe for concurrent use.
// Deleted slots become tombstones; the table rehashes in slot order — also
// deterministic — when occupancy plus tombstones crosses the load limit.
package pagemap

import "leap/internal/core"

const (
	slotEmpty = iota
	slotFull
	slotTomb
)

// minCap keeps tiny maps from rehashing constantly; must be a power of two.
const minCap = 16

type slot[V any] struct {
	key   core.PageID
	val   V
	state uint8
}

// Map is a PageID-keyed hash table. The zero value is not usable; call New.
type Map[V any] struct {
	slots []slot[V]
	n     int  // live entries
	tombs int  // tombstoned slots
	shift uint // 64 - log2(len(slots)), for Fibonacci hashing

	// spare retains the previous array after a same-size tombstone purge,
	// so steady churn (insert/delete at stable occupancy) rehashes without
	// allocating.
	spare []slot[V]
}

// New returns a map sized for about hint entries.
func New[V any](hint int) *Map[V] {
	capacity := minCap
	for capacity < hint*3 {
		capacity <<= 1
	}
	m := &Map[V]{}
	m.alloc(capacity)
	return m
}

func (m *Map[V]) alloc(capacity int) {
	m.slots = make([]slot[V], capacity)
	m.tombs = 0
	m.shift = 64
	for c := capacity; c > 1; c >>= 1 {
		m.shift--
	}
}

// home maps a key to its home slot (Fibonacci hashing: high bits of a
// multiplicative hash, which scatters the sequential page numbers paging
// workloads produce).
func (m *Map[V]) home(k core.PageID) int {
	return int((uint64(k) * 0x9E3779B97F4A7C15) >> m.shift)
}

// Len reports the number of live entries.
func (m *Map[V]) Len() int { return m.n }

// Get reports the value stored for k.
func (m *Map[V]) Get(k core.PageID) (V, bool) {
	mask := len(m.slots) - 1
	for i := m.home(k); ; i = (i + 1) & mask {
		s := &m.slots[i]
		if s.state == slotEmpty {
			var zero V
			return zero, false
		}
		if s.state == slotFull && s.key == k {
			return s.val, true
		}
	}
}

// Contains reports whether k is present.
func (m *Map[V]) Contains(k core.PageID) bool {
	_, ok := m.Get(k)
	return ok
}

// Put stores v for k, replacing any existing value.
func (m *Map[V]) Put(k core.PageID, v V) {
	// Cap occupancy (live + tombstones) at 50%: linear probing degrades
	// sharply past that, and the tables here are small relative to the
	// simulation's footprint.
	if (m.n+m.tombs+1)*2 > len(m.slots) {
		m.rehash()
	}
	mask := len(m.slots) - 1
	first := -1 // first tombstone on the probe path
	for i := m.home(k); ; i = (i + 1) & mask {
		s := &m.slots[i]
		switch s.state {
		case slotEmpty:
			if first >= 0 {
				s = &m.slots[first]
				m.tombs--
			}
			s.state = slotFull
			s.key = k
			s.val = v
			m.n++
			return
		case slotFull:
			if s.key == k {
				s.val = v
				return
			}
		case slotTomb:
			if first < 0 {
				first = i
			}
		}
	}
}

// Delete removes k if present.
func (m *Map[V]) Delete(k core.PageID) {
	mask := len(m.slots) - 1
	for i := m.home(k); ; i = (i + 1) & mask {
		s := &m.slots[i]
		if s.state == slotEmpty {
			return
		}
		if s.state == slotFull && s.key == k {
			s.state = slotTomb
			var zero V
			s.val = zero // release pointer-bearing values
			m.n--
			m.tombs++
			return
		}
	}
}

// Range calls yield for every live entry, in slot order, until yield returns
// false; m.Range is thus also a range-over-func iterator. The order is a pure
// function of the operation history. yield may Delete entries, but must not
// Put: a Put may rehash the table under the walk.
func (m *Map[V]) Range(yield func(k core.PageID, v V) bool) {
	for i := range m.slots {
		if s := &m.slots[i]; s.state == slotFull && !yield(s.key, s.val) {
			return
		}
	}
}

// Keys calls yield for every live key, in Range's order, until yield returns
// false.
func (m *Map[V]) Keys(yield func(core.PageID) bool) {
	m.Range(func(k core.PageID, _ V) bool { return yield(k) })
}

// rehash rebuilds the table, growing when live entries (not tombstones)
// justify it. Rebuilding walks slots in array order, so layout stays a pure
// function of the operation history.
func (m *Map[V]) rehash() {
	capacity := len(m.slots)
	if (m.n+1)*3 > capacity {
		capacity <<= 1
	}
	old := m.slots
	if len(m.spare) == capacity {
		m.slots = m.spare
		m.spare = nil
		clear(m.slots)
		m.tombs = 0
	} else {
		m.alloc(capacity)
	}
	m.n = 0
	for i := range old {
		if old[i].state == slotFull {
			m.Put(old[i].key, old[i].val)
		}
	}
	if len(old) == len(m.slots) {
		clear(old) // don't let the scratch copy pin heap objects
		m.spare = old
	} else {
		// Grown: any previous-size spare can never be reused — release it.
		m.spare = nil
	}
}
