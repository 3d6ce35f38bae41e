package pagemap

import (
	"testing"

	"leap/internal/core"
)

// TestDifferentialAgainstBuiltinMap drives the same pseudo-random operation
// stream through Map and a builtin map and requires identical observable
// behavior at every step.
func TestDifferentialAgainstBuiltinMap(t *testing.T) {
	m := New[int64](0)
	ref := make(map[core.PageID]int64)

	state := uint64(0xC0FFEE)
	next := func() uint64 {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		return state
	}
	// Keys from a small space so puts, overwrites and deletes collide;
	// include the pid<<40 namespacing pattern the simulators use.
	key := func() core.PageID {
		k := core.PageID(next() % 512)
		if next()%4 == 0 {
			k |= core.PageID(int64(1+next()%3) << 40)
		}
		return k
	}
	for op := 0; op < 200000; op++ {
		k := key()
		switch next() % 4 {
		case 0, 1:
			v := int64(next())
			m.Put(k, v)
			ref[k] = v
		case 2:
			m.Delete(k)
			delete(ref, k)
		default:
			got, ok := m.Get(k)
			want, wantOK := ref[k]
			if ok != wantOK || got != want {
				t.Fatalf("op %d: Get(%d) = (%d,%v), want (%d,%v)", op, k, got, ok, want, wantOK)
			}
		}
		if m.Len() != len(ref) {
			t.Fatalf("op %d: Len = %d, want %d", op, m.Len(), len(ref))
		}
	}
	for k, want := range ref {
		if got, ok := m.Get(k); !ok || got != want {
			t.Fatalf("final: Get(%d) = (%d,%v), want (%d,true)", k, got, ok, want)
		}
	}
}

func TestSteadyStateChurnDoesNotAllocate(t *testing.T) {
	m := New[int64](256)
	for i := 0; i < 256; i++ {
		m.Put(core.PageID(i), int64(i))
	}
	k := core.PageID(1000)
	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < 64; i++ {
			m.Put(k+core.PageID(i), 1)
		}
		for i := 0; i < 64; i++ {
			m.Delete(k + core.PageID(i))
		}
	})
	// Tombstone purges rebuild into same-size tables; churn may trigger an
	// occasional rehash but must not allocate per operation.
	if allocs > 1 {
		t.Fatalf("churn allocated %.2f times per run, want <= 1", allocs)
	}
}

// TestRangeVisitsEachLiveKeyOnce: after puts, overwrites, deletes and the
// rehashes they cause, Range yields every live key exactly once with its
// current value, in the same order on two identical histories; a walk that
// deletes what it visits empties the map; and returning false stops it.
func TestRangeVisitsEachLiveKeyOnce(t *testing.T) {
	build := func() (*Map[int64], map[core.PageID]int64) {
		m, ref := New[int64](0), make(map[core.PageID]int64)
		for i := 0; i < 5000; i++ {
			k := core.PageID(i * 7 % 3001)
			if i%3 == 2 {
				m.Delete(k)
				delete(ref, k)
				continue
			}
			m.Put(k, int64(i))
			ref[k] = int64(i)
		}
		return m, ref
	}
	m, ref := build()
	seen := make(map[core.PageID]bool)
	var order []core.PageID
	m.Range(func(k core.PageID, v int64) bool {
		if seen[k] {
			t.Fatalf("key %d visited twice", k)
		}
		seen[k] = true
		order = append(order, k)
		if want, ok := ref[k]; !ok || v != want {
			t.Fatalf("key %d yielded %d, want (%d,%v)", k, v, want, ok)
		}
		return true
	})
	if len(seen) != len(ref) || len(seen) != m.Len() {
		t.Fatalf("visited %d keys, map holds %d (Len %d)", len(seen), len(ref), m.Len())
	}

	again, _ := build()
	i := 0
	for k := range again.Range {
		if k != order[i] {
			t.Fatalf("visit %d: key %d, the first walk's was %d", i, k, order[i])
		}
		i++
	}

	visits := 0
	m.Range(func(k core.PageID, _ int64) bool {
		m.Delete(k)
		visits++
		return true
	})
	if visits != len(ref) || m.Len() != 0 {
		t.Fatalf("deleting walk visited %d of %d, left %d", visits, len(ref), m.Len())
	}
	visits = 0
	again.Range(func(core.PageID, int64) bool { visits++; return visits < 3 })
	if visits != 3 {
		t.Fatalf("walk went on for %d visits after yield returned false at 3", visits)
	}
}

// BenchmarkMap times the three operations at 16 k live keys under insert and
// delete churn: PutDelete inserts a new key and deletes the oldest, so the
// table holds its size while tombstones come and go, and Get then looks up
// live keys, scattered, in the table that churn left.
func BenchmarkMap(b *testing.B) {
	const live = 16 << 10
	m := New[int64](live)
	for k := 0; k < live; k++ {
		m.Put(core.PageID(k), int64(k))
	}
	next := core.PageID(live)
	b.Run("PutDelete", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			m.Put(next, int64(i))
			m.Delete(next - live)
			next++
		}
	})
	if m.Len() != live {
		b.Fatalf("churn left %d keys, want %d", m.Len(), live)
	}
	b.Run("Get", func(b *testing.B) {
		b.ReportAllocs()
		var sum int64
		for i := 0; i < b.N; i++ {
			v, ok := m.Get(next - live + core.PageID(i*7919%live))
			if !ok {
				b.Fatal("a live key is missing")
			}
			sum += v
		}
		benchSink = sum
	})
}

var benchSink int64

func TestPointerValuesReleasedOnDelete(t *testing.T) {
	type big struct{ buf [64]byte }
	m := New[*big](0)
	m.Put(1, &big{})
	m.Delete(1)
	if v, ok := m.Get(1); ok || v != nil {
		t.Fatalf("Get after Delete = (%v,%v)", v, ok)
	}
}
