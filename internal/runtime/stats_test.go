package runtime

import (
	"testing"

	"leap/internal/core"
	"leap/internal/remote"
)

// TestStatsConserved: on one goroutine every access is a resident hit or a
// fault, and each fault was served from exactly one place — the cache, the
// wire, the compressed tier or a demand read.
func TestStatsConserved(t *testing.T) {
	for _, opts := range [][]Option{
		{WithCacheCapacity(128), WithQueueDepth(8), WithSeed(5)},
		{WithCacheCapacity(128), WithShards(4), WithCompressedTier(96 * remote.PageSize), WithSeed(5)},
	} {
		m, err := Open(opts...)
		if err != nil {
			t.Fatal(err)
		}
		const pages = 1024
		for pg := core.PageID(0); pg < pages; pg++ {
			if _, err := m.WriteAt(image(pg), int64(pg)*remote.PageSize); err != nil {
				t.Fatal(err)
			}
		}
		x := uint64(1)
		for i := 0; i < 3*pages; i++ {
			pg := core.PageID(i % pages) // a scan, a stride-5 walk, random pages
			if i >= 2*pages {
				x = x*6364136223846793005 + 1442695040888963407
				pg = core.PageID(x >> 54)
			} else if i >= pages {
				pg = core.PageID(i * 5 % pages)
			}
			if _, err := m.Get(pg); err != nil {
				t.Fatal(err)
			}
		}
		st := m.Stats()
		m.Close()
		if sum := st.CacheHits + st.InflightHits + st.Misses + st.Ztier.Hits; sum != st.Faults {
			t.Errorf("faults %d, but cache %d + in flight %d + misses %d + ztier %d = %d",
				st.Faults, st.CacheHits, st.InflightHits, st.Misses, st.Ztier.Hits, sum)
		}
		if st.ResidentHits+st.Faults != st.Accesses {
			t.Errorf("resident hits %d + faults %d != %d accesses", st.ResidentHits, st.Faults, st.Accesses)
		}
	}
}
