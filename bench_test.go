// Benchmarks timing every table and figure of the paper's evaluation (one
// BenchmarkFigures sub-benchmark per registered figure), plus
// microbenchmarks of the hot paths. cmd/leapbench prints the figures
// themselves.
package leap

import (
	"fmt"
	goruntime "runtime"
	"sync"
	"sync/atomic"
	"testing"

	"leap/internal/core"
	"leap/internal/experiments"
	"leap/internal/prefetch"
	"leap/internal/sim"
)

// BenchmarkFigures runs every figure of the registry end to end at test
// scale, seed 42, one sub-benchmark per figure: ns/op is the figure's wall
// time. Its results are virtual-time model outputs that do not depend on
// the machine; cmd/leapbench prints them.
func BenchmarkFigures(b *testing.B) {
	for _, name := range experiments.Figures() {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := experiments.RunFigure(name, experiments.Small, 42); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- reference rows ---
//
// The box's yardstick, recorded in the same run as every other row: a 4 KB
// copy (memory bandwidth), an uncontended mutex (atomics) and a fixed-length
// integer hash loop (the core's clock). A row compared across ledgers
// recorded on different boxes means something only against these.

func BenchmarkRefCopy4K(b *testing.B) {
	src, dst := make([]byte, 4096), make([]byte, 4096)
	b.SetBytes(int64(len(src)))
	for i := 0; i < b.N; i++ {
		copy(dst, src)
	}
}

func BenchmarkRefMutex(b *testing.B) {
	var mu sync.Mutex
	for i := 0; i < b.N; i++ {
		mu.Lock()
		mu.Unlock() //nolint:staticcheck // the empty section is what is timed
	}
}

// refSink keeps BenchmarkRefHash's result live.
var refSink uint64

func BenchmarkRefHash(b *testing.B) {
	var x uint64
	for i := 0; i < b.N; i++ {
		x += uint64(i)
		for range 64 {
			x ^= x >> 33
			x *= 0xff51afd7ed558ccd
		}
	}
	refSink = x
}

// --- hot-path microbenchmarks ---

func BenchmarkPredictorFaultPath(b *testing.B) {
	p := core.NewPredictor(core.Config{})
	buf := make([]core.PageID, 0, 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = p.OnFault(core.PageID(i), buf[:0])
	}
	_ = buf
}

func BenchmarkFindTrend(b *testing.B) {
	h := core.NewAccessHistory(32)
	rng := sim.NewRNG(1)
	for i := 0; i < 32; i++ {
		h.Push(int64(rng.Intn(5)))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.FindTrend(h, 2)
	}
}

func BenchmarkMajorityVote(b *testing.B) {
	xs := make([]int64, 32)
	rng := sim.NewRNG(2)
	for i := range xs {
		xs[i] = int64(rng.Intn(3))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.MajorityVote(xs)
	}
}

func BenchmarkPrefetcherComparison(b *testing.B) {
	for _, name := range prefetch.Names() {
		b.Run(name, func(b *testing.B) {
			p, err := prefetch.New(name)
			if err != nil {
				b.Fatal(err)
			}
			var buf []prefetch.PageID
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf = p.OnAccess(1, prefetch.PageID(i), true, buf[:0])
			}
			_ = buf
		})
	}
}

func BenchmarkMemoryGetHit(b *testing.B) {
	// The runtime's resident-hit path — the Get an application pays when
	// its page is local. Must stay allocation-free: pagemap lookup, LRU
	// touch, counter bumps, nothing else.
	mem, err := Open(WithSeed(42), WithCacheCapacity(256), WithQueueDepth(8))
	if err != nil {
		b.Fatal(err)
	}
	defer mem.Close()
	buf := make([]byte, RemotePageSize)
	const hot = 64 // well inside the budget: every Get below is a hit
	for pg := int64(0); pg < hot; pg++ {
		if _, err := mem.WriteAt(buf, pg*RemotePageSize); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		data, err := mem.Get(PageID(i % hot))
		if err != nil {
			b.Fatal(err)
		}
		_ = data
	}
}

func BenchmarkMemoryGetZtierHit(b *testing.B) {
	// The compressed-tier hit path — the Get an application pays when its
	// page was sealed into the local victim tier rather than shipped
	// remote: pagemap miss, one decompress into a recycled frame, LRU
	// insert, one victim sealed back in its place. Recorded in BENCH_9.json;
	// TestHitPathsAllocateNothing holds it allocation-free in steady state,
	// like the resident hit path.
	mem := ztierHitMemory(b)
	defer mem.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		data, err := mem.Get(PageID(i % ztierSpan))
		if err != nil {
			b.Fatal(err)
		}
		_ = data
	}
}

// ztierSpan is ztierHitMemory's page span: 3× its frame budget, so that
// every Get of a scan over the span misses residency.
const ztierSpan = 192

// ztierHitMemory opens a Memory whose pages 0..ztierSpan-1 are each either
// resident or sealed in the compressed tier, with the frame and tier-entry
// free lists populated: a Get of any of them is a compressed-tier hit or a
// resident one.
func ztierHitMemory(tb testing.TB) *Memory {
	const frames = 64
	mem, err := Open(
		WithSeed(42), WithCacheCapacity(frames), WithQueueDepth(8),
		WithCompressedTier(int64(ztierSpan)*RemotePageSize),
	)
	if err != nil {
		tb.Fatal(err)
	}
	buf := make([]byte, RemotePageSize)
	for pg := int64(0); pg < ztierSpan; pg++ {
		// Semi-compressible record pages: the codec takes its LZ path, so
		// the hit does real compression work, not the stored fallback
		// memcpy.
		const record = "record-deadbeef!"
		x := uint64(pg)*0x9E3779B97F4A7C15 + 1
		for off := 0; off+len(record) <= len(buf); off += len(record) {
			copy(buf[off:], record)
			x = x*6364136223846793005 + 1442695040888963407
			buf[off+12] = byte(x >> 33)
		}
		if _, err := mem.WriteAt(buf, pg*RemotePageSize); err != nil {
			tb.Fatal(err)
		}
	}
	// One warm scan settles the steady state: every page resident or
	// sealed, frame and tier-entry free lists populated.
	for pg := int64(0); pg < ztierSpan; pg++ {
		if _, err := mem.Get(PageID(pg)); err != nil {
			tb.Fatal(err)
		}
	}
	return mem
}

// TestHitPathsAllocateNothing holds each hit path at zero heap allocations
// a read, steady state: a resident hit takes its stripe's lock, touches the
// LRU and copies bytes, a compressed-tier hit decompresses into a recycled
// frame, and routing through the ensemble adds nothing, since a hit never
// consults the prefetcher. Each row reads its pages by Get and by ReadAt.
func TestHitPathsAllocateNothing(t *testing.T) {
	ensemble := WithPrefetcherFactory(func() Prefetcher { p, _ := NewPrefetcher("ensemble"); return p })
	resident := func(pages int, opts ...Option) func(testing.TB) (*Memory, int) {
		return func(tb testing.TB) (*Memory, int) {
			mem, err := Open(append([]Option{WithSeed(42), WithQueueDepth(8)}, opts...)...)
			if err != nil {
				tb.Fatal(err)
			}
			buf := make([]byte, RemotePageSize)
			for pg := int64(0); pg < int64(pages); pg++ {
				if _, err := mem.WriteAt(buf, pg*RemotePageSize); err != nil {
					tb.Fatal(err)
				}
			}
			return mem, pages
		}
	}
	for _, tc := range []struct {
		name string
		open func(testing.TB) (*Memory, int)
	}{
		{"resident/shards=1", resident(64, WithCacheCapacity(256))},
		{"resident/shards=4", resident(128, WithShards(4), WithCacheCapacity(512))},
		{"ztier", func(tb testing.TB) (*Memory, int) { return ztierHitMemory(tb), ztierSpan }},
		{"ensemble", resident(64, WithCacheCapacity(256), ensemble)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			mem, pages := tc.open(t)
			defer mem.Close()
			buf := make([]byte, RemotePageSize)
			var pg int64
			var rerr error
			allocs := testing.AllocsPerRun(400, func() {
				pg = (pg + 1) % int64(pages)
				if _, err := mem.Get(PageID(pg)); err != nil {
					rerr = err
				}
				if _, err := mem.ReadAt(buf, pg*RemotePageSize); err != nil {
					rerr = err
				}
			})
			if rerr != nil {
				t.Fatal(rerr)
			}
			if allocs != 0 {
				t.Errorf("%s hit: %.1f allocations a Get and ReadAt, want 0", tc.name, allocs)
			}
		})
	}
}

func BenchmarkMemoryConcurrentGet(b *testing.B) {
	// The concurrent hit path: parallel goroutines, each with its own
	// Client handle, Get-ing resident pages. Pays one lock round trip and
	// one 4KB copy per op — and must stay allocation-free, like the
	// single-threaded hit path.
	mem, err := Open(WithSeed(42), WithCacheCapacity(256), WithQueueDepth(8))
	if err != nil {
		b.Fatal(err)
	}
	defer mem.Close()
	buf := make([]byte, RemotePageSize)
	const hot = 64 // well inside the budget: every Get below is a hit
	for pg := int64(0); pg < hot; pg++ {
		if _, err := mem.WriteAt(buf, pg*RemotePageSize); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		c := mem.Client(0)
		i := 0
		for pb.Next() {
			data, err := c.Get(PageID(i % hot))
			if err != nil {
				b.Fatal(err)
			}
			_ = data
			i++
		}
	})
}

func BenchmarkMemoryGetHitParallel(b *testing.B) {
	// The sharded hit path under real parallelism: a GOMAXPROCS sweep over
	// {1, 2, 4, 8} with the runtime split WithShards(8), so each worker's
	// Get takes only its stripe's lock. This is the measured multicore
	// scaling curve of the fault path — recorded in BENCH_8.json, procs=8
	// gated by scripts/bench_ab.sh — and every sweep point must stay
	// allocation-free, exactly like the serialized hit path above. Procs
	// beyond the machine's cores degenerate to the core count; the sweep
	// still records them so the curve's flat tail is visible in the data.
	for _, procs := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("procs=%d", procs), func(b *testing.B) {
			defer goruntime.GOMAXPROCS(goruntime.GOMAXPROCS(procs))
			mem, err := Open(WithSeed(42), WithShards(8), WithCacheCapacity(512), WithQueueDepth(8))
			if err != nil {
				b.Fatal(err)
			}
			defer mem.Close()
			buf := make([]byte, RemotePageSize)
			const hot = 128 // 16 pages per stripe: every Get below is a hit
			for pg := int64(0); pg < hot; pg++ {
				if _, err := mem.WriteAt(buf, pg*RemotePageSize); err != nil {
					b.Fatal(err)
				}
			}
			var worker atomic.Int64
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				c := mem.Client(0)
				// Stagger workers across stripes (17 is odd, so offsets
				// cover every shard) instead of marching them in lockstep
				// over the same pages.
				i := int(worker.Add(1)) * 17
				for pb.Next() {
					data, err := c.Get(PageID(i & (hot - 1)))
					if err != nil {
						b.Fatal(err)
					}
					_ = data
					i++
				}
			})
		})
	}
}

func BenchmarkSimulatorThroughput(b *testing.B) {
	// End-to-end simulator speed: accesses simulated per wall second.
	gen, _ := NewAppWorkload("powergraph", 42)
	res, err := Simulate(SimConfig{
		System:           SystemDVMMLeap,
		WarmupAccesses:   1000,
		MeasuredAccesses: int64(b.N) + 1,
		Seed:             42,
	}, []Workload{{PID: 1, Generator: gen, MemoryLimitPages: gen.Pages() / 2, PreloadPages: -1}})
	if err != nil {
		b.Fatal(err)
	}
	_ = res
}
