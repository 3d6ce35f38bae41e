// Package vfs simulates the disaggregated virtual-file-system path of
// Remote Regions [ATC'18]: remote memory exposed as files, with page-granular
// reads and writes flowing through a VFS cache. It runs on the shared
// fault-path engine (internal/paging) — the same data path (legacy or lean),
// page cache and prefetcher as internal/vmm — but with file semantics: no
// residency limit or swap-out; every read is a cache lookup, every write is
// buffered and flushed to the remote store asynchronously.
//
// This is the engine behind the D-VFS series of Figures 2 and 7.
package vfs

import (
	"fmt"

	"leap/internal/core"
	"leap/internal/datapath"
	"leap/internal/metrics"
	"leap/internal/pagecache"
	"leap/internal/paging"
	"leap/internal/prefetch"
	"leap/internal/sim"
	"leap/internal/storage"
)

// PID aliases prefetch.PID.
type PID = prefetch.PID

// Config parameterizes the simulated file system.
type Config struct {
	// Path selects legacy (block layer) or lean I/O.
	Path datapath.Config
	// CachePolicy and CacheCapacity configure the VFS cache.
	CachePolicy   pagecache.Policy
	CacheCapacity int
	// Prefetcher is consulted on reads; nil means none.
	Prefetcher prefetch.Prefetcher
	// Device is the backing store; nil defaults to remote memory.
	Device storage.Device
	// Seed drives the stochastic latency models.
	Seed uint64
}

// FS is the simulated remote file system. Not safe for concurrent use.
type FS struct {
	clock sim.Clock
	eng   *paging.Engine[struct{}]
	// none is the empty residency set: a file's pages live in the cache.
	none *paging.Resident

	// ReadLatency is the 4KB read latency distribution (the D-VFS CDFs).
	ReadLatency metrics.Histogram
	// Reads and Writes count the operations; the engine's Counters split
	// the reads by where the page was found.
	Reads, Writes int64
}

// New builds a file system simulator.
func New(cfg Config) *FS {
	return &FS{
		eng: paging.New[struct{}](paging.Config{
			Path:          cfg.Path,
			CachePolicy:   cfg.CachePolicy,
			CacheCapacity: cfg.CacheCapacity,
			Prefetcher:    cfg.Prefetcher,
			Device:        cfg.Device,
			Seed:          cfg.Seed,
		}),
		none: paging.NewResident(0),
	}
}

// Cache exposes the VFS cache.
func (f *FS) Cache() *pagecache.Cache { return f.eng.Cache() }

// Counters exposes the fault-path counters of the reads.
func (f *FS) Counters() *paging.Counters { return &f.eng.Counters }

// Now reports the current virtual time.
func (f *FS) Now() sim.Time { return f.clock.Now() }

// Write buffers one page write; data lands in the cache immediately and the
// device write proceeds asynchronously (write-behind). The returned latency
// is what the caller observes.
func (f *FS) Write(pid PID, page core.PageID, think sim.Duration) sim.Duration {
	f.clock.Advance(think)
	now := f.clock.Now()
	f.eng.FlushArrivals(now)
	lat := f.eng.Path().HitLatency() // buffered write: cache insert cost
	f.eng.Cache().Insert(page, false, now)
	f.eng.WriteThrough(int(pid), page, now)
	f.Writes++
	f.clock.Advance(lat)
	return lat
}

// Read fetches one page through the cache and returns the observed latency.
func (f *FS) Read(pid PID, page core.PageID, think sim.Duration) sim.Duration {
	f.clock.Advance(think)
	now := f.clock.Now()
	f.eng.FlushArrivals(now)
	f.Reads++
	lat, miss := f.eng.Fault(pid, int(pid), page, now)
	if miss {
		f.eng.Cache().Insert(page, false, now.Add(lat))
	}
	f.ReadLatency.Observe(lat)
	f.clock.Advance(lat)
	f.eng.OnAccess(struct{}{}, f.none, pid, int(pid), page, miss, f.clock.Now(), paging.HintNone, 0)
	return lat
}

// Summary renders the read-side outcome compactly.
func (f *FS) Summary() string {
	s := f.ReadLatency.Summarize()
	return fmt.Sprintf("reads=%d hits=%d misses=%d p50=%v p99=%v",
		f.Reads, f.eng.Counters.CacheHits, f.eng.Counters.CacheMisses, s.P50, s.P99)
}
