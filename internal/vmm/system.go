package vmm

import (
	"fmt"

	"leap/internal/core"
	"leap/internal/datapath"
	"leap/internal/pagecache"
	"leap/internal/prefetch"
	"leap/internal/sim"
	"leap/internal/storage"
)

// System is one of the paper's four swap stacks (§2.2, §5).
type System int

// The four systems, in the paper's order.
const (
	// SystemDisk swaps to local HDD through the stock kernel path: legacy
	// block layer, read-ahead, lazy reclaim.
	SystemDisk System = iota
	// SystemSSD swaps to local SSD through the stock kernel path.
	SystemSSD
	// SystemDVMM is Infiniswap-style remote paging on the stock path.
	SystemDVMM
	// SystemDVMMLeap is remote paging through the full Leap stack: lean
	// path, majority-trend prefetcher, eager eviction.
	SystemDVMMLeap
)

var systemNames = [...]string{"disk", "ssd", "d-vmm", "d-vmm+leap"}

// Valid reports whether s is one of the four systems.
func (s System) Valid() bool { return s >= 0 && int(s) < len(systemNames) }

// String is the name the figures give s.
func (s System) String() string {
	if !s.Valid() {
		return fmt.Sprintf("System(%d)", int(s))
	}
	return systemNames[s]
}

// Config returns s's stack seeded with seed, each call with a fresh
// prefetcher (and, on local media, a device model seeded from seed). The
// prefetch cache is left unbounded: the cgroup charge is what constrains it,
// so cache space competes with the application's resident set and pollution
// has a real cost. Config panics on a System that is not Valid.
func (s System) Config(seed uint64) Config {
	if !s.Valid() {
		panic("vmm: " + s.String() + " is not a system")
	}
	if s == SystemDVMMLeap {
		return Config{
			Path:        datapath.Config{Kind: datapath.Lean},
			CachePolicy: pagecache.EvictEager,
			Prefetcher:  prefetch.NewLeap(core.Config{}),
			Seed:        seed,
		}
	}
	pf, _ := prefetch.New("readahead")
	cfg := Config{
		Path:        datapath.Config{Kind: datapath.Legacy},
		CachePolicy: pagecache.EvictLazy,
		Prefetcher:  pf,
		Seed:        seed,
	}
	switch s {
	case SystemDisk:
		cfg.Device = storage.NewHDD(sim.NewRNG(seed ^ 0xd15c))
	case SystemSSD:
		cfg.Device = storage.NewSSD(sim.NewRNG(seed ^ 0x55d))
	}
	return cfg
}
