// Package prefetch defines the common prefetcher interface consumed by the
// paging data path, and implements the paper's four competitors:
//
//   - None: no prefetching (lower bound).
//   - Next-N-Line [Mittal'16 survey, §5.2.3]: on every fault bring the next
//     N sequentially adjacent pages, unconditionally.
//   - Stride [Baer & Chen '91]: confirm a stride over consecutive faults and
//     fetch along it; depth adapts to measured usefulness.
//   - Read-Ahead: Linux's swap read-ahead — an aligned block of pages
//     around the fault, with a window that doubles after sequential faults
//     and halves otherwise (access history of size 2, hit-driven
//     aggressiveness).
//   - Leap: the paper's majority-trend predictor (internal/core), isolated
//     per process.
//
// The baselines deliberately observe the *global* fault stream (no process
// isolation), reproducing the Linux behaviour the paper criticizes in §2.3;
// Leap keeps per-process state. The adapter's Shared knob flips Leap to a
// single global predictor for the isolation ablation.
package prefetch

import (
	"fmt"
	"sort"

	"leap/internal/core"
)

// PageID aliases core.PageID: a 4KB page index in the remote/swap space.
type PageID = core.PageID

// PID identifies a simulated process.
type PID int

// Prefetcher decides which pages to bring into the cache after each
// remote-page access. Implementations are not safe for concurrent use; the
// data path serializes calls.
//
// The miss flag mirrors the kernel structure: every swap-in fault (minor or
// major) is observed, but candidates are only generated on cache misses —
// swapin_readahead, and Leap's do_prefetch that replaces it, sit on the
// major-fault path. Hits between two misses accumulate as feedback
// (OnPrefetchHit) that adaptive prefetchers use to size the next window.
type Prefetcher interface {
	// Name reports a stable identifier ("leap", "readahead", ...).
	Name() string
	// OnAccess records that process pid touched page (a fault or a
	// prefetch-cache hit — both reach the swap-in path). When miss is true
	// (the page had to be fetched) it appends the pages to prefetch to dst.
	// It returns dst.
	OnAccess(pid PID, page PageID, miss bool, dst []PageID) []PageID
	// OnPrefetchHit reports that a previously prefetched page was consumed
	// by pid — the feedback signal adaptive prefetchers use.
	OnPrefetchHit(pid PID)
	// Reset discards all learned state.
	Reset()
}

// RunAhead is the optional hit-side half of a Prefetcher, for data paths whose
// fetches outlast a window (see core.Predictor.AheadInto). Ahead is called
// after OnAccess, when pid's access to page consumed a prefetched page, and
// appends to dst the pages to issue now so that up to limit pages stay in
// flight ahead of pid's stream: whole frames of them, as many as room pages
// hold, train pages at a time once the stream has that many ahead of it. It
// returns dst.
type RunAhead interface {
	Ahead(pid PID, page PageID, frame, train, limit, room int, dst []PageID) []PageID
}

// Factory builds a fresh Prefetcher.
type Factory func() Prefetcher

var registry = map[string]Factory{}

// Register installs a factory under name; it panics on duplicates (a
// programming error at init time).
func Register(name string, f Factory) {
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("prefetch: duplicate registration %q", name))
	}
	registry[name] = f
}

// New builds a registered prefetcher by name.
func New(name string) (Prefetcher, error) {
	f, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("prefetch: unknown prefetcher %q (have %v)", name, Names())
	}
	return f(), nil
}

// Names reports the registered prefetcher names, sorted.
func Names() []string {
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func init() {
	Register("none", func() Prefetcher { return None{} })
	Register("nextnline", func() Prefetcher { return NewNextNLine(8) })
	Register("stride", func() Prefetcher { return NewStride(8) })
	Register("readahead", func() Prefetcher { return NewReadAhead(8) })
	Register("ghb", func() Prefetcher { return NewGHB(8) })
	Register("leap", func() Prefetcher { return NewLeap(core.Config{}) })
}

// None never prefetches.
type None struct{}

// Name implements Prefetcher.
func (None) Name() string { return "none" }

// OnAccess implements Prefetcher.
func (None) OnAccess(_ PID, _ PageID, _ bool, dst []PageID) []PageID { return dst }

// OnPrefetchHit implements Prefetcher.
func (None) OnPrefetchHit(PID) {}

// Reset implements Prefetcher.
func (None) Reset() {}
