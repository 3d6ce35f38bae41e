package core

import "fmt"

// Config parameterizes a Predictor. The zero value is usable: each field
// falls back to the paper's default (§5: Hsize=32, PWsizemax=8, Nsplit=2).
type Config struct {
	// HistorySize is Hsize, the number of deltas retained per process.
	HistorySize int
	// NSplit controls the smallest trend-detection window, Hsize/NSplit.
	NSplit int
	// MaxPrefetchWindow is PWsizemax, the cap on pages prefetched per fault.
	MaxPrefetchWindow int
	// StrictDetection replaces the majority vote with strict matching: a
	// trend is detected only when every delta in the window agrees. This
	// exists solely for the majority-vs-strict ablation — it is the rigid
	// behaviour the paper's §2.3 argues against.
	StrictDetection bool
}

// Defaults used when a Config field is zero, matching the paper's evaluation
// setup.
const (
	DefaultHistorySize       = 32
	DefaultNSplit            = 2
	DefaultMaxPrefetchWindow = 8
)

func (c Config) withDefaults() Config {
	if c.HistorySize == 0 {
		c.HistorySize = DefaultHistorySize
	}
	if c.NSplit == 0 {
		c.NSplit = DefaultNSplit
	}
	if c.MaxPrefetchWindow == 0 {
		c.MaxPrefetchWindow = DefaultMaxPrefetchWindow
	}
	return c
}

func (c Config) validate() error {
	if c.HistorySize < 2 {
		return fmt.Errorf("core: HistorySize %d, need >= 2", c.HistorySize)
	}
	if c.NSplit < 1 || c.NSplit > c.HistorySize {
		return fmt.Errorf("core: NSplit %d, need 1..HistorySize", c.NSplit)
	}
	if c.MaxPrefetchWindow < 1 {
		return fmt.Errorf("core: MaxPrefetchWindow %d, need >= 1", c.MaxPrefetchWindow)
	}
	return nil
}

// Stats counts predictor activity. All fields are cumulative.
type Stats struct {
	// Faults is the number of recorded page accesses.
	Faults int64
	// TrendHits counts faults where FindTrend detected a majority delta.
	TrendHits int64
	// Speculative counts prefetch decisions taken without a current majority
	// (Algorithm 2 line 25: window issued around Pt with the latest trend).
	Speculative int64
	// Suspended counts faults where prefetching was fully suspended
	// (PWsize = 0).
	Suspended int64
	// PagesPredicted is the total number of candidate pages produced.
	PagesPredicted int64
	// WindowGrowths and WindowShrinks track PWsize transitions.
	WindowGrowths int64
	WindowShrinks int64
	// AheadPages counts pages produced on prefetch hits (AheadInto) rather
	// than on misses; they are not part of PagesPredicted.
	AheadPages int64
}

// Predictor is the per-process Leap prefetch engine: an AccessHistory plus
// the adaptive prefetch-window state of Algorithm 2. It is not safe for
// concurrent use; the owning data path serializes calls.
type Predictor struct {
	cfg  Config
	hist *AccessHistory

	lastAddr PageID
	hasLast  bool

	// trend is the latest majority delta detected by FindTrend ("current
	// trend" in the paper); it persists across faults where no majority
	// exists so the speculative branch can keep using it.
	trend    int64
	hasTrend bool

	// prevWindow is PWsize(t-1); hits is Chit, prefetched-cache hits observed
	// since the last prefetch decision.
	prevWindow int
	hits       int

	// Run-ahead state (AheadInto): frontier is the furthest page issued along
	// the trend, depth how many stride steps past the stream's position issue
	// may reach. depth 0 means Algorithm 2 alone is in control; a miss with a
	// current trend sets both from its window, any other miss and a prefetch
	// hit off the trend clear depth.
	frontier PageID
	depth    int

	stats Stats
}

// NewPredictor returns a Predictor for one process. Zero Config fields take
// the paper's defaults; invalid explicit values panic, as misconfiguration
// is a programming error.
func NewPredictor(cfg Config) *Predictor {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		panic(err)
	}
	return &Predictor{cfg: cfg, hist: NewAccessHistory(cfg.HistorySize)}
}

// Config reports the effective (defaulted) configuration.
func (p *Predictor) Config() Config { return p.cfg }

// Stats reports a copy of the cumulative statistics.
func (p *Predictor) Stats() Stats { return p.stats }

// History exposes the underlying access history for inspection (tests,
// debugging, the Fig. 3 classifier).
func (p *Predictor) History() *AccessHistory { return p.hist }

// Window reports the current prefetch window size PWsize — the page count
// the most recent decision issued (0 while suspended). It grows with
// NoteHit feedback and shrinks smoothly without it (Algorithm 2).
func (p *Predictor) Window() int { return p.prevWindow }

// NoteHit informs the predictor that one of its previously predicted pages
// was consumed from the cache. This is Chit in Algorithm 2: the feedback
// signal that grows the prefetch window.
func (p *Predictor) NoteHit() { p.hits++ }

// Record logs a page access (the paper's log_access_history hook in
// do_swap_page): it appends the delta from the previous access to the
// history. The first access establishes the base address only.
func (p *Predictor) Record(addr PageID) {
	p.stats.Faults++
	if p.hasLast {
		p.hist.Push(int64(addr) - int64(p.lastAddr))
	}
	p.lastAddr = addr
	p.hasLast = true
}

// Predict implements DoPrefetch (Algorithm 2) for a fault on page addr,
// returning the pages to prefetch (possibly none). Record(addr) must have
// been called first; OnFault does both.
func (p *Predictor) Predict(addr PageID) []PageID {
	return p.PredictInto(addr, nil)
}

// OnFault is the common fault-path entry: Record followed by PredictInto.
func (p *Predictor) OnFault(addr PageID, dst []PageID) []PageID {
	p.Record(addr)
	return p.PredictInto(addr, dst)
}

// PredictInto is Predict with a caller-supplied backing slice, which it
// appends to and returns (same contract as append).
func (p *Predictor) PredictInto(addr PageID, dst []PageID) []PageID {
	// Refresh the current trend. FindTrend is O(Hsize) with Hsize=32 by
	// default — the paper's measured overhead argument (§3.3) is exactly
	// that this is cheap enough to run on every fault.
	var delta int64
	var found bool
	if p.cfg.StrictDetection {
		delta, found = FindTrendStrict(p.hist, p.cfg.NSplit)
	} else {
		delta, found = FindTrend(p.hist, p.cfg.NSplit)
	}
	if found {
		p.trend = delta
		p.hasTrend = true
		p.stats.TrendHits++
	}

	window := p.windowSize(found)
	p.depth = 0
	if window == 0 {
		p.stats.Suspended++
		return dst
	}

	useDelta := p.trend // current trend if found, else latest known (line 25)
	speculative := !found
	if found && delta == 0 {
		// A zero majority delta carries no direction (same page re-faulting);
		// treat it as trendless and fall back to the speculative branch.
		speculative = true
	}
	if speculative {
		p.stats.Speculative++
	}

	before := len(dst)
	if speculative && !p.hasTrend {
		// No trend has ever been seen: bring the window's worth of pages
		// around Pt (alternating +1, -1, +2, ...), the closest neighbors.
		for k := 1; len(dst)-before < window; k++ {
			if c := addr + PageID(k); c >= 0 {
				dst = append(dst, c)
			}
			if len(dst)-before >= window {
				break
			}
			if c := addr - PageID(k); c >= 0 {
				dst = append(dst, c)
			}
			if k > window {
				break
			}
		}
	} else {
		d := useDelta
		if speculative && d == 0 {
			d = 1
		}
		for k := 1; k <= window; k++ {
			c := addr + PageID(int64(k)*d)
			if c < 0 {
				break
			}
			dst = append(dst, c)
		}
		if !speculative {
			p.frontier, p.depth = addr+PageID(int64(window)*d), window
		}
	}
	p.stats.PagesPredicted += int64(len(dst) - before)
	return dst
}

// AheadInto is the hit-side counterpart of PredictInto, for a data path whose
// fetches take long enough that a window issued at a miss arrives late
// however accurate it is: called when the access at addr (already Recorded)
// consumed a prefetched page, it keeps issue whole frames ahead of the stream.
// While every such access since the last miss has followed its trend, each
// call lets depth grow by a page — from the miss's window up to limit — and
// appends to dst (same contract as append) every whole frame of pages beyond
// the frontier that lies within depth strides of addr and within room, the
// pages the data path can take now, moving the frontier over them; a stream
// with train pages or more ahead of it waits until they make a train (at limit
// too: it keeps from limit less a train to limit ahead), for a data path whose
// doorbell costs the same whatever it carries (train = frame: none). The
// frontier thus advances two pages for each one the stream consumes until the
// pages in flight cover the fetch latency (Linux read-ahead's async marker
// doubles its window once per window consumed, the same slope), and a stream
// that ends after n hits leaves at most its window plus n pages unused: room
// and train decide when frames leave, never how far. The paper's PWsizemax,
// sized for a 4 us RDMA hop, still bounds what a miss issues. A limit below
// frame issues nothing and leaves the ramp where it is.
func (p *Predictor) AheadInto(addr PageID, frame, train, limit, room int, dst []PageID) []PageID {
	if p.depth == 0 {
		return dst
	}
	gap := int64(p.frontier) - int64(addr)
	lead := gap / p.trend
	if !p.followsTrend() || gap%p.trend != 0 || lead < 0 {
		// Off the stream, or past anything issued along it (another client's
		// prefetches served the access): the next miss decides again.
		p.depth = 0
		return dst
	}
	if limit < frame {
		return dst
	}
	p.depth = min(p.depth+1, limit)
	pages := max(min(int64(p.depth)-lead, int64(room)), 0) / int64(frame) * int64(frame)
	if pages < int64(train) && lead >= int64(train) {
		return dst
	}
	before := len(dst)
	for k := int64(1); k <= pages; k++ {
		c := p.frontier + PageID(k*p.trend)
		if c < 0 {
			break
		}
		dst = append(dst, c)
	}
	p.frontier += PageID(pages * p.trend)
	p.stats.AheadPages += int64(len(dst) - before)
	return dst
}

// windowSize implements GetPrefetchWindowSize (Algorithm 2 lines 1–17).
func (p *Predictor) windowSize(trendFound bool) int {
	var w int
	if p.hits == 0 {
		// No prefetched page was consumed since the last decision.
		if trendFound && p.followsTrend() {
			w = 1 // keep a minimal window along the trend
		} else {
			w = 0 // suspend
		}
	} else {
		w = ceilPow2(p.hits + 1)
		if w > p.cfg.MaxPrefetchWindow {
			w = p.cfg.MaxPrefetchWindow
		}
	}
	// Smooth shrink: never drop below half the previous window at once, so a
	// transient miss burst cannot instantly kill an established pattern.
	if w < p.prevWindow/2 {
		w = p.prevWindow / 2
	}
	switch {
	case w > p.prevWindow:
		p.stats.WindowGrowths++
	case w < p.prevWindow:
		p.stats.WindowShrinks++
	}
	p.hits = 0
	p.prevWindow = w
	return w
}

// followsTrend reports whether the most recent recorded delta equals the
// current trend ("Pt follows the current trend", Algorithm 2 line 6).
func (p *Predictor) followsTrend() bool {
	if !p.hasTrend || p.hist.Len() == 0 {
		return false
	}
	return p.hist.At(0) == p.trend
}

// Reset clears all learned state, as on process exit/exec.
func (p *Predictor) Reset() {
	p.hist.Reset()
	p.hasLast = false
	p.hasTrend = false
	p.trend = 0
	p.prevWindow = 0
	p.hits = 0
	p.depth = 0
	p.stats = Stats{}
}

// ceilPow2 rounds n up to the next power of two (n >= 1).
func ceilPow2(n int) int {
	if n <= 1 {
		return 1
	}
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}
