package runtime

import (
	"fmt"
	"slices"

	"leap/internal/core"
	"leap/internal/prefetch"
	"leap/internal/remote"
)

// Client is a handle binding one logical client — the paper's "process" —
// to a shared Memory. Leap §4.1 splits the fault stream per PID so one
// process's interleaved pattern cannot pollute another's trend detection;
// Client is that split at the runtime surface: every operation through a
// Client feeds the predictor owned by its id (created on first fault),
// while the page cache, the residency budget and the remote host stay
// shared across all clients, exactly as processes share a kernel.
//
// Handles are cheap and independent: create one per goroutine with
// Memory.Client — several handles may carry the same id, and they then
// share that id's predictor. A single handle is not safe for concurrent
// use (Get returns a buffer owned by the handle); the Memory underneath
// serializes all of them. Client id 0 shares its predictor with the
// Memory's own ReadAt/WriteAt/Get, which run as client 0.
type Client struct {
	m   *Memory
	pid prefetch.PID
	buf []byte
}

// Client returns a new handle for logical client id (negative ids are
// clamped to 0). See Client for the isolation and sharing semantics.
func (m *Memory) Client(id int) *Client {
	if id < 0 {
		id = 0
	}
	return &Client{m: m, pid: prefetch.PID(id), buf: make([]byte, remote.PageSize)}
}

// ID reports the logical client id this handle feeds.
func (c *Client) ID() int { return int(c.pid) }

// Memory reports the shared runtime underneath the handle.
func (c *Client) Memory() *Memory { return c.m }

// ReadAt implements io.ReaderAt over the shared paged address space,
// recording the faults with this client's predictor.
func (c *Client) ReadAt(p []byte, off int64) (int, error) { return c.m.readAt(c.pid, p, off) }

// WriteAt implements io.WriterAt over the shared paged address space,
// recording the faults with this client's predictor.
func (c *Client) WriteAt(p []byte, off int64) (int, error) { return c.m.writeAt(c.pid, p, off) }

// Get faults page pg in (prefetching around it, driven by this client's
// predictor) and returns its 4KB image. The returned slice is owned by the
// handle and reused by its next Get — copy it to retain; the copy is made
// under the fault-path lock, so unlike Memory.Get the bytes are stable
// under concurrency.
func (c *Client) Get(pg core.PageID) ([]byte, error) {
	if err := c.m.getInto(c.pid, pg, c.buf); err != nil {
		return nil, err
	}
	return c.buf, nil
}

// PredictorStats reports this client's predictor statistics, when the
// Memory runs the Leap prefetcher. ok is false for other policies, or before
// the client's first fault created a predictor. With WithShards beyond 1
// each stripe owns a separate predictor for this client; the counts are
// summed across stripes (core.Stats fields are additive tallies).
func (c *Client) PredictorStats() (st core.Stats, ok bool) {
	for _, s := range c.m.shards {
		s.mu.Lock()
		lp, isLeap := s.eng.Prefetcher().(*prefetch.Leap)
		if !isLeap {
			s.mu.Unlock()
			return core.Stats{}, false
		}
		ps, found := lp.ProcessStats()[c.pid]
		s.mu.Unlock()
		if !found {
			continue
		}
		ok = true
		st.Faults += ps.Faults
		st.TrendHits += ps.TrendHits
		st.Speculative += ps.Speculative
		st.Suspended += ps.Suspended
		st.PagesPredicted += ps.PagesPredicted
		st.WindowGrowths += ps.WindowGrowths
		st.WindowShrinks += ps.WindowShrinks
		st.AheadPages += ps.AheadPages
	}
	return st, ok
}

// Advice is an madvise-style access-pattern hint for Client.Advise.
type Advice uint8

const (
	// AdviseNormal clears earlier hints on the range: the configured
	// prefetching policy drives the range again.
	AdviseNormal Advice = iota
	// AdviseSequential declares a forward scan over the range: every fault
	// in it issues a straight-line window of the next pages (clamped to
	// the range end), bypassing the predictor's own candidates.
	AdviseSequential
	// AdviseRandom declares random access over the range: faults in it
	// issue no prefetches at all — no window can help, so none pollutes.
	AdviseRandom
	// AdviseWillNeed warms the range immediately: its pages are prefetched
	// now through the normal deduplicated prefetch path (resident, cached,
	// in-flight, sealed and in-demand pages are skipped, so read-your-
	// writes is never at risk), with real bytes fetched underneath. A
	// stripe warms no more of the range than its residency budget holds:
	// pages beyond that would be reclaimed before anyone read them.
	AdviseWillNeed
)

// Advise declares this client's access pattern for pages [start,
// start+pages) — the runtime counterpart of madvise(2), grounded in 3PO's
// programmed-hints line. Range hints (Sequential, Random, Normal) are
// sticky: they steer candidate generation on every later fault by this
// client in the range, with the newest declaration winning on overlap.
// AdviseWillNeed acts once, immediately. Hints steer prefetch issue only —
// the predictor still observes every access, and no hint can bypass the
// fault path's correctness machinery. Safe for concurrent use.
func (c *Client) Advise(a Advice, start core.PageID, pages int) error {
	m := c.m
	if err := m.loadErr(); err != nil {
		return err
	}
	if start < 0 {
		return fmt.Errorf("leap: negative advise start page %d", start)
	}
	if pages <= 0 {
		return fmt.Errorf("leap: advise over %d pages, need > 0", pages)
	}
	end := start + core.PageID(pages)
	switch a {
	case AdviseWillNeed:
		var buf []core.PageID
		for _, s := range m.shards {
			buf = buf[:0]
			for pg := start; pg < end && len(buf) < int(s.res.Limit); pg++ {
				if m.shardFor(pg) == s {
					buf = append(buf, pg)
				}
			}
			if len(buf) == 0 {
				continue
			}
			s.mu.Lock()
			now := m.clock.Now()
			s.eng.FlushArrivals(now)
			s.eng.Prefetch(s, s.res, 0, buf, now)
			s.mu.Unlock()
		}
		return m.loadErr()
	case AdviseNormal, AdviseSequential, AdviseRandom:
		r := hintRange{start: start, end: end, advice: a}
		for _, s := range m.shards {
			s.mu.Lock()
			if s.hints == nil {
				s.hints = make(map[prefetch.PID][]hintRange)
			}
			// A declaration the new one covers can never win again.
			rs := slices.DeleteFunc(s.hints[c.pid], func(old hintRange) bool {
				return r.start <= old.start && old.end <= r.end
			})
			s.hints[c.pid] = append(rs, r)
			s.mu.Unlock()
		}
		return nil
	default:
		return fmt.Errorf("leap: unknown advice %d", a)
	}
}
