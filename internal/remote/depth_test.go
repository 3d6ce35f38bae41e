package remote

import (
	"bytes"
	"testing"
	"time"

	"leap/internal/core"
)

// pipeReader reads a host's pages in frames of 8 the way a scan over the
// runtime does: it keeps as many frames in flight as the host's headroom allows — and as its
// own limit does, when it has one, the way a stripe's budget caps a stream,
// waiting at the limit with a train's worth in flight until a train fits —
// collects the oldest, and takes pace over every page. Frame k is the 8 pages
// from page(k) on, 8k when page is nil.
type pipeReader struct {
	t      *testing.T
	h      *Host
	clock  *FakeClock
	pace   time.Duration
	page   func(k int) core.PageID
	limit  int // pages the reader itself lets be in flight, 0 for no limit
	next   int // the first frame not issued
	flying [][]*Ticket
	bufs   [][][]byte
	// doorbells counts the issues made from the headroom, and least is the
	// fewest pages seen in flight once such an issue had had its chance.
	doorbells, least int
}

func (r *pipeReader) first(k int) core.PageID {
	if r.page != nil {
		return r.page(k)
	}
	return core.PageID(8 * k)
}

func (r *pipeReader) ahead() Headroom {
	r.h.mu.Lock()
	defer r.h.mu.Unlock()
	return r.h.ahead()
}

// issue puts the next n frames in flight with one doorbell.
func (r *pipeReader) issue(n int) {
	for ; n > 0; n-- {
		ts, bs := make([]*Ticket, 8), make([][]byte, 8)
		for i := range ts {
			bs[i] = make([]byte, PageSize)
			ts[i] = r.h.ReadPageAsync(r.first(r.next)+core.PageID(i), bs[i])
		}
		r.flying, r.bufs = append(r.flying, ts), append(r.bufs, bs)
		r.next++
	}
	if _, err := r.h.Submit(); err != nil {
		r.t.Fatal(err)
	}
}

// frames reads the next n frames and returns how long the reader was blocked
// on the wire and the most pages it saw in flight.
func (r *pipeReader) frames(n int) (blocked time.Duration, peak int) {
	r.t.Helper()
	for k := r.next - len(r.flying); n > 0; k, n = k+1, n-1 {
		a := r.ahead()
		fit := a.Room / a.Frame
		if r.limit > 0 {
			fit = min(fit, r.limit/a.Frame-len(r.flying))
			if fit*a.Frame < a.Train && len(r.flying)*a.Frame >= a.Train {
				fit = 0
			}
		}
		if fit > 0 {
			r.issue(fit)
			r.doorbells++
		}
		if len(r.flying) == 0 {
			r.issue(1) // a miss
		}
		_, flying, bound := r.h.Pipeline()
		r.least = min(r.least, flying)
		if flying > bound {
			r.t.Fatalf("%d pages in flight, above the %d the host may leave unread", flying, bound)
		}
		peak = max(peak, flying)
		ts, bs := r.flying[0], r.bufs[0]
		r.flying, r.bufs = r.flying[1:], r.bufs[1:]
		for i, t := range ts {
			b, err := t.Collect()
			if err != nil {
				r.t.Fatal(err)
			}
			blocked += b
			if pg := int(r.first(k)) + i; !bytes.Equal(bs[i], stamp(pg)) {
				r.t.Fatalf("page %d: wrong bytes", pg)
			}
			r.clock.Advance(r.pace)
		}
	}
	return blocked, peak
}

// timed is a link's time: its delay, its agent's service time a frame, and the
// take of a response (ScriptedLink.SetTiming).
type timed struct{ delay, service, take time.Duration }

// timedHost returns a host on a fake clock over links of mode, one agent each,
// timed as given, holding stamp(pg) in pages [0, pages), and a reader of it at
// pace a page.
func timedHost(t *testing.T, pages int, pace time.Duration, mode Mode, timing ...timed) (*Host, *pipeReader, []*ScriptedLink) {
	t.Helper()
	clock := NewFakeClock()
	links := make([]*ScriptedLink, len(timing))
	trs := make([]Transport, len(timing))
	for i, tm := range timing {
		links[i] = NewScriptedLink(NewInProc(NewAgent(1024, 0)), mode, clock, nil)
		links[i].SetTiming(tm.delay, tm.service, tm.take)
		trs[i] = links[i].Transport()
	}
	h := newHost(t, HostConfig{SlabPages: 1024, Replicas: 1, QueueDepth: 8, Seed: 1}, trs)
	clock.Drive(h)
	t.Cleanup(func() { h.Close() })
	for pg := 0; pg < pages; pg++ {
		if err := h.WritePage(core.PageID(pg), stamp(pg)); err != nil {
			t.Fatal(err)
		}
	}
	return h, &pipeReader{t: t, h: h, clock: clock, pace: pace, least: 1 << 30}, links
}

// TestDepthCoversALinkThatGotSlower: a 200 us link under a reader that takes
// 4 us a page becomes four times slower, then (from 200 us again) three times.
// The first makes the reader wait longer than the link was thought to take at
// all, and within a few dozen frames the link is measured again; the second
// hides behind the headroom — the waits it causes are shorter than a queue
// could — and is caught when the estimate has aged staleAfter round trips.
// Either way the pipeline ends up covering the link as it is, and the reader
// waits no more than the leak's probing costs.
func TestDepthCoversALinkThatGotSlower(t *testing.T) {
	const pace, was = 4 * time.Microsecond, 200 * time.Microsecond
	for _, c := range []struct {
		name   string
		slower time.Duration
		within int // frames
	}{
		{"fourfold", 4 * was, 192},
		{"threefold", 3 * was, int(staleAfter * was / (8 * pace) * 3 / 2)},
	} {
		t.Run(c.name, func(t *testing.T) {
			h, r, l := timedHost(t, 1<<17, pace, Split, timed{delay: was})
			r.frames(1024)
			blocked, _ := r.frames(64)
			if lat := h.FetchLatency()[0]; lat != was || blocked > 64*8*pace/20 {
				t.Fatalf("at %v: link taken for %v, reader blocked %v over 64 frames", was, lat, blocked)
			}
			l[0].SetTiming(c.slower, 0, 0)
			r.frames(c.within)
			lat := h.FetchLatency()[0]
			r.frames(256) // the pipeline deepens, and the leak finds its level
			blocked, peak := r.frames(64)
			depth, _, _ := h.Pipeline()
			t.Logf("at %v: link taken for %v, depth %d, at most %d pages in flight, reader blocked %v over 64 frames",
				c.slower, h.FetchLatency()[0], depth, peak, blocked)
			if lat != c.slower {
				t.Errorf("link taken for %v %d frames after it slowed to %v", lat, c.within, c.slower)
			}
			if need := int(c.slower / pace); peak < need {
				t.Errorf("at most %d pages in flight, the link needs %d", peak, need)
			}
			if blocked > 64*8*pace/20 {
				t.Errorf("reader blocked %v over 64 frames once the link was measured again", blocked)
			}
		})
	}
}

// TestDepthIsTheSlowestLinks: frames come alternately from a 1 ms link and from
// one with no delay whose agent, at 100 us a frame, is what holds the reader
// up — so the fast link's reaps block all the time and sample all the time,
// and say a few frames are enough. That must not take away what the slow link
// needs: depth is the most any link asks for, not what the last sampler did.
func TestDepthIsTheSlowestLinks(t *testing.T) {
	slow, fast := timed{delay: time.Millisecond}, timed{service: 100 * time.Microsecond}
	h, r, _ := timedHost(t, 16*1024, 4*time.Microsecond, Split, slow, fast)
	var on [2][]core.PageID // first pages of the slabs on each link
	for slab := 0; slab < 16; slab++ {
		h.mu.Lock()
		p, err := h.placement(SlabID(slab))
		h.mu.Unlock()
		if err != nil {
			t.Fatal(err)
		}
		on[p[0]] = append(on[p[0]], core.PageID(slab*1024))
	}
	if len(on[0]) < 4 || len(on[1]) < 4 {
		t.Fatalf("placement put %d slabs on one link and %d on the other", len(on[0]), len(on[1]))
	}
	r.page = func(k int) core.PageID { return on[k%2][k/2/128] + core.PageID(k/2%128*8) }
	r.frames(256)
	// The agent lets two frames through every 100 us, one from each link.
	need := int(time.Millisecond / (50 * time.Microsecond) * 8)
	least, slowBlocked := 1<<30, time.Duration(0)
	for k := 0; k < 512; k++ {
		blocked, _ := r.frames(1)
		if k%2 == 0 {
			slowBlocked += blocked
		}
		depth, _, _ := h.Pipeline()
		least = min(least, depth)
	}
	depth, _, _ := h.Pipeline()
	t.Logf("links taken for %v; over 512 frames depth never under %d and %d at the end, reader blocked %v on the slow link's frames",
		h.FetchLatency(), least, depth, slowBlocked)
	// The fast link's first flights were started with a queue ahead of them
	// (an unmeasured host allows its bound): it is measured empty all the same.
	if lat := h.FetchLatency()[1]; lat > 2*fast.service {
		t.Errorf("fast link taken for %v, its agent serves a frame in %v", lat, fast.service)
	}
	// Its waits, which no depth shortens, must not keep the pipeline at the
	// bound it started from either: twice what the reader could use at its
	// own pace over the slow link, and the quanta, is the most it is worth.
	if most := 2*int(slow.delay/r.pace) + 3*8; depth > most {
		t.Errorf("depth %d at the end, want %d at most", depth, most)
	}
	// The leak's probing takes depth a little under the need now and then,
	// and the reader waits a little for it; a depth set by the fast link's
	// samples sits at a third of the need, and the reader waits ten times that.
	if least < need*3/4 {
		t.Errorf("depth fell to %d, the slow link needs %d", least, need)
	}
	if slowBlocked > 2*time.Millisecond {
		t.Errorf("reader blocked %v on the slow link's frames", slowBlocked)
	}
}

// TestDepthIsGivenBackToAFasterLink: a 1 ms link becomes a 50 us one under a
// reader that takes 4 us a page and 10 us to take a frame's response. Nothing
// blocks any more, so there is no sample to say so: the leak has to find it,
// within 256 frames, telling the 10 us every reap costs from a wait.
func TestDepthIsGivenBackToAFasterLink(t *testing.T) {
	const pace = 4 * time.Microsecond
	h, r, l := timedHost(t, 1<<16, pace, Split, timed{delay: time.Millisecond, take: 10 * time.Microsecond})
	r.frames(1024)
	_, deep := r.frames(64)
	l[0].SetTiming(50*time.Microsecond, 0, 10*time.Microsecond)
	r.frames(256)
	blocked, peak := r.frames(64)
	depth, _, _ := h.Pipeline()
	t.Logf("at most %d pages in flight at 1 ms; 256 frames after the link sped up to 50 us: depth %d, at most %d pages in flight, link taken for %v, reader blocked %v over 64 frames",
		deep, depth, peak, h.FetchLatency()[0], blocked)
	if need := int(time.Millisecond / pace); deep < need {
		t.Fatalf("test premise: at most %d pages in flight at 1 ms, the link needs %d", deep, need)
	}
	// 50 us and the 10 us of the take, at 250 pages/ms, twice over, the quanta,
	// and a frame of the leak's last step.
	if most := 2*15 + 3*8 + 8; depth > most {
		t.Errorf("depth %d 256 frames after the link sped up, want %d at most", depth, most)
	}
	if blocked > 64*8*pace/20 {
		t.Errorf("reader blocked %v over 64 frames", blocked)
	}
}

// TestIssueMovesInTrains: issue resumes when a frame of depth is free, as it
// always has, and then moves a train, the rest of it over depth. Over a 200 us
// link read at 4 us a page — a product of 50 pages — a doorbell carries three
// frames, the pages in flight never fall more than a frame below the product
// the host goes by (nor below depth less a frame), and the reader waits no more
// than the leak's probing costs. A reader whose own limit binds below the
// product is never held by the host. It moves trains too, waiting with a train
// less a frame below its limit; one whose limit is less than two trains never
// has a train's worth in flight to wait with, and issues frame by frame.
func TestIssueMovesInTrains(t *testing.T) {
	const pace, delay, product = 4 * time.Microsecond, 200 * time.Microsecond, 50
	for _, c := range []struct {
		name   string
		limit  int
		least  int  // pages in flight at the limit, at the least
		trains bool // at the limit
	}{{"no limit", 0, 0, true}, {"a limit of half the product", 24, 16, false}, {"a limit of two trains", 48, 32, true}} {
		t.Run(c.name, func(t *testing.T) {
			h, r, _ := timedHost(t, 1<<16, pace, Trains, timed{delay: delay})
			r.limit = c.limit
			r.frames(1024)
			r.doorbells = 0
			from, held, least, blocked := r.next, 0, 1<<30, time.Duration(0)
			for k := 0; k < 512; k++ {
				if r.ahead().Room == 0 {
					held++
				}
				h.mu.Lock()
				want := max(h.links[0].need, h.depth-8) // the product the host goes by as the frame is read
				h.mu.Unlock()
				if c.limit > 0 {
					want = min(want, c.least+8)
				}
				r.least = 1 << 30
				b, _ := r.frames(1)
				blocked += b
				if r.least < want-8 {
					t.Fatalf("frame %d: %d pages in flight with a product of %d taken", k, r.least, want)
				}
				least = min(least, r.least)
			}
			r.least = least
			perBell := float64(r.next-from) / float64(r.doorbells)
			t.Logf("%.2f frames a doorbell, issue held at %d of 512 frames, never under %d pages in flight, reader blocked %v",
				perBell, held, least, blocked)
			if c.limit == 0 {
				if perBell < 2.5 || held == 0 {
					t.Errorf("%.2f frames a doorbell with issue held %d times: no trains", perBell, held)
				}
				if r.least < product-8 {
					t.Errorf("pages in flight fell to %d, the link needs %d", r.least, product)
				}
				if blocked > 512*8*pace/20 {
					t.Errorf("reader blocked %v over 512 frames", blocked)
				}
			} else if c.trains && perBell < 2.5 || !c.trains && perBell != 1 || held > 0 || r.least < c.least {
				t.Errorf("%.2f frames a doorbell, issue held %d times, %d pages in flight at the least: want trains %v, never under %d at the limit of %d",
					perBell, held, r.least, c.trains, c.least, c.limit)
			}
		})
	}
}
