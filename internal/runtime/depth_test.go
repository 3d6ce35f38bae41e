package runtime

import (
	"testing"
	"time"

	"leap/internal/core"
	"leap/internal/remote"
)

// scanner scans a Memory's pages in order, wrapping, a frame of 8 at a time,
// every page verified.
type scanner struct {
	t     *testing.T
	m     *Memory
	h     *remote.Host
	pages core.PageID
	next  core.PageID
	// step, when set, is called after every page.
	step func()
}

// frames scans n frames and returns the most pages seen in flight after any of
// them, with the wall time the scan took.
func (s *scanner) frames(n int) (peak int, took time.Duration) {
	s.t.Helper()
	t0 := time.Now()
	for i := 0; i < n; i++ {
		for k := 0; k < 8; k++ {
			checkPage(s.t, s.m, s.next)
			if s.step != nil {
				s.step()
			}
			if s.next++; s.next == s.pages {
				s.next = 0
			}
		}
		_, flying, bound := s.h.Pipeline()
		if flying > bound {
			s.t.Fatalf("%d pages in flight, above the %d the host may leave unread", flying, bound)
		}
		peak = max(peak, flying)
	}
	return peak, time.Since(t0)
}

// newScanner stores image(pg) in pages [0, pages) of a Memory over tr with a
// budget of capacity pages, and scans them once to settle the predictor and
// push out populate's dirty residue.
func newScanner(t *testing.T, tr remote.Transport, clock *remote.FakeClock, pages, capacity int) *scanner {
	t.Helper()
	m, h := memoryOver(t, remote.HostConfig{SlabPages: 1024, Replicas: 1, QueueDepth: 8, Seed: 1}, []remote.Transport{tr},
		clock, pages, WithCacheCapacity(capacity), WithSeed(1))
	s := &scanner{t: t, m: m, h: h, pages: core.PageID(pages)}
	s.frames(pages / 8)
	return s
}

// TestPipelineDepthFollowsTheLink switches a link's delay under a scan, on the
// wall clock: nothing, 200 us, 600 us, 1 ms and nothing again. Within 64 frames
// of each step up the pages in flight must reach four fifths of delay x the
// rate the scan then settles at; within 256 frames of the delay going away
// they must be back within two frames of where they were without it (the
// three frames of the pipeline's quanta) — on a quiet box: depth is handed back
// on pages landed without a wait, and next to another package's tests on two
// cores the scan does wait, so up to 512 more frames are given before the
// same is asked; and once each ramp is over the scan takes no full miss. The bound on unread responses holds throughout
// (scanner.frames), and every page read is verified.
func TestPipelineDepthFollowsTheLink(t *testing.T) {
	l := delayedLink(remote.Split)
	// A budget of 512 pages lets a stream run 128 ahead: more than a
	// millisecond needs at any rate below 128 k pages/s, which holds the
	// reader to it.
	s := newScanner(t, l.Transport(), nil, 8192, 512)
	near, _ := s.frames(64)

	for _, delay := range []time.Duration{200 * time.Microsecond, 600 * time.Microsecond, time.Millisecond} {
		l.SetTiming(delay, 0, 0)
		ramp, _ := s.frames(64)
		before := s.m.Stats()
		settled, took := s.frames(192)
		rate := 192 * 8 / took.Seconds()
		need := delay.Seconds() * rate
		t.Logf("at %v: %d pages in flight within 64 frames, %d settled, %.0f pages/s x delay = %.0f pages (link taken for %v)",
			delay, ramp, settled, rate, need, s.h.FetchLatency()[0])
		if float64(ramp) < 0.8*need {
			t.Errorf("%d pages in flight within 64 frames of the link slowing to %v, want >= 0.8 x %.0f", ramp, delay, need)
		}
		if misses := s.m.Stats().Misses - before.Misses; misses != 0 {
			t.Errorf("%d full misses at %v once the pipeline had deepened, want 0", misses, delay)
		}
	}

	l.SetTiming(0, 0, 0)
	s.frames(256)
	before := s.m.Stats()
	back, _ := s.frames(64)
	extra := 0
	for ; back > near+16 && extra < 512; extra += 64 {
		before = s.m.Stats()
		back, _ = s.frames(64)
	}
	t.Logf("no delay: %d pages in flight before, %d after (%d frames past the 256)", near, back, extra)
	if back > near+16 {
		t.Errorf("%d pages in flight %d frames after the delay went away, want within two frames of %d", back, 256+64+extra, near)
	}
	if misses := s.m.Stats().Misses - before.Misses; misses != 0 {
		t.Errorf("%d full misses once the pipeline had shrunk, want 0", misses)
	}
}

// TestServiceBoundLinkKeepsPipelineShallow: an agent that takes 100 us a
// frame, in front of a reader that takes 40, makes the reader wait at every
// frame whatever is in flight. The estimator must not answer those waits with
// depth: over 512 frames the pages in flight stay within eight frames of what
// an instant link has (twice the 20 pages the reader gets through in one
// service time, and the slack), a long way below both the 256 the stream's
// budget and the 1024 the host's bound would let it reach — where a rule that
// deepens on every blocked wait ends up.
func TestServiceBoundLinkKeepsPipelineShallow(t *testing.T) {
	// An agent with no propagation delay in front of it, whose responses come
	// out one service time apart at best, each after the one before it: the
	// loopback trap — a reader that waits because the agent has not got to its
	// frame yet — made deterministic.
	clock := remote.NewFakeClock()
	l := remote.NewScriptedLink(remote.NewInProc(remote.NewAgent(1024, 0)), remote.Split, clock, nil)
	s := newScanner(t, l.Transport(), clock, 8192, 1024)
	s.step = func() { clock.Advance(5 * time.Microsecond) }
	instant, _ := s.frames(64)

	l.SetTiming(0, 100*time.Microsecond, 0)
	before := s.m.Stats()
	served, _ := s.frames(512)
	st := s.m.Stats()
	depth, _, _ := s.h.Pipeline()
	t.Logf("instant link: %d pages in flight; 100 us a frame: at most %d, depth %d at the end, latency %v, %d late hits",
		instant, served, depth, s.h.FetchLatency(), st.PrefetchLate-before.PrefetchLate)
	if served > instant+64 {
		t.Errorf("%d pages in flight over a service-bound link, want within eight frames of the instant link's %d", served, instant)
	}
	if late := st.PrefetchLate - before.PrefetchLate; late < 256 {
		t.Errorf("test premise: %d late prefetch hits over 512 frames, the link is not service-bound", late)
	}
	if misses := st.Misses - before.Misses; misses != 0 {
		t.Errorf("%d full misses, want 0", misses)
	}
}
