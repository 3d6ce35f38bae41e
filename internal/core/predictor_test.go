package core

import (
	"testing"
	"testing/quick"
)

func TestConfigDefaults(t *testing.T) {
	p := NewPredictor(Config{})
	cfg := p.Config()
	if cfg.HistorySize != 32 || cfg.NSplit != 2 || cfg.MaxPrefetchWindow != 8 {
		t.Fatalf("defaults = %+v", cfg)
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{HistorySize: -1},
		{HistorySize: 8, NSplit: 9, MaxPrefetchWindow: 8},
		{HistorySize: 8, NSplit: 2, MaxPrefetchWindow: -2},
	}
	for _, cfg := range bad {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewPredictor(%+v) did not panic", cfg)
				}
			}()
			NewPredictor(cfg)
		}()
	}
}

func TestCeilPow2(t *testing.T) {
	cases := map[int]int{0: 1, 1: 1, 2: 2, 3: 4, 4: 4, 5: 8, 8: 8, 9: 16, 17: 32}
	for in, want := range cases {
		if got := ceilPow2(in); got != want {
			t.Errorf("ceilPow2(%d) = %d, want %d", in, got, want)
		}
	}
}

// drive simulates the fault loop: each fault records + predicts; predictions
// that the (synthetic) future actually touches are reported back as hits.
func drive(p *Predictor, addrs []PageID) (predicted map[PageID]bool) {
	predicted = make(map[PageID]bool)
	for _, a := range addrs {
		if predicted[a] {
			p.NoteHit()
			// A consumed prefetch would fault no further; still record the
			// access so the history reflects the true stream.
			p.Record(a)
			continue
		}
		for _, c := range p.OnFault(a, nil) {
			predicted[c] = true
		}
	}
	return predicted
}

func TestSequentialStreamGrowsWindowAndPredicts(t *testing.T) {
	p := NewPredictor(Config{})
	var addrs []PageID
	for i := 0; i < 200; i++ {
		addrs = append(addrs, PageID(1000+i))
	}
	drive(p, addrs)
	st := p.Stats()
	if st.TrendHits == 0 {
		t.Fatal("no trends detected on a sequential stream")
	}
	if st.PagesPredicted == 0 {
		t.Fatal("no pages predicted on a sequential stream")
	}
	// Steady state: nearly all accesses after warmup must be prefetch hits,
	// i.e. most faults are avoided. Faults recorded = all 200 (Record runs on
	// hits too); but prediction coverage should be large.
	if st.PagesPredicted < 150 {
		t.Fatalf("predicted only %d pages over a 200-access sequential stream", st.PagesPredicted)
	}
}

func TestStrideStreamPredictsStride(t *testing.T) {
	p := NewPredictor(Config{})
	// Stride-10 pattern, the paper's §2 microbenchmark.
	for i := 0; i < 50; i++ {
		p.Record(PageID(i * 10))
	}
	got := p.Predict(PageID(490))
	if len(got) == 0 {
		t.Fatal("no predictions for an established stride")
	}
	for i, c := range got {
		want := PageID(490 + 10*(i+1))
		if c != want {
			t.Fatalf("candidate %d = %d, want %d", i, c, want)
		}
	}
}

func TestRandomStreamSuspendsPrefetching(t *testing.T) {
	p := NewPredictor(Config{})
	// Deterministic pseudo-random walk with no repeated delta.
	addr := PageID(1 << 20)
	seed := uint64(12345)
	next := func() PageID {
		seed = seed*6364136223846793005 + 1442695040888963407
		return PageID(seed % (1 << 24))
	}
	totalPredicted := int64(0)
	for i := 0; i < 500; i++ {
		addr = next()
		cands := p.OnFault(addr, nil)
		totalPredicted += int64(len(cands))
	}
	st := p.Stats()
	if st.Suspended < 400 {
		t.Fatalf("suspended on only %d of 500 random faults", st.Suspended)
	}
	if totalPredicted > 50 {
		t.Fatalf("predicted %d pages on random stream, want near zero", totalPredicted)
	}
}

func TestWindowGrowthToMax(t *testing.T) {
	p := NewPredictor(Config{MaxPrefetchWindow: 8})
	// Establish a sequential trend.
	for i := 0; i < 20; i++ {
		p.Record(PageID(i))
	}
	// Report escalating hit counts and check the window ramps 1→2→4→8 and
	// saturates at PWsizemax.
	sizes := []int{}
	for round := 0; round < 6; round++ {
		base := PageID(20 + round*10)
		for k := 0; k < 8; k++ {
			p.NoteHit()
		}
		p.Record(base)
		got := p.Predict(base)
		sizes = append(sizes, len(got))
	}
	for _, s := range sizes {
		if s > 8 {
			t.Fatalf("window exceeded max: %v", sizes)
		}
	}
	if sizes[len(sizes)-1] != 8 {
		t.Fatalf("window did not saturate at 8: %v", sizes)
	}
}

func TestSmoothShrinkNoInstantSuspend(t *testing.T) {
	p := NewPredictor(Config{})
	// Grow the window to 8 with a hot sequential stream.
	for i := 0; i < 20; i++ {
		p.Record(PageID(i))
	}
	for k := 0; k < 8; k++ {
		p.NoteHit()
	}
	p.Record(20)
	if got := len(p.Predict(20)); got != 8 {
		t.Fatalf("setup: window = %d, want 8", got)
	}
	// Now: zero hits and a fault off-trend. The window must halve (4), not
	// suspend outright.
	p.Record(100000)
	if got := len(p.Predict(100000)); got != 4 {
		t.Fatalf("after one cold fault window = %d, want 4 (smooth shrink)", got)
	}
	// Repeated cold faults decay 2, 1, then 0.
	p.Record(200000)
	if got := len(p.Predict(200000)); got != 2 {
		t.Fatalf("decay step = %d, want 2", got)
	}
	p.Record(300000)
	if got := len(p.Predict(300000)); got != 1 {
		t.Fatalf("decay step = %d, want 1", got)
	}
	p.Record(400000)
	if got := len(p.Predict(400000)); got != 0 {
		t.Fatalf("decay step = %d, want 0 (suspended)", got)
	}
	if p.Stats().Suspended == 0 {
		t.Fatal("suspension not counted")
	}
}

func TestSpeculativePrefetchUsesLatestTrend(t *testing.T) {
	p := NewPredictor(Config{HistorySize: 8, NSplit: 2, MaxPrefetchWindow: 8})
	// Strong +3 trend.
	for i := 0; i < 10; i++ {
		p.Record(PageID(i * 3))
	}
	// Break the trend hard enough that no majority exists in any window,
	// while hits keep the window open: speculative branch engages.
	noise := []PageID{1000, 500, 3000, 100, 4000, 900, 2000, 700}
	var lastCands []PageID
	for _, a := range noise {
		p.NoteHit() // keep Chit > 0 so PWsize stays nonzero
		p.Record(a)
		lastCands = p.Predict(a)
	}
	if p.Stats().Speculative == 0 {
		t.Fatal("speculative branch never taken")
	}
	if len(lastCands) == 0 {
		t.Fatal("speculation produced no candidates")
	}
	// Candidates follow the latest known trend (+3) from the faulting page.
	want := noise[len(noise)-1] + 3
	if lastCands[0] != want {
		t.Fatalf("speculative candidate = %d, want %d (latest trend +3)", lastCands[0], want)
	}
}

func TestSpeculativeWithoutAnyTrendSurroundsPt(t *testing.T) {
	p := NewPredictor(Config{HistorySize: 8, NSplit: 2, MaxPrefetchWindow: 8})
	// No history at all, but force Chit > 0 (e.g. hits on another path):
	// candidates surround Pt.
	p.NoteHit()
	p.NoteHit()
	p.Record(100)
	cands := p.Predict(100)
	if len(cands) == 0 {
		t.Fatal("no candidates")
	}
	if cands[0] != 101 || (len(cands) > 1 && cands[1] != 99) {
		t.Fatalf("candidates = %v, want to surround 100", cands)
	}
}

func TestPredictNeverReturnsNegativePages(t *testing.T) {
	p := NewPredictor(Config{})
	// Descending stream near zero: candidates would go negative.
	for i := 20; i >= 0; i-- {
		p.Record(PageID(i))
	}
	for k := 0; k < 8; k++ {
		p.NoteHit()
	}
	p.Record(0)
	for _, c := range p.Predict(0) {
		if c < 0 {
			t.Fatalf("negative candidate %d", c)
		}
	}
}

func TestPredictIntoAppends(t *testing.T) {
	p := NewPredictor(Config{})
	for i := 0; i < 20; i++ {
		p.Record(PageID(i))
	}
	p.NoteHit()
	buf := make([]PageID, 0, 16)
	buf = append(buf, 777)
	p.Record(20)
	out := p.PredictInto(20, buf)
	if out[0] != 777 {
		t.Fatal("PredictInto did not preserve existing elements")
	}
	if len(out) < 2 {
		t.Fatal("PredictInto appended nothing")
	}
}

func TestResetClearsState(t *testing.T) {
	p := NewPredictor(Config{})
	for i := 0; i < 50; i++ {
		p.Record(PageID(i))
	}
	p.Reset()
	if p.Stats().Faults != 0 || p.History().Len() != 0 {
		t.Fatal("Reset left state behind")
	}
	// After reset, a cold fault must not predict.
	p.Record(5)
	if got := p.Predict(5); len(got) != 0 {
		t.Fatalf("predicted %v immediately after reset", got)
	}
}

func TestZeroDeltaMajorityFallsBackToSpeculation(t *testing.T) {
	p := NewPredictor(Config{HistorySize: 8, NSplit: 2})
	// Same page over and over: majority delta 0 (directionless).
	for i := 0; i < 10; i++ {
		p.Record(42)
	}
	p.NoteHit()
	p.Record(42)
	cands := p.Predict(42)
	for _, c := range cands {
		if c == 42 {
			t.Fatalf("predicted the faulting page itself: %v", cands)
		}
	}
	if p.Stats().Speculative == 0 {
		t.Fatal("zero-delta majority did not take the speculative branch")
	}
}

func TestPredictorDeterminism(t *testing.T) {
	run := func() Stats {
		p := NewPredictor(Config{})
		addrs := make([]PageID, 0, 300)
		for i := 0; i < 100; i++ {
			addrs = append(addrs, PageID(i))
		}
		for i := 0; i < 100; i++ {
			addrs = append(addrs, PageID(10000+i*7))
		}
		for i := 0; i < 100; i++ {
			addrs = append(addrs, PageID((i*2654435761)%65536))
		}
		drive(p, addrs)
		return p.Stats()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("non-deterministic predictor: %+v vs %+v", a, b)
	}
}

func TestPredictorPropertyCandidatesFollowTrendWhenDetected(t *testing.T) {
	// Property: for any positive stride s and window, once the stride is
	// established every candidate equals Pt + k·s.
	f := func(strideRaw uint8, hitsRaw uint8) bool {
		stride := int64(strideRaw%100) + 1
		hits := int(hitsRaw % 10)
		p := NewPredictor(Config{})
		for i := 0; i < 40; i++ {
			p.Record(PageID(int64(i) * stride))
		}
		for k := 0; k < hits; k++ {
			p.NoteHit()
		}
		pt := PageID(40 * stride)
		p.Record(pt)
		for i, c := range p.Predict(pt) {
			if c != pt+PageID(int64(i+1)*stride) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestStatsAccounting(t *testing.T) {
	p := NewPredictor(Config{})
	for i := 0; i < 10; i++ {
		p.OnFault(PageID(i), nil)
	}
	st := p.Stats()
	if st.Faults != 10 {
		t.Fatalf("Faults = %d, want 10", st.Faults)
	}
	if st.TrendHits == 0 {
		t.Fatal("sequential faults should detect trends")
	}
}

// driveAhead is drive for a data path that runs ahead: a consumed prefetch
// also asks AheadInto for the next frame. predicted holds the pages issued so
// far; it returns what each access issued from a hit (nil entries for accesses
// that issued nothing there).
func driveAhead(p *Predictor, predicted map[PageID]bool, addrs []PageID, frame, limit int) (ahead [][]PageID) {
	for _, a := range addrs {
		var got []PageID
		if predicted[a] {
			p.NoteHit()
			p.Record(a)
			got = p.AheadInto(a, frame, frame, limit, limit, nil)
		} else {
			for _, c := range p.OnFault(a, nil) {
				predicted[c] = true
			}
		}
		for _, c := range got {
			predicted[c] = true
		}
		ahead = append(ahead, got)
	}
	return ahead
}

func stream(from PageID, stride int64, n int) []PageID {
	addrs := make([]PageID, n)
	for i := range addrs {
		addrs[i] = from + PageID(int64(i)*stride)
	}
	return addrs
}

// TestAheadKeepsWholeFramesAheadOfAStream: once Algorithm 2 has a stream, the
// misses stop; every frame issued from a hit is a whole frame continuing
// where the last issue ended, along the stream's stride, and the lead over
// the reader settles between limit-frame and limit.
func TestAheadKeepsWholeFramesAheadOfAStream(t *testing.T) {
	for _, stride := range []int64{1, 3, -2, 4} {
		const frame, limit, n = 8, 56, 600
		p := NewPredictor(Config{})
		addrs := stream(100000, stride, n)
		ahead := driveAhead(p, map[PageID]bool{}, addrs, frame, limit)
		var next PageID
		started, frames := false, 0
		for i, got := range ahead {
			if len(got) == 0 {
				continue
			}
			frames++
			if len(got) != frame {
				t.Fatalf("stride %d: access %d issued %d pages ahead, want whole frames of %d", stride, i, len(got), frame)
			}
			for k, c := range got {
				if started && c != next {
					t.Fatalf("stride %d: access %d issued page %d, want %d (frames must continue the frontier)", stride, i, c, next)
				}
				if k > 0 && int64(c-got[k-1]) != stride {
					t.Fatalf("stride %d: access %d issued %v, not along the stride", stride, i, got)
				}
				started, next = true, c+PageID(stride)
			}
			if i > 100 {
				lead := int64(got[frame-1]-addrs[i]) / stride
				if lead < limit-frame || lead > limit {
					t.Fatalf("stride %d: access %d leaves the frontier %d strides ahead, want within [%d, %d]", stride, i, lead, limit-frame, limit)
				}
			}
		}
		if frames < (n-100)/frame {
			t.Fatalf("stride %d: %d frames issued ahead over %d accesses", stride, frames, n)
		}
		// No miss after the ramp: Algorithm 2's pages (counted apart from
		// those issued ahead) are a few early windows.
		if st := p.Stats(); st.AheadPages != int64(frames*frame) || st.PagesPredicted > 64 {
			t.Fatalf("stride %d: stats %+v after %d frames ahead", stride, st, frames)
		}
	}
}

// TestAheadEndsWithTheStream: an access off the trend hands control back to
// Algorithm 2 — nothing more is issued from hits until a miss has found a
// trend again — and what was issued beyond the reader is at most limit pages.
func TestAheadEndsWithTheStream(t *testing.T) {
	const frame, limit = 8, 56
	p := NewPredictor(Config{})
	addrs := stream(5000, 1, 300)
	ahead := driveAhead(p, map[PageID]bool{}, addrs, frame, limit)
	var frontier PageID
	for _, got := range ahead {
		if len(got) > 0 {
			frontier = got[len(got)-1]
		}
	}
	if over := frontier - addrs[len(addrs)-1]; over < 1 || over > limit {
		t.Fatalf("the stream ended with %d pages issued beyond it, want 1..%d", over, limit)
	}
	// The reader jumps, then touches pages that happen to be prefetched: off
	// the trend, so not a stream to run ahead of.
	p.Record(90000)
	p.NoteHit()
	p.Record(5301)
	if got := p.AheadInto(5301, frame, frame, limit, limit, nil); len(got) != 0 {
		t.Fatalf("issued %v ahead of an access off the trend", got)
	}
	p.NoteHit()
	p.Record(5302)
	if got := p.AheadInto(5302, frame, frame, limit, limit, nil); len(got) != 0 {
		t.Fatalf("issued %v ahead with no miss since the stream broke", got)
	}

	// A stride-3 stream slips a page on an access AheadInto is not asked about
	// (a hit with nothing in flight): the next hit follows the trend again,
	// but out of step with the frontier.
	q := NewPredictor(Config{})
	strided := stream(9000, 3, 200)
	driveAhead(q, map[PageID]bool{}, strided, frame, limit)
	last := strided[len(strided)-1]
	q.NoteHit()
	q.Record(last + 1)
	for a := last + 4; a < last+4+3*2*frame; a += 3 {
		q.NoteHit()
		q.Record(a)
		if got := q.AheadInto(a, frame, frame, limit, limit, nil); len(got) != 0 {
			t.Fatalf("issued %v ahead of a stream out of step with its frontier", got)
		}
	}
}

// TestAheadWithoutRoomLeavesStateAlone: a limit below one frame issues
// nothing and does not disturb the ramp, so a caller that skips its turn
// resumes where it was.
func TestAheadWithoutRoomLeavesStateAlone(t *testing.T) {
	const frame, limit = 8, 56
	a, b := NewPredictor(Config{}), NewPredictor(Config{})
	addrs := stream(0, 1, 200)
	want := driveAhead(a, map[PageID]bool{}, addrs, frame, limit)
	predicted := map[PageID]bool{}
	driveAhead(b, predicted, addrs[:120], frame, limit)
	if got := b.AheadInto(addrs[119], frame, frame, 0, 0, nil); len(got) != 0 {
		t.Fatalf("issued %v with no room", got)
	}
	got := driveAhead(b, predicted, addrs[120:], frame, limit)
	for i := range got {
		if len(got[i]) != len(want[120+i]) {
			t.Fatalf("access %d: issued %v after a skipped turn, want %v", 120+i, got[i], want[120+i])
		}
	}
}

// TestAheadIssuesTrainsWithinTheRampsBound: room and train decide when frames
// leave, never how far. Whatever the caller's room was at each hit — none for
// stretches, then ample — and whether frames leave one by one or in trains of
// three, the depth ramps a page per on-trend hit all the same, what is issued
// is whole frames continuing the frontier, and a stream that ends after n hits
// has at most its window and n pages issued beyond it. With a train's worth of
// pages ahead of it a stream issues nothing short of a train; with less — just
// past a miss — it takes every frame it has earned, as it would without trains.
func TestAheadIssuesTrainsWithinTheRampsBound(t *testing.T) {
	const frame, limit = 8, 256
	for _, c := range []struct {
		name  string
		train int
		room  func(hit int) int // the caller's room at the hit-th hit since the miss
	}{
		{"frame by frame", frame, func(int) int { return limit }},
		{"a frame's room at a time", frame, func(int) int { return frame }},
		{"trains of three", 3 * frame, func(int) int { return limit }},
		{"trains of three, held for 40 hits of 48 once the lead covers it", 3 * frame, func(hit int) int {
			if hit > 64 && hit%48 < 40 {
				return 0
			}
			return limit
		}},
		{"frame by frame, held for 5 hits of 6, then two frames", frame, func(hit int) int {
			if hit%6 < 5 {
				return 0
			}
			return 2 * frame
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			free, p := NewPredictor(Config{}), NewPredictor(Config{})
			predicted := map[PageID]bool{}
			window, hits, short, whole := 0, 0, 0, 0
			for i, a := range stream(7000, 1, 400) {
				if !predicted[a] {
					for _, pg := range p.OnFault(a, nil) {
						predicted[pg] = true
					}
					free.OnFault(a, nil)
					window, hits = p.Window(), 0
					continue
				}
				hits++
				p.NoteHit()
				p.Record(a)
				free.NoteHit()
				free.Record(a)
				free.AheadInto(a, frame, frame, limit, limit, nil)
				room, lead := c.room(hits), int(p.frontier-a)
				got := p.AheadInto(a, frame, c.train, limit, room, nil)
				if p.depth != free.depth {
					t.Fatalf("access %d: depth %d after %d hits with room %d, %d with room throughout", i, p.depth, hits, room, free.depth)
				}
				if len(got)%frame != 0 || len(got) > room {
					t.Fatalf("access %d: issued %d pages with room for %d, want whole frames within it", i, len(got), room)
				}
				for k, pg := range got {
					if want := p.frontier - PageID(len(got)-1-k); pg != want || predicted[pg] {
						t.Fatalf("access %d: issued page %d, want %d and not issued before", i, pg, want)
					}
					predicted[pg] = true
				}
				if unused := int(p.frontier - a); unused > window+hits {
					t.Fatalf("access %d: %d pages issued beyond the stream %d hits after a window of %d", i, unused, hits, window)
				}
				earned := min(p.depth-lead, room) / frame * frame
				switch {
				case len(got) > 0 && len(got) < c.train && lead >= c.train:
					t.Fatalf("access %d: issued %d pages, short of a train of %d, with %d ahead of the stream", i, len(got), c.train, lead)
				case len(got) == 0 && earned > 0 && (earned >= c.train || lead < c.train):
					t.Fatalf("access %d: %d pages earned and fitting were not issued (%d ahead of the stream)", i, earned, lead)
				case len(got) > 0 && len(got) < c.train:
					short++
				case len(got) >= c.train:
					whole++
				}
			}
			if whole < 8 || (c.train > frame) != (short > 0) {
				t.Errorf("%d issues of a train or more, %d short of one just past a miss", whole, short)
			}
		})
	}
}
