package runtime

import (
	"bytes"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"leap/internal/core"
	"leap/internal/remote"
)

var update = flag.Bool("update", false, "rewrite testdata/scan_ahead.golden from this run")

// frameLine writes one read frame's pages the way the golden holds them:
// "first..last" for a run of consecutive pages, "first..last/step" for any
// other arithmetic run, the pages themselves otherwise.
func frameLine(pages []core.PageID) string {
	if len(pages) > 1 {
		step := pages[1] - pages[0]
		run := true
		for i := 2; i < len(pages); i++ {
			run = run && pages[i]-pages[i-1] == step
		}
		switch {
		case run && step == 1:
			return fmt.Sprintf("%d..%d", pages[0], pages[len(pages)-1])
		case run:
			return fmt.Sprintf("%d..%d/%d", pages[0], pages[len(pages)-1], step)
		}
	}
	return strings.Trim(fmt.Sprint(pages), "[]")
}

// TestScanKeepsPipelineFull is run-ahead's contract, on a link the test plays
// by hand (a FIFO pump over batchGate): once a scan is past its ramp it takes
// no full miss, every read frame it puts on the wire is a whole frame, at
// least four of them are outstanding whenever the scan has to wait for one,
// and the pages issued — every read frame from Open on, the scan being one
// goroutine's — are those of the committed golden. A stride-3 scan and a
// stride-1 scan over four stripes (in-stripe stride 4, the stripes sharing the
// host's pipeline) hold to the same.
func TestScanKeepsPipelineFull(t *testing.T) {
	cases := []struct {
		name     string
		stride   core.PageID
		capacity int
		ramp     int // accesses before the link is held
		opts     []Option
	}{
		{"sequential", 1, 256, 320, nil},
		{"strided", 3, 256, 320, nil},
		{"sharded", 1, 1024, 1100, []Option{WithShards(4)}},
	}
	// Four stripes of 256 pages run 512 pages ahead between them (half of each
	// one's budget): the scan is twice that, so that it waits for the link.
	const scan = 1024
	var got strings.Builder
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			span := (c.ramp + scan + 512) * int(c.stride) // the slack keeps run-ahead inside the data set
			m, g := gatedMemory(t, span, append([]Option{WithCacheCapacity(c.capacity)}, c.opts...)...)
			pg := core.PageID(0)
			for i := 0; i < c.ramp; i++ {
				checkPage(t, m, pg)
				pg += c.stride
			}
			if err := m.Flush(); err != nil {
				t.Fatal(err)
			}
			before, ramped := m.Stats(), len(g.readFrames())
			g.holding.Store(true)
			var held []int
			stop := g.pump(func(int) int { return 0 }, func(n int) { held = append(held, n) })
			for i := 0; i < scan; i++ {
				checkPage(t, m, pg)
				pg += c.stride
			}
			stop()
			st := m.Stats()
			if misses := st.Misses - before.Misses; misses != 0 {
				t.Errorf("%d full misses over %d pages after the ramp, want 0", misses, scan)
			}
			frames := g.readFrames()
			for _, f := range frames[ramped:] {
				if len(f) != 8 {
					t.Errorf("read frame %s: %d pages, want whole frames of 8", frameLine(f), len(f))
				}
			}
			// The scan is fed from its hits alone, give or take what was in
			// flight when the link was held and when the scan ended.
			if issued := st.PrefetchAheadPages - before.PrefetchAheadPages; issued != int64(8*(len(frames)-ramped)) || issued < scan*3/4 {
				t.Errorf("%d pages issued ahead in %d frames over a %d-page scan", issued, len(frames)-ramped, scan)
			}
			if len(held) < scan/8/2 {
				t.Errorf("the scan waited for the link %d times over %d pages", len(held), scan)
			}
			if len(held) > 0 {
				t.Logf("%d waits for the link, %d..%d read frames outstanding", len(held), slices.Min(held), slices.Max(held))
			}
			for i, n := range held {
				if n < 4 {
					t.Errorf("wait %d: %d read frames outstanding, want >= 4 (all waits: %v)", i, n, held)
					break
				}
			}
			if err := m.CheckShardInvariants(core.PageID(span)); err != nil {
				t.Error(err)
			}
			fmt.Fprintf(&got, "# %s\n", c.name)
			for _, f := range frames {
				fmt.Fprintln(&got, frameLine(f))
			}
		})
	}
	const golden = "testdata/scan_ahead.golden"
	if *update {
		if err := os.WriteFile(golden, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Errorf("issued read frames diverged from %s (rerun with -update if meant)\n--- got\n%s", golden, got.String())
	}
}

// TestRunAheadEndsWithTheStream: when the scan stops and random pages follow,
// what was issued beyond the scan's last page is at most the run-ahead depth,
// the hits stop issuing at once, and Algorithm 2 winds its own window down to
// nothing within one history window of accesses.
func TestRunAheadEndsWithTheStream(t *testing.T) {
	const scanned, depth = 600, 128 // half the 256-page budget
	m, g := gatedMemory(t, 2048, WithCacheCapacity(256))
	for pg := core.PageID(0); pg < scanned; pg++ {
		checkPage(t, m, pg)
	}
	beyond := 0
	for _, f := range g.readFrames() {
		for _, pg := range f {
			if pg >= scanned {
				beyond++
			}
		}
	}
	if beyond < 8 || beyond > depth {
		t.Errorf("%d pages issued beyond the end of the scan, want 8..%d", beyond, depth)
	}
	ahead := m.Stats().PrefetchAheadPages
	// Random pages 16 apart, so that none lands in a window Algorithm 2 issued
	// behind an earlier one.
	var mid Stats
	for i, slot := range rand.New(rand.NewSource(7)).Perm(2 * core.DefaultHistorySize) {
		if i == core.DefaultHistorySize {
			mid = m.Stats()
		}
		checkPage(t, m, core.PageID(1024+16*slot))
	}
	st := m.Stats()
	if st.PrefetchAheadPages != ahead {
		t.Errorf("%d pages issued ahead of random accesses", st.PrefetchAheadPages-ahead)
	}
	if late := st.PrefetchIssued - mid.PrefetchIssued; late != 0 {
		t.Errorf("%d pages still prefetched a history window after the stream ended", late)
	}
}

// TestRunAheadCapIsHalfTheBudget: over a link that answers 1 ms late, a scan
// keeps as much in flight as the link needs up to half its stripe's budget —
// more than the quarter it was once held to, wherever the host allows twice
// that, and never more than the half and a train — and at a cap that binds its
// frames still leave in trains.
func TestRunAheadCapIsHalfTheBudget(t *testing.T) {
	const oldCap = 1024 / 4
	for _, c := range []struct {
		name     string
		capacity int
		train    int // pages, one frame over a link that cannot move trains
	}{
		{"1024-page budget", 1024, 8},
		{"64-page budget", 64, 8},
		{"trains at a 128-page budget", 128, 24},
	} {
		t.Run(c.name, func(t *testing.T) {
			mode := remote.Split
			if c.train > 8 {
				mode = remote.Trains
			}
			l := delayedLink(mode)
			h, next := delayedScan(t, l, time.Millisecond, c.capacity, 4096)
			for range 1024 {
				next()
			}
			writes0, frames0, _ := l.Traffic()
			var p pipelineMeans
			for range 2048 {
				next()
				p.sample(h)
			}
			t.Logf("mean depth %.0f, pages in flight %.0f on average and %d at most", p.meanDepth(), p.meanFlying(), p.peak)
			if most := c.capacity/2 + c.train; p.peak > most {
				t.Errorf("%d pages in flight, want at most %d: half the budget and a train", p.peak, most)
			}
			if c.capacity == 1024 && p.meanDepth() >= 2*oldCap && p.meanFlying() <= oldCap {
				t.Errorf("%.0f pages in flight on average at a depth of %.0f, want more than the old cap of %d",
					p.meanFlying(), p.meanDepth(), oldCap)
			}
			if mode == remote.Trains {
				writes, frames, _ := l.Traffic()
				perWrite := float64(frames-frames0) / float64(writes-writes0)
				t.Logf("%.2f frames a write", perWrite)
				if perWrite < 2 {
					t.Errorf("%.2f frames a write at the cap, want trains of at least 2", perWrite)
				}
			}
		})
	}
}

// TestAdviceSteersRunAhead: a sequential hint's run-ahead stops at the end of
// the hinted range, and a random hint's range is never run ahead of.
func TestAdviceSteersRunAhead(t *testing.T) {
	m, g := gatedMemory(t, 1024, WithCacheCapacity(256))
	c := m.Client(0)
	if err := c.Advise(AdviseSequential, 0, 400); err != nil {
		t.Fatal(err)
	}
	if err := c.Advise(AdviseRandom, 600, 400); err != nil {
		t.Fatal(err)
	}
	for pg := core.PageID(0); pg < 400; pg++ {
		checkPage(t, m, pg)
	}
	st := m.Stats()
	if st.PrefetchAheadPages < 300 {
		t.Errorf("%d pages issued ahead over a 400-page hinted scan", st.PrefetchAheadPages)
	}
	for _, f := range g.readFrames() {
		if last := f[len(f)-1]; last >= 400 {
			t.Fatalf("read frame %s runs past the hinted range's end", frameLine(f))
		}
	}
	for pg := core.PageID(600); pg < 1000; pg++ {
		checkPage(t, m, pg)
	}
	if after := m.Stats(); after.PrefetchIssued != st.PrefetchIssued {
		t.Errorf("%d pages prefetched in a range advised random", after.PrefetchIssued-st.PrefetchIssued)
	}
}

// stamp is the image of page pg at version v.
func stamp(pg core.PageID, v int) []byte {
	b := make([]byte, remote.PageSize)
	for i := range b {
		b[i] = byte(int(pg)*31 + v*7 + i)
	}
	return b
}

// runPipelinedCase is one seeded case of TestMemoryReadYourWritesPipelined, over
// pages [0, span). It returns the scan's prefetch accuracy.
func runPipelinedCase(t *testing.T, seed int64, writers int, span core.PageID, opts ...Option) float64 {
	t.Helper()
	const scanFrom = 192 // the writers own [0, scanFrom), the scanner reads the rest
	gates := []*batchGate{newBatchGate(64, remote.Split), newBatchGate(64, remote.Split)}
	h, err := remote.NewHost(remote.HostConfig{SlabPages: 64, Replicas: 2, QueueDepth: 8, Seed: uint64(seed)},
		[]remote.Transport{gates[0].Transport(), gates[1].Transport()})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	m, err := Open(append([]Option{WithRemoteHost(h), WithSeed(uint64(seed))}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	// The oracle: what every page must read as.
	oracle := make(map[core.PageID][]byte, span)
	m.SetRecording(false) // accuracy is the measured phase's, not populate's
	for pg := core.PageID(0); pg < span; pg++ {
		oracle[pg] = stamp(pg, 0)
		if _, err := m.WriteAt(oracle[pg], int64(pg)*remote.PageSize); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Flush(); err != nil {
		t.Fatal(err)
	}
	m.SetRecording(true)
	var stops []func()
	for i, g := range gates {
		g.holding.Store(true)
		rng := rand.New(rand.NewSource(seed*2 + int64(i)))
		stops = append(stops, g.pump(rng.Intn, func(int) {}))
	}
	var wg sync.WaitGroup
	versions := make([]map[core.PageID]int, writers) // each writer's own pages
	check := func(c *Client, pg core.PageID, want []byte) bool {
		got, err := c.Get(pg)
		if err != nil {
			t.Errorf("seed %d: page %d: %v", seed, pg, err)
			return false
		}
		if !bytes.Equal(got, want) {
			t.Errorf("seed %d: page %d read bytes that are not its latest image", seed, pg)
			return false
		}
		return true
	}
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := m.Client(1 + w)
			rng := rand.New(rand.NewSource(seed*16 + int64(w)))
			version := map[core.PageID]int{}
			versions[w] = version
			for i := 0; i < 600; i++ {
				// A writer's own pages: pg % writers == w.
				pg := core.PageID(rng.Intn(scanFrom/writers)*writers + w)
				if rng.Intn(3) == 0 {
					if !check(c, pg, stamp(pg, version[pg])) {
						return
					}
					continue
				}
				version[pg]++
				img := stamp(pg, version[pg])
				if _, err := c.WriteAt(img, int64(pg)*remote.PageSize); err != nil {
					t.Errorf("seed %d: write page %d: %v", seed, pg, err)
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		c := m.Client(0)
		for pass := 0; pass < 3; pass++ {
			for pg := core.PageID(scanFrom); pg < span; pg++ {
				if !check(c, pg, stamp(pg, 0)) {
					return
				}
			}
		}
	}()
	wg.Wait()
	for _, stop := range stops {
		stop()
	}
	for _, version := range versions {
		for pg, v := range version {
			oracle[pg] = stamp(pg, v)
		}
	}
	if err := m.Flush(); err != nil {
		t.Fatalf("seed %d: flush: %v", seed, err)
	}
	st := m.Stats()
	// Quiescent: the invariants, and every page against the oracle.
	if err := m.CheckShardInvariants(span); err != nil {
		t.Errorf("seed %d: %v", seed, err)
	}
	for _, s := range m.shards {
		s.mu.Lock()
		for pg := core.PageID(0); pg < span; pg++ {
			if f, ok := s.frames.Get(pg); ok && s.res.Contains(pg) && f.fill != nil {
				t.Errorf("seed %d: page %d is resident with its fill outstanding", seed, pg)
			}
		}
		s.mu.Unlock()
	}
	c := m.Client(0)
	for pg := core.PageID(0); pg < span; pg++ {
		if !check(c, pg, oracle[pg]) {
			break
		}
	}
	if st.PrefetchAheadPages == 0 {
		t.Errorf("seed %d: nothing was issued ahead: %+v", seed, st)
	}
	return st.Accuracy
}

// TestMemoryReadYourWritesPipelined is the read-your-writes property where
// run-ahead fills race everything else: over two gated agents that deliver
// read-batch responses in a seeded order, two writers rewrite and re-read
// their own pages while a scanner sweeps the rest, on budgets small enough
// that frames are recycled under fills still in flight, sharded, and with the
// compressed tier taking the victims. Every read is held to the page's latest
// image as it happens, every page to a map oracle at the end, next to the
// shard and fill invariants; and a scan on its own keeps its prefetches
// accurate. Run it under -race.
func TestMemoryReadYourWritesPipelined(t *testing.T) {
	shapes := []struct {
		name string
		opts []Option
	}{
		{"capacity16", []Option{WithCacheCapacity(16)}},
		{"capacity32", []Option{WithCacheCapacity(32)}},
		{"sharded", []Option{WithCacheCapacity(128), WithShards(4)}},
		{"ztier", []Option{WithCacheCapacity(64), WithCompressedTier(32 << 10)}}, // holds a fifth of the pages
	}
	seeds := 4
	if testing.Short() {
		seeds = 1
	}
	for _, sh := range shapes {
		t.Run(sh.name, func(t *testing.T) {
			for seed := int64(1); seed <= int64(seeds); seed++ {
				runPipelinedCase(t, seed, 2, 512, sh.opts...)
			}
		})
	}
	t.Run("scan", func(t *testing.T) {
		// Each pass ends with up to half the 256-page budget, and a frame,
		// issued beyond it: 1536 pages a pass keep that under a tenth.
		acc := runPipelinedCase(t, 9, 0, 192+1536, WithCacheCapacity(256))
		t.Logf("prefetch accuracy %.3f", acc)
		if acc < 0.9 {
			t.Errorf("prefetch accuracy %.3f on a pure scan, want >= 0.9", acc)
		}
	})
}
