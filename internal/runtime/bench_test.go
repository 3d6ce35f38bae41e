package runtime

import (
	"sync/atomic"
	"testing"
	"time"

	"leap/internal/core"
	"leap/internal/remote"
)

// delayedLink is a split-phase transport over an in-process agent whose
// responses are due a fixed delay after their request was started: the agent
// answers at once and Wait sleeps out the rest, so requests outstanding
// together wait together — a link's propagation delay, with no socket.
type delayedLink struct {
	inner *remote.InProc
	delay atomic.Int64 // nanoseconds
}

type delayedPending struct {
	due  time.Time
	resp *remote.Response
	err  error
}

func (p delayedPending) Wait() (*remote.Response, error) {
	time.Sleep(time.Until(p.due))
	return p.resp, p.err
}

func (l *delayedLink) Start(req *remote.Request) (remote.Pending, error) {
	due := time.Now().Add(time.Duration(l.delay.Load()))
	resp, err := l.inner.Call(req)
	return delayedPending{due, resp, err}, nil
}

func (l *delayedLink) Call(req *remote.Request) (*remote.Response, error) {
	p, _ := l.Start(req)
	return p.Wait()
}

func (l *delayedLink) Close() error { return nil }

// BenchmarkScanDelayedLink is the overlap's microbenchmark: one goroutine
// scans a data set 8x its local budget over a link that answers a fixed delay
// late — none, the 50 us and 1 ms of ROADMAP item 1's gate, and 200 us between
// them. Stop-and-wait pays the delay once per window of nine pages; run-ahead
// pays it once per pipeline, and the host sizes the pipeline from the delay it
// measures, so the scan's rate should hardly depend on it: pages/s is that
// rate, pages-in-flight the mean of what was in the air after each access.
func BenchmarkScanDelayedLink(b *testing.B) {
	for _, c := range []struct {
		name  string
		delay time.Duration
	}{{"0", 0}, {"50us", 50 * time.Microsecond}, {"200us", 200 * time.Microsecond}, {"1ms", time.Millisecond}} {
		b.Run(c.name, func(b *testing.B) { benchScanDelayedLink(b, c.delay) })
	}
}

func benchScanDelayedLink(b *testing.B, delay time.Duration) {
	const pages = 8192
	l := &delayedLink{inner: remote.NewInProc(remote.NewAgent(1024, 0))}
	h, err := remote.NewHost(remote.HostConfig{SlabPages: 1024, Replicas: 1, QueueDepth: 8, Seed: 1},
		[]remote.Transport{l})
	if err != nil {
		b.Fatal(err)
	}
	defer h.Close()
	m, err := Open(WithRemoteHost(h), WithCacheCapacity(1024), WithSeed(1))
	if err != nil {
		b.Fatal(err)
	}
	defer m.Close()
	buf := make([]byte, remote.PageSize)
	for pg := core.PageID(0); pg < pages; pg++ {
		if _, err := m.WriteAt(image(pg), int64(pg)*remote.PageSize); err != nil {
			b.Fatal(err)
		}
	}
	if err := m.Flush(); err != nil {
		b.Fatal(err)
	}
	// One lap undelayed settles the predictor and pushes out populate's dirty
	// residue; a quarter lap delayed lets the host measure the link.
	pg := core.PageID(0)
	for i := 0; i < pages+pages/4; i++ {
		if i == pages {
			l.delay.Store(int64(delay))
		}
		if err := m.getInto(0, pg, buf); err != nil {
			b.Fatal(err)
		}
		if pg++; pg == pages {
			pg = 0
		}
	}
	b.ReportAllocs()
	inFlight := 0
	for b.Loop() {
		if err := m.getInto(0, pg, buf); err != nil {
			b.Fatal(err)
		}
		if pg++; pg == pages {
			pg = 0
		}
		_, flying, _ := h.Pipeline()
		inFlight += flying
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "pages/s")
	b.ReportMetric(float64(inFlight)/float64(b.N), "pages-in-flight")
}
