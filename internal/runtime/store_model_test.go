package runtime

import (
	"fmt"
	"math/rand"
	"net"
	"testing"

	"leap/internal/core"
	"leap/internal/remote"
)

// storeModel is a Memory with a 64-page budget over two replicas and the page
// map its stores must read back as.
type storeModel struct {
	t      *testing.T
	rng    *rand.Rand
	m      *Memory
	oracle map[core.PageID]*[remote.PageSize]byte
	// churnAt is where the next churn reads: a region nothing is ever stored
	// to, whose pages come and go as zeros without touching the wire.
	churnAt core.PageID
}

const (
	modelBudget = 64
	// The data set is every seventh page, so that a prefetch window around one
	// finds pages with no remote image and leaves the dirty backlog queued.
	modelPages, modelStride = 96, 7
	churnFrom               = core.PageID(1 << 16)
	// Slabs are small, so that the data set spans a dozen of them and the
	// replica that drops out is the first a read tries for half of those.
	modelSlab = 64
)

func (s *storeModel) page(i int) core.PageID { return core.PageID(i * modelStride) }

// store writes n random bytes at off, across page boundaries when they fall
// inside.
func (s *storeModel) store(off int64, n int) {
	s.t.Helper()
	data := make([]byte, n)
	s.rng.Read(data)
	if _, err := s.m.WriteAt(data, off); err != nil {
		s.t.Fatalf("store of %d B at %d: %v", n, off, err)
	}
	for len(data) > 0 {
		pg := core.PageID(off / remote.PageSize)
		if s.oracle[pg] == nil {
			s.oracle[pg] = new([remote.PageSize]byte)
		}
		c := copy(s.oracle[pg][off%remote.PageSize:], data)
		data, off = data[c:], off+int64(c)
	}
}

// storeSome stores a random size — a byte, a cache line, a page, a page and a
// bit — somewhere in data page i.
func (s *storeModel) storeSome(i int) {
	s.t.Helper()
	n := []int{1, 64, 1 + s.rng.Intn(600), remote.PageSize, remote.PageSize + 1 + s.rng.Intn(900)}[s.rng.Intn(5)]
	at := 0
	if n < remote.PageSize {
		at = s.rng.Intn(remote.PageSize - n + 1)
	} else if n > remote.PageSize && s.rng.Intn(2) == 0 {
		at = s.rng.Intn(remote.PageSize) // ends inside the next page, or the one after
	}
	s.store(int64(s.page(i))*remote.PageSize+int64(at), n)
}

func (s *storeModel) check(pg core.PageID) {
	s.t.Helper()
	got := make([]byte, remote.PageSize)
	if _, err := s.m.ReadAt(got, int64(pg)*remote.PageSize); err != nil {
		s.t.Fatalf("page %d: %v", pg, err)
	}
	want := make([]byte, remote.PageSize)
	if img := s.oracle[pg]; img != nil {
		copy(want, img[:])
	}
	for i := range got {
		if got[i] != want[i] {
			s.t.Fatalf("page %d reads back wrong from byte %d", pg, i)
		}
	}
}

// churn pushes every resident page out: twice the budget of never-stored pages
// pass through, touching no wire, so what was evicted dirty stays queued.
func (s *storeModel) churn() {
	s.t.Helper()
	var b [1]byte
	for i := 0; i < 2*modelBudget; i++ {
		if _, err := s.m.ReadAt(b[:], int64(s.churnAt)*remote.PageSize); err != nil {
			s.t.Fatal(err)
		}
		s.churnAt++
	}
}

// play runs n seeded operations. outage, when not nil, fails (true) and heals
// (false) the first replica.
func (s *storeModel) play(n int, outage func(bool)) {
	s.t.Helper()
	down := 0
	for op := 0; op < n; op++ {
		if down > 0 {
			if down--; down == 0 {
				outage(false)
			}
		}
		i := s.rng.Intn(modelPages)
		switch k := s.rng.Intn(20); {
		case k < 9:
			s.storeSome(i)
		case k < 14:
			s.check(s.page(i))
		case k < 16:
			s.churn()
		case k < 18:
			// Two stores to one page with an eviction after each: the second
			// writeback meets the first still queued.
			s.storeSome(i)
			s.churn()
			s.check(s.page(i))
			s.storeSome(i)
			s.churn()
		case k < 19:
			if err := s.m.Flush(); err != nil {
				s.t.Fatalf("flush: %v", err)
			}
		case outage != nil && down == 0:
			outage(true)
			down = 1 + s.rng.Intn(30)
		}
	}
	if down > 0 {
		outage(false)
	}
}

// TestStoreModel reads stores of random sizes back against a page map, under a
// budget that turns nearly every access into an eviction: dirty hulls written
// back as ranges, refaulted from the dirty backlog and superseded there,
// through the compressed tier (which keeps no hull), over 1 and 4 stripes, on
// loopback TCP and in process — where one replica also drops out for a while,
// misses writes, and must be sent whole pages when it is back — and over links
// that hold every write frame's ack back until somebody waits for it, so that
// writebacks stay in the air across the refaults of their pages and a write's
// two replicas answer out of step, each when a reader or a full window gets to
// it; there every link must also see its flights landed in the order they
// were started. The last kind of link moves trains on top of that: the frames a
// doorbell starts reach their agent together, when the last of them is started
// or the first waited for, and read replies are held back like acks, all let
// through in a drawn order.
func TestStoreModel(t *testing.T) {
	for _, shards := range []int{1, 4} {
		for _, tier := range []int64{0, 96 << 10} {
			for _, link := range []string{"inproc", "tcp", "held", "trains"} {
				t.Run(fmt.Sprintf("shards%d/tier%dK/%s", shards, tier>>10, link), func(t *testing.T) {
					var outage func(bool)
					var gates []*batchGate
					transports := make([]remote.Transport, 2)
					for i := range transports {
						agent := remote.NewAgent(modelSlab, 0)
						if link == "inproc" {
							transports[i] = remote.NewInProc(agent)
							continue
						}
						if link == "held" || link == "trains" {
							mode, pick := remote.Split, func(int) int { return 0 }
							if link == "trains" {
								mode, pick = remote.Trains, rand.New(rand.NewSource(int64(i))).Intn
							}
							g := newBatchGate(modelSlab, mode)
							g.acks, g.both = true, link == "trains"
							g.holding.Store(true)
							transports[i] = g.Transport()
							defer g.pump(pick, func(int) {})()
							gates = append(gates, g)
							continue
						}
						l, err := net.Listen("tcp", "127.0.0.1:0")
						if err != nil {
							t.Fatal(err)
						}
						defer l.Close()
						go agent.Serve(l)
						if transports[i], err = remote.DialTCP(l.Addr().String()); err != nil {
							t.Fatal(err)
						}
					}
					if in, ok := transports[0].(*remote.InProc); ok {
						outage = in.SetFailed
					}
					h, err := remote.NewHost(remote.HostConfig{SlabPages: modelSlab, Replicas: 2, QueueDepth: 8, Seed: 1}, transports)
					if err != nil {
						t.Fatal(err)
					}
					defer h.Close()
					m, err := Open(WithRemoteHost(h), WithCacheCapacity(modelBudget), WithQueueDepth(8), WithSeed(1),
						WithShards(shards), WithCompressedTier(tier))
					if err != nil {
						t.Fatal(err)
					}
					defer m.Close()
					s := &storeModel{t: t, rng: rand.New(rand.NewSource(int64(shards)*100 + tier + int64(len(link)))),
						m: m, oracle: map[core.PageID]*[remote.PageSize]byte{}, churnAt: churnFrom}

					s.play(1000, outage)
					for pg := range s.oracle {
						s.check(pg)
					}
					if err := m.Flush(); err != nil {
						t.Fatal(err)
					}
					if err := m.CheckShardInvariants(core.PageID(modelPages*modelStride + 2)); err != nil {
						t.Fatal(err)
					}
					for i, g := range gates {
						if n := g.OutOfOrder(); n > 0 {
							t.Errorf("link %d: %d flights were waited for ahead of an older one", i, n)
						}
					}
					st := m.Stats().Host
					t.Logf("writes %d (async %d), range writes %d, dirty reads %d, %d B in write frames",
						st.Writes, st.AsyncWrites, st.RangeWrites, st.DirtyReads, st.WriteWireBytes)
					if tier == 0 && (st.RangeWrites == 0 || st.DirtyReads == 0 || st.AsyncWrites == st.Writes) {
						t.Errorf("tape did not cover ranges, dirty refaults and supersedes: %+v", st)
					}
				})
			}
		}
	}
}
