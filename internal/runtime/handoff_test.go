package runtime

import (
	"bytes"
	"testing"

	"leap/internal/core"
	"leap/internal/remote"
)

// TestWritebackHandoffNoAlias: an eviction hands the host its frame's buffer as
// the page's image and takes a spare back (remote.Host.HandOffPageRange). The
// stripe scribbles over every free frame after each fault and reuses them for
// the next ones; neither the image the host holds for the evicted page nor the
// bytes that reach its two replicas may change. A page is written back three
// ways in turn: handed off fresh; superseding its own write while that is still
// queued, which the host copies, handing the frame's buffer back; and behind its
// own write on the wire, handed off again. Every buffer the host lets go of is
// poisoned, over in-process links and over links that move trains.
func TestWritebackHandoffNoAlias(t *testing.T) {
	remote.PoisonReleased(true)
	t.Cleanup(func() { remote.PoisonReleased(false) })
	const pages, slab, scribble = 48, 64, 0xEE
	for name, mode := range map[string]remote.Mode{"split": remote.Split, "trains": remote.Trains} {
		t.Run(name, func(t *testing.T) {
			agents, trs := make([]*remote.Agent, 2), make([]remote.Transport, 2)
			for i := range agents {
				agents[i] = remote.NewAgent(slab, 0)
				trs[i] = remote.NewScriptedLink(remote.NewInProc(agents[i]), mode, nil, nil).Transport()
			}
			m, h := memoryOver(t, remote.HostConfig{SlabPages: slab, Replicas: 2, QueueDepth: 8, Seed: 3}, trs, nil, pages,
				WithCacheCapacity(64), WithSeed(11))
			s := m.shards[0]
			want := make([][]byte, pages)
			for pg := range want {
				want[pg] = image(core.PageID(pg))
			}
			store := func(pg core.PageID, round int) {
				at := round * 64 % remote.PageSize
				data := bytes.Repeat([]byte{byte(round + 1)}, 64)
				if _, err := m.WriteAt(data, int64(pg)*remote.PageSize+int64(at)); err != nil {
					t.Fatalf("store into page %d: %v", pg, err)
				}
				copy(want[pg][at:], data)
			}
			read := func(pg core.PageID, want []byte) {
				got := make([]byte, remote.PageSize)
				if err := m.getInto(0, pg, got); err != nil {
					t.Fatalf("page %d: %v", pg, err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("page %d: wrong bytes through the fault path", pg)
				}
			}
			// evict faults never-written pages in until pg has left the stripe,
			// scribbling over every free frame after each fault, and reports
			// whether pg's buffer left the stripe with it.
			churn, zeros := core.PageID(1<<16), make([]byte, remote.PageSize)
			evict := func(pg core.PageID) (handedOff bool) {
				s.mu.Lock()
				f, _ := s.frames.Get(pg)
				buf := &f.data[0]
				s.mu.Unlock()
				for resident := true; resident; churn++ {
					read(churn, zeros)
					s.mu.Lock()
					for f := s.frameFree; f != nil; f = f.next {
						for i := range f.data {
							f.data[i] = scribble
						}
					}
					if resident = s.res.Contains(pg) || s.frames.Contains(pg); !resident {
						handedOff = true
						for f := s.frameFree; f != nil; f = f.next {
							handedOff = handedOff && &f.data[0] != buf
						}
						s.frames.Range(func(_ core.PageID, f *frame) bool {
							handedOff = handedOff && &f.data[0] != buf
							return true
						})
					}
					s.mu.Unlock()
				}
				return handedOff
			}
			hostImage := func(pg core.PageID) {
				got := make([]byte, remote.PageSize)
				if err := h.ReadPageAsync(pg, got).Wait(); err != nil {
					t.Fatalf("host read of page %d: %v", pg, err)
				}
				if !bytes.Equal(got, want[pg]) {
					t.Fatalf("page %d: the host's image changed after its eviction", pg)
				}
			}
			replicas := func() {
				if err := m.Flush(); err != nil {
					t.Fatal(err)
				}
				for pg := range core.PageID(pages) {
					for i, a := range agents {
						resp := a.Handle(&remote.Request{Op: remote.OpRead, Slab: remote.SlabID(pg / slab), PageOff: uint32(pg % slab)})
						if !bytes.Equal(resp.Payload, want[pg]) {
							t.Fatalf("page %d: replica %d holds other bytes (status %d)", pg, i, resp.Status)
						}
					}
					read(pg, want[pg])
				}
			}

			var fresh, copied, dirtyReads int
			for round := range 3 * pages {
				pg := core.PageID(round * 7 % pages) // a stride the predictor does not prefetch along
				store(pg, round)
				if evict(pg) {
					fresh++
				}
				hostImage(pg)
				if round%3 > 0 {
					if round%3 == 2 {
						if _, err := h.Submit(); err != nil { // the first write goes on the wire
							t.Fatal(err)
						}
					}
					read(pg, want[pg])
					store(pg, round+1)
					if !evict(pg) {
						copied++
					}
					dirty0 := h.Stats().DirtyReads
					hostImage(pg)
					dirtyReads += int(h.Stats().DirtyReads - dirty0)
				}
				if round%8 == 7 {
					replicas()
				}
			}
			replicas()
			t.Logf("%d writebacks handed off fresh, %d copied into a queued write, %d images read from the host's queue",
				fresh, copied, dirtyReads)
			if fresh < pages || copied == 0 || dirtyReads == 0 {
				t.Errorf("the handoff paths were not all taken: %d fresh, %d copied, %d dirty reads", fresh, copied, dirtyReads)
			}
		})
	}
}
