package remote

import (
	"bytes"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"
)

// TestScriptedLink holds the test link to its own contract: when its frames
// reach the inner transport and what it counts of them, how held responses
// come out, the order of waits it watches, its time, and its use from 8
// goroutines at once — every frame reaching its agent once, and every wait
// getting its own page.
func TestScriptedLink(t *testing.T) {
	ping := func(n int) *Request { return &Request{Op: OpPing, PageOff: uint32(n), Payload: []byte{byte(n)}} }
	// newLink returns a link over an agent, and what has reached the agent.
	newLink := func(mode Mode, clock *FakeClock) (*ScriptedLink, Transport, *[]int) {
		var sent []int
		l := NewScriptedLink(NewInProc(NewAgent(64, 0)), mode, clock, func(req *Request) Verdict {
			if req.Payload[0] != byte(req.PageOff) {
				t.Errorf("frame %d reached the agent with another frame's bytes", req.PageOff)
			}
			sent = append(sent, int(req.PageOff))
			return Verdict{}
		})
		return l, l.Transport(), &sent
	}
	for _, c := range []struct {
		name string
		run  func(t *testing.T)
	}{{"trains", func(t *testing.T) {
		l, tr, sent := newLink(Trains, nil)
		start := func(n int, more bool) Pending {
			req := ping(n)
			p, _ := tr.(TrainStarter).StartTrain(req, more)
			req.PageOff, req.Payload[0] = 99, 99 // the host encodes its next frame over req
			return p
		}
		step := func(what string, upTo int, wantWrites int64) {
			t.Helper()
			writes, frames, _ := l.Traffic()
			if want := []int{0, 1, 2, 3, 4, 5, 6, 7}[:upTo]; !slices.Equal(*sent, want) || writes != wantWrites || frames != int64(upTo) {
				t.Fatalf("%s: sent %v in %d writes (%d frames), want %v in %d", what, *sent, writes, frames, want, wantWrites)
			}
		}
		start(0, true)
		start(1, true)
		step("frames with more", 0, 0)
		start(2, false)
		step("a frame without more", 3, 1)
		start(3, true)
		tr.Call(ping(4))
		step("a call", 5, 3)
		p := start(5, true)
		start(6, true)
		p.Wait()
		step("a wait", 7, 4)
	}}, {"held", func(t *testing.T) {
		l, tr, _ := newLink(Split, nil)
		got := make(chan int, 8)
		wait := func(p Pending, n int) {
			if _, err := p.Wait(); err == nil {
				got <- n
			}
		}
		l.Hold()
		for n := range 3 {
			p, _ := tr.(Starter).Start(ping(n))
			go wait(p, n)
		}
		l.AwaitWaiters(3)
		if len(got) > 0 {
			t.Fatal("a held response came out before Release")
		}
		l.Release()
		p, _ := tr.(Starter).Start(ping(3)) // Hold is over
		wait(p, 3)
		l.Hold()
		var ps []Pending
		for n := 4; n < 8; n++ {
			p, _ := tr.(Starter).Start(ping(n))
			ps = append(ps, p)
		}
		var pumped []int
		stop := l.Pump(func(n int) int { return n - 1 }, func(held int) { pumped = append(pumped, held) })
		for i, p := range ps { // the oldest first: the pump lets all four go, newest first
			wait(p, 4+i)
		}
		stop()
		out := []int{<-got, <-got, <-got, <-got, <-got, <-got, <-got, <-got}
		if slices.Sort(out); !slices.Equal(out, []int{0, 1, 2, 3, 4, 5, 6, 7}) || len(got) > 0 || !slices.Equal(pumped, []int{4, 3, 2, 1}) {
			t.Errorf("responses %v came out, the pump seeing %v held; want each of 0..7 once, and 4 3 2 1", out, pumped)
		}
	}}, {"order", func(t *testing.T) {
		l, tr, _ := newLink(Split, nil)
		a, _ := tr.(Starter).Start(ping(0))
		b, _ := tr.(Starter).Start(ping(1))
		tr.Call(ping(2)) // outside the order
		b.Wait()
		a.Wait()
		b.Wait()
		if n := l.OutOfOrder(); n != 1 {
			t.Errorf("%d waits out of order, want 1", n)
		}
	}}, {"fake clock", func(t *testing.T) {
		clock := NewFakeClock()
		t0 := clock.Now()
		l, tr, _ := newLink(Split, clock)
		l.SetTiming(time.Millisecond, 100*time.Microsecond, 10*time.Microsecond)
		var ps []Pending
		for n := range 3 {
			p, _ := tr.(Starter).Start(ping(n))
			ps = append(ps, p)
		}
		for i, p := range ps { // due 1 ms after the agent served them, 100 us apart
			p.Wait()
			if got, want := clock.Now().Sub(t0), time.Duration(1000+100*(i+1)+10)*time.Microsecond; got != want {
				t.Errorf("response %d taken at %v, want %v", i, got, want)
			}
		}
	}}, {"8 goroutines, trains, seeded pump", func(t *testing.T) {
		const goroutines, frames = 8, 64
		inner := NewInProc(NewAgent(goroutines*frames, 0))
		mustCall(t, inner, &Request{Op: OpMapSlab, Slab: 1})
		for pg := range goroutines * frames {
			mustCall(t, inner, &Request{Op: OpWrite, Slab: 1, PageOff: uint32(pg), Payload: stamp(pg)})
		}
		l := NewScriptedLink(inner, Trains, nil, nil)
		l.Hold()
		defer l.Pump(rand.New(rand.NewSource(1)).Intn, func(int) {})()
		var wg sync.WaitGroup
		for g := range goroutines {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range frames {
					pg := g*frames + i
					p, _ := l.Transport().(TrainStarter).StartTrain(&Request{Op: OpRead, Slab: 1, PageOff: uint32(pg)}, i%3 != 2)
					if resp, err := p.Wait(); err != nil || !bytes.Equal(resp.Payload, stamp(pg)) {
						t.Errorf("page %d: wrong bytes (%v)", pg, err)
						return
					}
				}
			}()
		}
		wg.Wait()
		if _, n, _ := l.Traffic(); n != goroutines*frames {
			t.Errorf("%d frames reached the agent, want %d", n, goroutines*frames)
		}
	}}} {
		t.Run(c.name, c.run)
	}
}
