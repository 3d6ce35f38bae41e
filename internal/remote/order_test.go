package remote

import (
	"fmt"
	"os"
	"strings"
	"sync"
	"testing"

	"leap/internal/core"
)

type callLog struct {
	mu    sync.Mutex
	lines []string
}

func (l *callLog) add(format string, args ...any) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.lines = append(l.lines, fmt.Sprintf(format, args...))
}

// recording is a script that logs every round trip to agent idx — when it
// begins and how it ends.
func (l *callLog) recording(idx int) func(*Request) Verdict {
	return func(req *Request) Verdict {
		l.add("call a%d op%d x%d", idx, req.Op, BatchPages(req))
		return Verdict{Then: func(resp *Response, err error) {
			if err != nil {
				l.add("done a%d err", idx)
			} else {
				l.add("done a%d st%d %dB", idx, resp.Status, len(resp.Payload))
			}
		}}
	}
}

// inlineOrderScenario drives the ticket engine and the synchronous paths
// through batching, coalescing, dirty reads, failover and a superseding
// write over Call-only transports, and returns the log of
// transport calls and ticket outcomes.
func inlineOrderScenario(t *testing.T) string {
	log := &callLog{}
	inner := make([]*FaultTransport, 3)
	trs := make([]Transport, 3)
	for i := range trs {
		inner[i] = NewFaultTransport(i, NewInProc(NewAgent(16, 0)), nil)
		trs[i] = NewScriptedLink(inner[i], CallOnly, nil, log.recording(i)).Transport()
	}
	h := newHost(t, HostConfig{SlabPages: 16, Replicas: 2, QueueDepth: 4, Seed: 9}, trs)
	page := func(pg int) []byte {
		b := make([]byte, PageSize)
		for i := range b {
			b[i] = byte(pg*7 + i)
		}
		return b
	}
	outcome := func(what string, ts []*Ticket) {
		var sb strings.Builder
		for _, tk := range ts {
			switch {
			case !tk.Done():
				sb.WriteByte('?')
			case tk.Err() != nil:
				sb.WriteByte('E')
			default:
				sb.WriteByte('.')
			}
		}
		log.add("%s %s", what, sb.String())
	}

	// Ten writes over three slabs, two of them to one page (supersede).
	var ws []*Ticket
	for pg := 0; pg < 40; pg += 4 {
		ws = append(ws, h.WritePageAsync(core.PageID(pg), page(pg)))
	}
	ws = append(ws, h.WritePageAsync(4, page(104)))
	log.add("flush %v", h.Flush())
	outcome("writes", ws)

	// Reads: a coalesced pair, a dirty read, a batch per agent.
	bufs := make([][]byte, 12)
	for i := range bufs {
		bufs[i] = make([]byte, PageSize)
	}
	h.WritePageAsync(8, page(108))
	var rs []*Ticket
	for i, pg := range []int{0, 4, 8, 12, 16, 20, 24, 28, 32, 36, 0} {
		rs = append(rs, h.ReadPageAsync(core.PageID(pg), bufs[i]))
	}
	outcome("queued", rs)
	log.add("wait %v", rs[3].Wait())
	outcome("after wait", rs)
	log.add("flush %v", h.Flush())
	outcome("reads", rs)

	// Failover: one agent down, async and sync reads walk to the replica.
	inner[0].SetMode(FaultMode{Partitioned: true})
	rs = rs[:0]
	for i, pg := range []int{0, 4, 12, 16, 32, 36} {
		rs = append(rs, h.ReadPageAsync(core.PageID(pg), bufs[i]))
	}
	log.add("flush %v", h.Flush())
	outcome("failover reads", rs)
	for _, pg := range []int{0, 16, 32} {
		log.add("readpage %d %v", pg, h.ReadPage(core.PageID(pg), bufs[0]) == nil)
	}
	// Writes with an agent down degrade; a sync write of a dirty page flushes.
	ws = ws[:0]
	for _, pg := range []int{0, 16, 32} {
		ws = append(ws, h.WritePageAsync(core.PageID(pg), page(pg+1)))
	}
	log.add("writepage %v", h.WritePage(16, page(216)))
	outcome("degraded writes", ws)
	inner[0].SetMode(FaultMode{})
	log.add("stats %+v", h.Stats())
	return strings.Join(log.lines, "\n") + "\n"
}

// TestInlineOrderMatchesParent pins the split-phase engine to the
// stop-and-wait engine it replaced wherever a transport cannot start without
// finishing: the golden log was recorded by running this scenario on the
// commit before the engine was split (PR 12), so every transport call, its
// position relative to the others and every ticket outcome must be the same.
func TestInlineOrderMatchesParent(t *testing.T) {
	want, err := os.ReadFile("testdata/inline_order.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got := inlineOrderScenario(t); got != string(want) {
		t.Errorf("call/completion order diverged from the stop-and-wait engine\n--- got\n%s--- want\n%s", got, want)
	}
}
