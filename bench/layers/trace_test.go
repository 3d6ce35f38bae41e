package layers

import (
	"slices"
	"sync"
	"testing"

	"leap/internal/remote"
)

// orderedTransport is a stop-and-wait transport that notes, under its own
// lock, the time at which each request reached it.
type orderedTransport struct {
	tracer  *Tracer
	mu      sync.Mutex
	arrived []int64
}

func (o *orderedTransport) Call(*remote.Request) (*remote.Response, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.arrived = append(o.arrived, o.tracer.Now())
	return &remote.Response{}, nil
}

func (o *orderedTransport) Close() error { return nil }

// TestTransportSeqFollowsWireOrder holds the wrapper to what the span
// summary relies on: with several goroutines calling at once, the span
// numbered k is the k-th request to reach the connection, so it can be
// joined to the k-th turnaround the agent side logged.
func TestTransportSeqFollowsWireOrder(t *testing.T) {
	tracer := NewTracer()
	tracer.SetOn(true)
	inner := &orderedTransport{tracer: tracer}
	tr := tracer.Wrap(inner)
	const goroutines, calls = 4, 2000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < calls; i++ {
				if _, err := tr.Call(&remote.Request{}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	spans := tr.Spans()
	if len(spans) != goroutines*calls {
		t.Fatalf("%d spans recorded, want %d", len(spans), goroutines*calls)
	}
	slices.SortFunc(spans, func(a, b CallSpan) int { return int(a.Seq - b.Seq) })
	for k, s := range spans {
		if s.Seq != int64(k) {
			t.Fatalf("span %d has sequence number %d", k, s.Seq)
		}
		if at := inner.arrived[k]; at < s.Start || at > s.End {
			t.Fatalf("request %d reached the connection at %d, outside the span [%d, %d] numbered %d", k, at, s.Start, s.End, k)
		}
		if k > 0 && inner.arrived[k] < spans[k-1].End {
			t.Fatalf("request %d reached the connection at %d, before call %d ended at %d", k, inner.arrived[k], k-1, spans[k-1].End)
		}
	}
}
