package leap

import (
	"bytes"
	"fmt"
	goruntime "runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"leap/internal/control"
	"leap/internal/remote"
	"leap/internal/sim"
)

// TestMemoryConcurrentSlowReplica pins the head-of-line fix in the prefetch
// path: with one replica serving and batch reads failing, a demand fetch
// stuck on the wire must not hold the fault-path lock — other clients'
// faults proceed while it waits. Before the fix, fetchPrefetches retried
// failed tickets synchronously under the lock, so one slow agent stalled
// every client.
func TestMemoryConcurrentSlowReplica(t *testing.T) {
	// The link can fail every batch read (so prefetch tickets error and are
	// abandoned) and block the demand read of page 0 (slab 0, offset 0) until
	// released, while every other call passes straight through.
	var failBatch, blocking atomic.Bool
	arrived, release := make(chan struct{}), make(chan struct{})
	gate := remote.NewScriptedLink(remote.NewInProc(remote.NewAgent(64, 0)), remote.CallOnly, nil, func(req *remote.Request) remote.Verdict {
		if failBatch.Load() && req.Op == remote.OpReadBatch {
			return remote.Verdict{Err: remote.ErrInjected}
		}
		if blocking.Load() && req.Op == remote.OpRead && req.Slab == 0 && req.PageOff == 0 {
			close(arrived)
			<-release
		}
		return remote.Verdict{}
	})
	host, err := NewRemoteHost(RemoteHostConfig{SlabPages: 64, Replicas: 1, Seed: 3},
		[]RemoteTransport{gate.Transport()})
	if err != nil {
		t.Fatal(err)
	}
	defer host.Close()
	mem, err := Open(WithRemoteHost(host), WithSeed(21), WithCacheCapacity(16),
		WithQueueDepth(4))
	if err != nil {
		t.Fatal(err)
	}
	defer mem.Close()

	buf := make([]byte, RemotePageSize)
	for pg := PageID(0); pg < 128; pg++ {
		fillPage(pg, buf)
		if _, err := mem.WriteAt(buf, int64(pg)*RemotePageSize); err != nil {
			t.Fatal(err)
		}
	}
	if err := mem.Flush(); err != nil {
		t.Fatal(err)
	}

	// Arm the gate: batch reads fail, and the demand read of page 0 parks on
	// the wire until released.
	failBatch.Store(true)
	blocking.Store(true)

	slowDone := make(chan error, 1)
	go func() {
		_, err := mem.Client(1).Get(0)
		slowDone <- err
	}()
	<-arrived // the demand fetch of page 0 is now stuck on the wire

	// A different client faults a page in another slab. If the stuck fetch
	// (or a synchronous prefetch retry) held the fault-path lock, this would
	// hang until the gate releases.
	fastDone := make(chan error, 1)
	go func() {
		_, err := mem.Client(2).Get(70)
		fastDone <- err
	}()
	select {
	case err := <-fastDone:
		if err != nil {
			t.Fatalf("concurrent Get(70): %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Get(70) blocked behind a stuck demand fetch: head-of-line regression")
	}

	close(release)
	if err := <-slowDone; err != nil {
		t.Fatalf("blocked Get(0) after release: %v", err)
	}
	failBatch.Store(false)
	blocking.Store(false)

	// Abandoned prefetch tickets were read failures: nothing latched, and
	// both pages carry the right bytes.
	if err := mem.Flush(); err != nil {
		t.Fatalf("flush after failed batch reads: %v", err)
	}
	for _, pg := range []PageID{0, 70} {
		got := make([]byte, RemotePageSize)
		if _, err := mem.ReadAt(got, int64(pg)*RemotePageSize); err != nil {
			t.Fatalf("read page %d: %v", pg, err)
		}
		fillPage(pg, buf)
		if !bytes.Equal(got, buf) {
			t.Fatalf("page %d corrupted", pg)
		}
	}
}

// planeSelfHealScenario is the end-to-end control-plane cycle over the
// live runtime's private cluster: a partitioned agent is detected and
// failed (slabs re-replicated), sustained slow-agent pressure makes the
// autoscaler provision a brand-new agent, probation brings the healed agent
// back, the pressure's end drains the extra capacity — and every byte ever
// acknowledged stays readable and correct throughout. extra options layer
// on top of the base configuration (the sharded variant passes WithShards).
func planeSelfHealScenario(t *testing.T, extra ...Option) {
	t.Helper()
	opts := []Option{
		WithControlPlane(ControlConfig{
			Detector: ControlDetectorConfig{
				// SuspectErr == FailErr: once suspected, the agent gets no
				// traffic, so its frozen error EWMA must clear the fail bar
				// on the next tick. Latency thresholds stay disabled — the
				// slow agent is the scaler's business here, not the
				// detector's.
				SuspectErr: 0.25,
				FailErr:    0.25,
			},
			Scaler: ControlScalerConfig{
				Min: 3, Max: 6,
				HighLat:   10 * sim.Microsecond,
				LowLat:    1 * sim.Microsecond,
				UpTicks:   2,
				Cooldown:  2,
				DownTicks: 3,
			},
		}),
		WithSeed(7), WithCacheCapacity(32), WithQueueDepth(4),
	}
	mem, err := Open(append(opts, extra...)...)
	if err != nil {
		t.Fatal(err)
	}
	defer mem.Close()
	if mem.Plane() == nil {
		t.Fatal("WithControlPlane attached no plane")
	}

	trs := mem.Host().Transports()
	if len(trs) != 3 {
		t.Fatalf("private cluster has %d transports, want 3", len(trs))
	}
	ft1 := trs[1].(*remote.FaultTransport)
	ft2 := trs[2].(*remote.FaultTransport)

	// The working set spreads across 64 slabs (the private cluster's slabs
	// hold 1024 pages), so every agent serves a share of the traffic.
	pageAt := func(i int) PageID { return PageID((i%64)*1024 + i/64) }
	const pages = 256
	buf := make([]byte, RemotePageSize)
	for i := 0; i < pages; i++ {
		fillPage(pageAt(i), buf)
		if _, err := mem.WriteAt(buf, int64(pageAt(i))*RemotePageSize); err != nil {
			t.Fatal(err)
		}
	}
	if err := mem.Flush(); err != nil {
		t.Fatal(err)
	}
	// sweep keeps faults (and so per-agent observations) flowing: the cache
	// holds 32 frames against a 256-page set, so most Gets are misses.
	sweep := func() {
		for i := 0; i < pages; i++ {
			if _, err := mem.Get(pageAt(i)); err != nil {
				t.Fatalf("sweep Get(%d): %v", pageAt(i), err)
			}
		}
	}
	// round is one control period: traffic, then an explicit tick (the EWMAs
	// only fold ticks that saw calls).
	round := func() { sweep(); mem.TickControl() }
	until := func(what string, limit int, ok func() bool) {
		for r := 0; r < limit; r++ {
			if ok() {
				return
			}
			round()
		}
		if !ok() {
			t.Fatalf("%s did not happen within %d rounds (control=%+v)",
				what, limit, mem.Stats().Control)
		}
	}

	round()
	round() // a healthy baseline: phases all Healthy, no actions yet
	if st := mem.Stats().Control; !st.Enabled || st.Fails != 0 || st.Live != 3 {
		t.Fatalf("healthy baseline off: %+v", st)
	}

	// Partition agent 1: error pressure fails it within a few ticks, and the
	// fail action repairs replication on the survivors.
	ft1.SetMode(remote.FaultMode{Partitioned: true})
	until("agent 1 failed", 8, func() bool {
		return mem.Plane().AgentPhase(1) == control.Failed
	})
	if st := mem.Stats().Control; st.Fails < 1 || st.Suspects < 1 {
		t.Fatalf("detector cycle missing actions: %+v", st)
	}
	if n := mem.Host().UnderReplicated(); n != 0 {
		t.Fatalf("fail action left %d slabs under-replicated", n)
	}

	// Slow-ramp agent 2: the cluster's latency EWMA crosses HighLat and the
	// scaler provisions a brand-new agent into the live host.
	ft2.SetMode(remote.FaultMode{ExtraLatency: 50 * sim.Microsecond})
	until("scale-up", 10, func() bool { return mem.Host().Agents() > 3 })
	if st := mem.Stats().Control; st.ScaleUps < 1 {
		t.Fatalf("scaler never grew the pool: %+v", st)
	}

	// Heal the partition: probation probes the agent back to service.
	ft1.SetMode(remote.FaultMode{})
	until("agent 1 recovered", 20, func() bool {
		return mem.Plane().AgentPhase(1) == control.Healthy
	})
	if st := mem.Stats().Control; st.Recovers < 1 {
		t.Fatalf("probation never recovered the healed agent: %+v", st)
	}

	// Clear the slow agent: pressure decays and the scaler drains capacity.
	ft2.SetMode(remote.FaultMode{})
	until("scale-down", 40, func() bool {
		return mem.Stats().Control.ScaleDowns >= 1
	})

	// Zero acked-write loss across the whole episode.
	got := make([]byte, RemotePageSize)
	for i := 0; i < pages; i++ {
		fillPage(pageAt(i), buf)
		if _, err := mem.ReadAt(got, int64(pageAt(i))*RemotePageSize); err != nil {
			t.Fatalf("final read page %d: %v", pageAt(i), err)
		}
		if !bytes.Equal(got, buf) {
			t.Fatalf("final page %d corrupted", pageAt(i))
		}
	}
	st := mem.Stats()
	if err := mem.Flush(); err != nil {
		t.Fatalf("final flush: %v", err)
	}
	if !st.Control.Enabled || st.Control.Ticks == 0 {
		t.Fatalf("control stats not live: %+v", st.Control)
	}
	if st.Control.Live < 3 {
		t.Fatalf("cluster ended with %d live agents, want >= 3", st.Control.Live)
	}
	if !strings.Contains(st.Control.Phases, "healthy") {
		t.Fatalf("phase string %q reports no healthy agent", st.Control.Phases)
	}
}

// TestMemoryPlaneSelfHeals runs the control-plane self-healing cycle on the
// default (single-stripe) runtime.
func TestMemoryPlaneSelfHeals(t *testing.T) { planeSelfHealScenario(t) }

// deadlockWatchdog arms a wall-clock timer that dumps every goroutine's
// stack and panics, naming what it watched, if the caller has not stopped it
// within d — turning a lock-order deadlock into a diagnosable failure
// instead of a test-binary timeout. Stop the returned timer when the
// scenario completes.
func deadlockWatchdog(d time.Duration, what string) *time.Timer {
	return time.AfterFunc(d, func() {
		buf := make([]byte, 1<<20)
		n := goruntime.Stack(buf, true)
		panic(fmt.Sprintf("%s: deadlock watchdog fired after %v:\n%s", what, d, buf[:n]))
	})
}

// TestMemoryPlaneSelfHealsSharded replays the whole self-healing cycle
// against a sharded Memory (4 stripes): every fault path interleaves shard
// locks with plane ticks and host mutations, so a violation of the
// documented shard.mu → plane.mu → host.mu order would deadlock here. The
// watchdog converts such a deadlock into a stack dump; correctness (zero
// acked-write loss, detector/scaler cycle) is asserted by the scenario
// itself.
func TestMemoryPlaneSelfHealsSharded(t *testing.T) {
	wd := deadlockWatchdog(120*time.Second, t.Name())
	defer wd.Stop()
	planeSelfHealScenario(t, WithShards(4))
}
