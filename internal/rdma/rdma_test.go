package rdma

import (
	"math"
	"testing"

	"leap/internal/sim"
)

func TestUnloadedLatency(t *testing.T) {
	f := New(Config{}, sim.NewRNG(1))
	var sum float64
	const n = 100000
	now := sim.Time(0)
	for i := 0; i < n; i++ {
		// Space submissions out so queues never back up.
		now = now.Add(100 * sim.Microsecond)
		done := f.Submit(i%8, now)
		sum += float64(done.Sub(now))
	}
	mean := sum / n
	if math.Abs(mean-4300)/4300 > 0.05 {
		t.Fatalf("unloaded mean latency = %.0fns, want ~4300ns", mean)
	}
	if f.Ops() != n {
		t.Fatalf("Ops = %d, want %d", f.Ops(), n)
	}
}

func TestQueueCongestion(t *testing.T) {
	f := New(Config{Queues: 1, ServiceTime: sim.Microsecond}, sim.NewRNG(2))
	// Burst of 100 ops at t=0 on one queue: the k-th op waits ~k·service.
	var last sim.Time
	for i := 0; i < 100; i++ {
		last = f.Submit(0, 0)
	}
	if last < sim.Time(99*sim.Microsecond) {
		t.Fatalf("burst did not queue: last completion %v", sim.Duration(last))
	}
	if f.QueueDelay.Max() < 90*sim.Microsecond {
		t.Fatalf("queue delay max = %v, want ~99µs", f.QueueDelay.Max())
	}
}

func TestQueuesAreIndependent(t *testing.T) {
	f := New(Config{Queues: 4, ServiceTime: 10 * sim.Microsecond}, sim.NewRNG(3))
	// Saturate queue 0.
	for i := 0; i < 50; i++ {
		f.Submit(0, 0)
	}
	// Queue 1 is still idle: the op on it sees no queue delay.
	f.QueueDelay.Reset()
	f.Submit(1, 0)
	if d := f.QueueDelay.Max(); d != 0 {
		t.Fatalf("op on idle queue 1 waited %v behind queue 0", d)
	}
}

func TestCoreToQueueMapping(t *testing.T) {
	f := New(Config{Queues: 4}, sim.NewRNG(4))
	// Core 5 maps to queue 1; saturating core 1 must delay core 5.
	for i := 0; i < 100; i++ {
		f.Submit(1, 0)
	}
	before := f.QueueDelay.Count()
	f.Submit(5, 0)
	if f.QueueDelay.Count() != before+1 {
		t.Fatal("submit not recorded")
	}
	if f.QueueDelay.Max() == 0 {
		t.Fatal("core 5 did not share core 1's queue backlog")
	}
}

func TestDefaults(t *testing.T) {
	f := New(Config{}, sim.NewRNG(7))
	if f.Queues() != 8 {
		t.Fatalf("default queues = %d, want 8", f.Queues())
	}
	if f.MeanOpLatency() != 4300 {
		t.Fatalf("default mean op latency = %v, want 4.3µs", f.MeanOpLatency())
	}
}
