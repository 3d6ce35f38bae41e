package vmm

import (
	"reflect"
	"testing"

	"leap/internal/datapath"
	"leap/internal/pagecache"
	"leap/internal/prefetch"
	"leap/internal/rdma"
	"leap/internal/sim"
	"leap/internal/storage"
	"leap/internal/workload"
)

// leapCfgAtDepth is the full Leap stack on remote memory with the given
// doorbell queue depth.
func leapCfgAtDepth(depth int, seed uint64) Config {
	return Config{
		Path:             datapath.Config{Kind: datapath.Lean},
		CachePolicy:      pagecache.EvictEager,
		Prefetcher:       prefetch.NewLeap(coreConfig()),
		RemoteQueueDepth: depth,
		Seed:             seed,
	}
}

// TestBatchedPrefetchDeterministic pins the doorbell fan-out path: same
// seed, same depth → identical results.
func TestBatchedPrefetchDeterministic(t *testing.T) {
	run := func() Result {
		apps := []App{{PID: 1, Gen: workload.NewSequential(4000, 9), LimitPages: 1200}}
		_, res, err := Run(leapCfgAtDepth(8, 9), apps, 2000, 8000)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same-seed batched runs diverged:\n%+v\n%+v", a, b)
	}
}

// TestQueueDepthOneMatchesUnbatched: RemoteQueueDepth 1 must not even
// engage the batch machinery — results are bit-identical to the zero-value
// (unbatched) configuration.
func TestQueueDepthOneMatchesUnbatched(t *testing.T) {
	run := func(depth int) Result {
		cfg := leapCfgAtDepth(depth, 21)
		apps := []App{{PID: 1, Gen: workload.NewSequential(4000, 21), LimitPages: 1200}}
		_, res, err := Run(cfg, apps, 2000, 8000)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	if a, b := run(0), run(1); !reflect.DeepEqual(a, b) {
		t.Fatalf("depth 1 diverged from unbatched:\n%+v\n%+v", a, b)
	}
}

// TestBatchedPrefetchFasterOnSequential: on a sequential scan (steady
// prefetch windows) the doorbell path must not be slower than per-page
// submission — the whole point of amortizing the round trip.
func TestBatchedPrefetchFaster(t *testing.T) {
	run := func(depth int) Result {
		apps := []App{{PID: 1, Gen: workload.NewSequential(4000, 33), LimitPages: 1200}}
		_, res, err := Run(leapCfgAtDepth(depth, 33), apps, 2000, 10000)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	shallow, deep := run(1), run(8)
	if deep.Makespan > shallow.Makespan {
		t.Fatalf("depth-8 run slower than depth-1: %v > %v", deep.Makespan, shallow.Makespan)
	}
	if deep.PrefetchIssued == 0 {
		t.Fatal("batched run issued no prefetches")
	}
}

// TestBatchedFabricAccounting: a depth-8 sequential run must issue fewer
// fabric round-trip draws than pages read, while total fabric ops still
// count every page — occupancy is per page, latency per doorbell.
func TestBatchedFabricAccounting(t *testing.T) {
	fabric := rdma.New(rdma.Config{}, sim.NewRNG(3))
	dev := storage.NewRemote(fabric)
	cfg := leapCfgAtDepth(8, 3)
	cfg.Device = dev
	apps := []App{{PID: 1, Gen: workload.NewSequential(4000, 3), LimitPages: 1200}}
	_, res, err := Run(cfg, apps, 2000, 8000)
	if err != nil {
		t.Fatal(err)
	}
	if fabric.Ops() < res.Faults {
		t.Fatalf("fabric ops %d below fault count %d: pages went uncharged", fabric.Ops(), res.Faults)
	}
}
