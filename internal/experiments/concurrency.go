package experiments

import (
	"fmt"
	goruntime "runtime"
	"strings"
	"time"

	"leap/internal/core"
	"leap/internal/load"
	"leap/internal/prefetch"
	"leap/internal/runtime"
	"leap/internal/sim"
)

// ConcurrencyRow is one (queue depth, clients, goroutines) grid point of the
// multi-client runtime sweep.
type ConcurrencyRow struct {
	Depth      int
	Clients    int
	Goroutines int
	Ops        int64
	Makespan   sim.Duration
	// KopsPerSec is the modeled closed-loop throughput at this goroutine
	// count, in thousands of operations per virtual second.
	KopsPerSec float64
	// HitRatio and SerialFrac are properties of the (depth, clients) run,
	// repeated on each of its goroutine rows.
	HitRatio   float64
	SerialFrac float64
}

// ConcurrencyResult is the `-fig concurrency` sweep: the concurrent
// leap.Memory runtime under the closed-loop multi-client load
// (internal/load), projected onto 1–8 driving goroutines with the
// deterministic Amdahl model measured off the real fault path (see
// load.Measurement). Each (depth, clients) cell is one live run over a
// fresh in-process cluster — real bytes, real placement — whose per-client
// streams feed per-client predictors through Memory.Client; goroutine
// scaling then spreads the waitable wire time while the lock-serialized
// CPU share stays put, so throughput rises monotonically with goroutines
// until the serial fraction caps it. The isolation block replays the
// paper's §4.1 argument at runtime scale: the same interleaved multi-client
// load with one shared predictor instead of per-client ones.
type ConcurrencyResult struct {
	Rows []ConcurrencyRow
	// IsolatedHitRatio vs SharedHitRatio: the §4.1 per-client isolation
	// ablation at the widest client count and deepest queue.
	IsolatedHitRatio, SharedHitRatio float64
	// IsolationClients is the client count the ablation ran at.
	IsolationClients int
	// OpsPerRun is the total operation count of each (depth, clients) run.
	OpsPerRun int64
	// Measured is the real-goroutine block: load.DriveTimed wall-clock
	// throughput of the sharded runtime at each goroutine count on this
	// machine. Unlike Rows it is NOT deterministic (wall time, scheduler,
	// GOMAXPROCS); String renders it under the "  measured" prefix so
	// byte-identity gates can strip it (StripMeasured).
	Measured []MeasuredRow
	// MeasuredProcs/MeasuredShards/MeasuredClients/MeasuredOps describe the
	// measured block's shape: the GOMAXPROCS it observed (never mutated),
	// the WithShards stripe count, the client count, and the ops per run.
	MeasuredProcs, MeasuredShards, MeasuredClients int
	MeasuredOps                                    int64
}

// MeasuredRow is one goroutine count of the measured real-goroutine sweep.
type MeasuredRow struct {
	// Goroutines is the load.Drive worker count.
	Goroutines int
	// Ops is the operations the run executed; Wall is its wall-clock
	// duration; KopsPerSec is Ops/Wall in thousands per (real) second.
	Ops        int64
	Wall       time.Duration
	KopsPerSec float64
}

// The sweep grid.
var (
	concurrencyDepths     = []int{1, 8}
	concurrencyClients    = []int{1, 2, 4}
	concurrencyGoroutines = []int{1, 2, 4, 8}
)

// concurrencyPages is each client's private page range; the shared cache
// budget stays at concurrencyCache pages, so wider client counts oversubscribe
// local memory harder (span = clients × pages).
const (
	concurrencyPages = 256
	concurrencyCache = 256
)

// concurrencyRun measures one (depth, clients) cell and reports the
// measurement plus the run's hit ratio.
func concurrencyRun(depth, clients int, ops int64, seed uint64, shared bool) (load.Measurement, float64) {
	pf := prefetch.NewLeap(core.Config{})
	pf.Shared = shared
	mem, err := runtime.Open(
		runtime.WithSeed(seed),
		runtime.WithPrefetcherFactory(func() prefetch.Prefetcher { return pf }),
		runtime.WithCacheCapacity(concurrencyCache),
		runtime.WithQueueDepth(depth),
	)
	if err != nil {
		panic(err)
	}
	defer mem.Close()
	cfg := load.Config{
		Clients:        clients,
		OpsPerClient:   int(ops) / clients,
		PagesPerClient: concurrencyPages,
		Seed:           seed ^ uint64(depth)<<16 ^ uint64(clients)<<8,
	}
	ms, err := load.Measure(mem, cfg)
	if err != nil {
		panic(err)
	}
	return ms, mem.Stats().HitRatio
}

// measuredGoroutines is the goroutine sweep of the measured block and
// measuredShards its WithShards stripe count (one stripe per expected
// core, so hit-path locks split 8 ways).
var measuredGoroutines = []int{1, 2, 4, 8}

const (
	measuredShards  = 8
	measuredClients = 8
)

// measuredRun executes one real-goroutine run: g workers drive
// measuredClients clients over a fresh sharded Memory through
// load.DriveTimed, and the row reports wall-clock throughput. The numbers
// are machine-dependent by nature; determinism gates strip them.
func measuredRun(g int, ops int64, seed uint64) MeasuredRow {
	mem, err := runtime.Open(
		runtime.WithSeed(seed),
		runtime.WithShards(measuredShards),
		runtime.WithCacheCapacity(concurrencyCache),
		runtime.WithQueueDepth(8),
	)
	if err != nil {
		panic(err)
	}
	defer mem.Close()
	cfg := load.Config{
		Clients:        measuredClients,
		Goroutines:     g,
		OpsPerClient:   int(ops) / measuredClients,
		PagesPerClient: 64,
		Seed:           seed ^ 0xD81E,
	}
	res, wall, err := load.DriveTimed(mem, cfg)
	if err != nil {
		panic(err)
	}
	row := MeasuredRow{Goroutines: g, Ops: res.Ops, Wall: wall}
	if wall > 0 {
		row.KopsPerSec = float64(res.Ops) / wall.Seconds() / 1e3
	}
	return row
}

// Concurrency runs the goroutines × clients sweep at each queue depth.
func Concurrency(s Scale, seed uint64) ConcurrencyResult {
	ops := s.Measured / 4
	if ops < 2000 {
		ops = 2000
	}
	out := ConcurrencyResult{OpsPerRun: ops}
	deepest := concurrencyDepths[len(concurrencyDepths)-1]
	widest := concurrencyClients[len(concurrencyClients)-1]
	for _, depth := range concurrencyDepths {
		for _, clients := range concurrencyClients {
			ms, hit := concurrencyRun(depth, clients, ops, seed, false)
			if depth == deepest && clients == widest {
				// This cell doubles as the isolated half of the §4.1
				// ablation (the run is deterministic; re-running it could
				// only reproduce the same number).
				out.IsolatedHitRatio = hit
			}
			for _, g := range concurrencyGoroutines {
				out.Rows = append(out.Rows, ConcurrencyRow{
					Depth:      depth,
					Clients:    clients,
					Goroutines: g,
					Ops:        ms.Ops,
					Makespan:   ms.Makespan(g),
					KopsPerSec: ms.Throughput(g) / 1e3,
					HitRatio:   hit,
					SerialFrac: ms.SerialFraction(),
				})
			}
		}
	}
	out.IsolationClients = widest
	_, out.SharedHitRatio = concurrencyRun(deepest, widest, ops, seed, true)
	// The measured block: the same closed loop driven by real goroutines
	// over the sharded runtime, timed on the wall clock. GOMAXPROCS is
	// observed, never mutated — figures may run in parallel with other work.
	out.MeasuredProcs = goruntime.GOMAXPROCS(0)
	out.MeasuredShards = measuredShards
	out.MeasuredClients = measuredClients
	out.MeasuredOps = ops
	for _, g := range measuredGoroutines {
		out.Measured = append(out.Measured, measuredRun(g, ops, seed))
	}
	return out
}

// Row fetches one grid point.
func (r ConcurrencyResult) Row(depth, clients, goroutines int) (ConcurrencyRow, bool) {
	for _, row := range r.Rows {
		if row.Depth == depth && row.Clients == clients && row.Goroutines == goroutines {
			return row, true
		}
	}
	return ConcurrencyRow{}, false
}

// GoroutineGain reports throughput at the most goroutines over one
// goroutine for a (depth, clients) cell.
func (r ConcurrencyResult) GoroutineGain(depth, clients int) float64 {
	lo, ok1 := r.Row(depth, clients, concurrencyGoroutines[0])
	hi, ok2 := r.Row(depth, clients, concurrencyGoroutines[len(concurrencyGoroutines)-1])
	if !ok1 || !ok2 || lo.KopsPerSec == 0 {
		return 0
	}
	return hi.KopsPerSec / lo.KopsPerSec
}

// String renders the figure.
func (r ConcurrencyResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure C — concurrency: multi-client leap.Memory (closed loop, %d ops/run, modeled goroutine scaling)\n", r.OpsPerRun)
	fmt.Fprintf(&b, "  %5s %7s %10s %8s %12s %10s %8s\n",
		"depth", "clients", "goroutines", "ops", "Kops/s", "makespan", "hit")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "  %5d %7d %10d %8d %12.1f %10v %7.1f%%\n",
			row.Depth, row.Clients, row.Goroutines, row.Ops,
			row.KopsPerSec, row.Makespan, 100*row.HitRatio)
	}
	fmt.Fprintf(&b, "  goroutine scaling (throughput ×, %d vs 1 goroutines):",
		concurrencyGoroutines[len(concurrencyGoroutines)-1])
	for _, depth := range concurrencyDepths {
		for _, clients := range concurrencyClients {
			fmt.Fprintf(&b, "  d%d/c%d %.2f×", depth, clients, r.GoroutineGain(depth, clients))
		}
	}
	b.WriteByte('\n')
	fmt.Fprintf(&b, "  §4.1 isolation at %d clients: per-client predictors %.1f%% hit vs shared predictor %.1f%% hit\n",
		r.IsolationClients, 100*r.IsolatedHitRatio, 100*r.SharedHitRatio)
	fmt.Fprintf(&b, "  (each cell is one live run over the in-proc cluster; goroutine rows spread its waitable wire time, the lock-serialized share is the ceiling)\n")
	// The measured block renders last, every line under the "  measured"
	// prefix: wall-clock numbers are machine- and run-dependent, and
	// byte-identity gates (tests, CI two-run diffs) strip exactly these
	// lines via StripMeasured / `grep -v '^  measured'`.
	if len(r.Measured) > 0 {
		fmt.Fprintf(&b, "  measured real-goroutine load.Drive (wall clock, nondeterministic): GOMAXPROCS=%d shards=%d clients=%d %d ops/run\n",
			r.MeasuredProcs, r.MeasuredShards, r.MeasuredClients, r.MeasuredOps)
		for _, row := range r.Measured {
			fmt.Fprintf(&b, "  measured   g=%d %10.1f Kops/s (wall %v, %d ops)\n",
				row.Goroutines, row.KopsPerSec, row.Wall.Round(time.Microsecond), row.Ops)
		}
	}
	return b.String()
}

// StripMeasured removes the nondeterministic measured block from a rendered
// concurrency figure: every line carrying the "  measured" prefix. The
// remainder is the deterministic model — byte-identical across runs for
// equal seeds — which is what determinism gates must compare.
func StripMeasured(out string) string {
	lines := strings.Split(out, "\n")
	kept := lines[:0]
	for _, ln := range lines {
		if strings.HasPrefix(ln, "  measured") {
			continue
		}
		kept = append(kept, ln)
	}
	return strings.Join(kept, "\n")
}
