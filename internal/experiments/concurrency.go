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
)

// The `-fig concurrency` sweep: the concurrent leap.Memory runtime under the
// closed-loop multi-client load (internal/load), projected onto 1–8 driving
// goroutines with the deterministic Amdahl model measured off the real
// fault path (see load.Measurement). Each (depth, clients) cell is one live
// run over a fresh in-process cluster — real bytes, real placement — whose
// per-client streams feed per-client predictors through Memory.Client;
// goroutine scaling then spreads the waitable wire time while the
// lock-serialized CPU share stays put, so throughput rises monotonically
// with goroutines until the serial fraction caps it. The isolation line
// replays the paper's §4.1 argument at runtime scale: the same interleaved
// multi-client load with one shared predictor instead of per-client ones.

// The sweep grid.
var (
	concurrencyDepths     = []int{1, 8}
	concurrencyClients    = []int{1, 2, 4}
	concurrencyGoroutines = []int{1, 2, 4, 8}
)

// concurrencyPages is each client's private page range; the shared cache
// budget stays at concurrencyCache pages, so wider client counts
// oversubscribe local memory harder (span = clients × pages).
const (
	concurrencyPages = 256
	concurrencyCache = 256
)

// concCell is one (depth, clients) run: its load measurement and its hit
// ratio.
type concCell struct {
	depth, clients int
	load.Measurement
	hit float64
}

// concurrencyRun measures one (depth, clients) cell, with per-client
// predictors or one shared predictor.
func concurrencyRun(depth, clients int, ops int64, seed uint64, shared bool) concCell {
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
	ms, err := load.Measure(mem, load.Config{
		Clients:        clients,
		OpsPerClient:   int(ops) / clients,
		PagesPerClient: concurrencyPages,
		Seed:           seed ^ uint64(depth)<<16 ^ uint64(clients)<<8,
	})
	if err != nil {
		panic(err)
	}
	return concCell{depth, clients, ms, mem.Stats().HitRatio}
}

// concurrencyFig runs the depth × clients grid, then the shared-predictor
// half of the isolation ablation at the widest client count and deepest
// queue (the grid's last cell is its per-client half: the run is
// deterministic, so re-running it could only reproduce the same number).
func concurrencyFig(s Scale, seed uint64) (cells []concCell, shared concCell) {
	ops := perRun(s, 4, 2000)
	for _, depth := range concurrencyDepths {
		for _, clients := range concurrencyClients {
			cells = append(cells, concurrencyRun(depth, clients, ops, seed, false))
		}
	}
	last := cells[len(cells)-1]
	return cells, concurrencyRun(last.depth, last.clients, ops, seed, true)
}

// kops is a cell's modeled throughput at g goroutines, in thousands of
// operations per virtual second.
func (c concCell) kops(g int) float64 { return c.Throughput(g) / 1e3 }

// measuredGoroutines is the goroutine sweep of the measured block and
// measuredShards its WithShards stripe count (one stripe per expected
// core, so hit-path locks split 8 ways).
var measuredGoroutines = []int{1, 2, 4, 8}

const (
	measuredShards  = 8
	measuredClients = 8
)

// wallRun is one goroutine count of the measured block: the operations the
// run executed and its wall-clock duration.
type wallRun struct {
	goroutines int
	ops        int64
	wall       time.Duration
}

// measuredFig is the measured real-goroutine block: measuredClients
// clients driven by g workers over a fresh sharded Memory through
// load.DriveTimed, at each goroutine count. The numbers are
// machine-dependent by nature (wall time, scheduler, GOMAXPROCS, which is
// observed, never mutated); determinism gates strip them.
func measuredFig(s Scale, seed uint64) []wallRun {
	ops := perRun(s, 4, 2000)
	var runs []wallRun
	for _, g := range measuredGoroutines {
		mem, err := runtime.Open(
			runtime.WithSeed(seed),
			runtime.WithShards(measuredShards),
			runtime.WithCacheCapacity(concurrencyCache),
			runtime.WithQueueDepth(8),
		)
		if err != nil {
			panic(err)
		}
		res, wall, err := load.DriveTimed(mem, load.Config{
			Clients:        measuredClients,
			Goroutines:     g,
			OpsPerClient:   int(ops) / measuredClients,
			PagesPerClient: 64,
			Seed:           seed ^ 0xD81E,
		})
		mem.Close()
		if err != nil {
			panic(err)
		}
		runs = append(runs, wallRun{g, res.Ops, wall})
	}
	return runs
}

// kops is a measured run's wall-clock throughput in thousands of
// operations per second.
func (r wallRun) kops() float64 {
	if r.wall <= 0 {
		return 0
	}
	return float64(r.ops) / r.wall.Seconds() / 1e3
}

func renderConcurrency(s Scale, seed uint64) string {
	cells, shared := concurrencyFig(s, seed)
	var b strings.Builder
	fmt.Fprintf(&b, "Figure C — concurrency: multi-client leap.Memory (closed loop, %d ops/run, modeled goroutine scaling)\n",
		perRun(s, 4, 2000))
	var rows [][]any
	for _, c := range cells {
		for _, g := range concurrencyGoroutines {
			rows = append(rows, []any{c.depth, c.clients, g, c.Ops, c.kops(g), c.Makespan(g), 100 * c.hit})
		}
	}
	table(&b, "  ", []col{{"depth", 5, ""}, {"clients", 7, ""}, {"goroutines", 10, ""}, {"ops", 8, ""},
		{"Kops/s", 12, "%.1f"}, {"makespan", 10, ""}, {"hit", 8, percent}}, rows)
	most := concurrencyGoroutines[len(concurrencyGoroutines)-1]
	fmt.Fprintf(&b, "  goroutine scaling (throughput ×, %d vs 1 goroutines):", most)
	for _, c := range cells {
		fmt.Fprintf(&b, "  d%d/c%d %.2f×", c.depth, c.clients, ratio(c.kops(most), c.kops(1)))
	}
	isolated := cells[len(cells)-1]
	fmt.Fprintf(&b, "\n  §4.1 isolation at %d clients: per-client predictors %.1f%% hit vs shared predictor %.1f%% hit\n",
		isolated.clients, 100*isolated.hit, 100*shared.hit)
	b.WriteString("  (each cell is one live run over the in-proc cluster; goroutine rows spread its waitable wire time, the lock-serialized share is the ceiling)\n")
	// The measured block renders last, every line under the "  measured"
	// prefix: wall-clock numbers are machine- and run-dependent, and
	// byte-identity gates (tests, CI two-run diffs) strip exactly these
	// lines via StripMeasured / `grep -v '^  measured'`.
	fmt.Fprintf(&b, "  measured real-goroutine load.Drive (wall clock, nondeterministic): GOMAXPROCS=%d shards=%d clients=%d %d ops/run\n",
		goruntime.GOMAXPROCS(0), measuredShards, measuredClients, perRun(s, 4, 2000))
	for _, r := range measuredFig(s, seed) {
		fmt.Fprintf(&b, "  measured   g=%d %10.1f Kops/s (wall %v, %d ops)\n",
			r.goroutines, r.kops(), r.wall.Round(time.Microsecond), r.ops)
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
		if !strings.HasPrefix(ln, "  measured") {
			kept = append(kept, ln)
		}
	}
	return strings.Join(kept, "\n")
}
