package experiments

import (
	"fmt"
	"strings"

	"leap/internal/core"
	"leap/internal/prefetch"
	"leap/internal/remote"
	"leap/internal/runtime"
	"leap/internal/workload"
)

// The live-runtime figures: leap.Memory over an in-process remote-memory
// cluster, real bytes placed, replicated and fetched, with virtual-time
// latency accounting.

// memCase is one leap.Memory run of a figure: the Memory's options, the
// pages written before anything is measured, and the access stream that
// warms the Memory up and is then measured.
type memCase struct {
	label string
	opts  []runtime.Option
	// populate pages, stride apart, are written with recording off so
	// misses fetch real images from the cluster rather than materializing
	// zeros; fill writes a page's image (nil: byte(pg) in its first byte).
	populate, stride int64
	fill             func(buf []byte, pg int64)
	// next is the access stream: warmup accesses through Client(0) with
	// recording off — fixed arms adapt their windows, a selector runs its
	// epochs — then measured ones.
	next             func() core.PageID
	warmup, measured int64
}

// memCell is a memCase's outcome: Stats at the end of the measured phase,
// Stats at its start and, under the online selector, the switches it took in
// the measured phase and the arm the driving client's prefetches ended on
// ("" without a selector).
type memCell struct {
	label string
	runtime.Stats
	before   runtime.Stats
	switches int64
	arm      string
}

func (c memCell) key() string { return c.label }

// memSpan is the address space, in pages, the runtime figure scans: 1GB.
const memSpan = int64(1) << 18

// memRun drives c through a fresh Memory: populate with recording off, warm
// up, then turn recording on and measure.
func memRun(c memCase) memCell {
	mem, err := runtime.Open(c.opts...)
	if err != nil {
		panic(err)
	}
	defer mem.Close()
	mem.SetRecording(false)
	buf := make([]byte, remote.PageSize)
	for p := int64(0); p < c.populate; p++ {
		pg := (p * c.stride) % memSpan
		if c.fill != nil {
			c.fill(buf, pg)
		} else {
			buf[0] = byte(pg)
		}
		if _, err := mem.WriteAt(buf, pg*remote.PageSize); err != nil {
			panic(err)
		}
	}
	client := mem.Client(0)
	get := func(n int64) {
		for i := int64(0); i < n; i++ {
			if _, err := client.Get(c.next()); err != nil {
				panic(err)
			}
		}
	}
	get(c.warmup)
	mem.SetRecording(true)
	// The online selector keeps its own accounting: read it off the one
	// stripe's instance.
	ens, _ := mem.Prefetcher().(*prefetch.Ensemble)
	switches := func() int64 {
		if ens == nil {
			return 0
		}
		_, _, n, _ := ens.Totals()
		return n
	}
	cell := memCell{label: c.label, before: mem.Stats(), switches: -switches()}
	get(c.measured)
	cell.Stats = mem.Stats()
	cell.switches += switches()
	if ens != nil {
		cell.arm, _ = ens.Selected(prefetch.PID(client.ID()))
	}
	return cell
}

// runtimePrefetchers are the policies the runtime figure compares, in
// presentation order.
var runtimePrefetchers = []string{"leap", "readahead", "none"}

// runtimeWorkloads are the runtime figure's access patterns: the §2.2
// microbenchmarks plus a random stream (stride 0) that should suspend
// Leap's prefetching.
var runtimeWorkloads = []struct {
	name   string
	stride int64
}{{"sequential", 1}, {"stride-10", 10}, {"random", 0}}

// runtimeFig drives leap.Memory through the microbenchmark patterns under
// each prefetcher, labelled "<workload>/<prefetcher>": a working set is
// written through the async ticket engine, then a page-granular scan of the
// same pattern is measured. The prefetcher is the only variable.
func runtimeFig(s Scale, seed uint64) []memCell {
	accesses := perRun(s, 4, 2000)
	var cells []memCell
	for wi, wl := range runtimeWorkloads {
		cellSeed := seed + uint64(wi)*977
		for _, name := range runtimePrefetchers {
			pf := mustPrefetcher(name)
			cells = append(cells, memRun(memCase{
				label: wl.name + "/" + name,
				opts: []runtime.Option{
					runtime.WithSeed(cellSeed),
					runtime.WithPrefetcherFactory(func() prefetch.Prefetcher { return pf }),
					runtime.WithCacheCapacity(256),
					runtime.WithQueueDepth(8),
				},
				populate: min(accesses, 4096),
				stride:   max(wl.stride, 1),
				next:     scan(wl.stride, cellSeed),
				measured: accesses,
			}))
		}
	}
	return cells
}

// scan is the runtime figure's access stream: every stride-th page, or
// with stride 0 a seeded LCG's, so every run replays exactly.
func scan(stride int64, seed uint64) func() core.PageID {
	rnd, pg := seed|1, int64(0)
	return func() core.PageID {
		if stride > 0 {
			target := pg % memSpan
			pg += stride
			return core.PageID(target)
		}
		rnd = rnd*6364136223846793005 + 1442695040888963407
		target := int64(rnd>>11) % memSpan
		if target < 0 {
			target = -target
		}
		return core.PageID(target)
	}
}

func renderRuntime(s Scale, seed uint64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Runtime — leap.Memory over a live in-proc remote-memory cluster (%d accesses/cell, real bytes)\n",
		perRun(s, 4, 2000))
	var rows [][]any
	for _, c := range runtimeFig(s, seed) {
		wl, pf, _ := strings.Cut(c.label, "/")
		rows = append(rows, []any{wl, pf, 100 * c.HitRatio, 100 * c.Accuracy, 100 * c.Coverage,
			c.Latency.P50, c.Latency.P99, c.Host.Reads - c.before.Host.Reads})
	}
	table(&b, "  ", []col{{"workload", -12, ""}, {"prefetch", -10, ""}, {"hit", 9, percent}, {"accuracy", 9, percent},
		{"coverage", 9, percent}, {"p50", 11, ""}, {"p99", 11, ""}, {"rd-pages", 8, ""}}, rows)
	b.WriteString("  (one fault path from predictor to ticket engine; the prefetcher is the only variable)\n")
	return b.String()
}

// scaledApps are the application models the ztier and ensemble figures
// drive, each working set shrunk 8-fold so a frame budget is a meaningful
// fraction of it (the paper's 50%-memory regime), preserving the apps'
// relative footprints.
func scaledApps() []workload.Profile {
	apps := workload.Profiles()
	for i := range apps {
		apps[i].TotalPages /= 8
	}
	return apps
}

// hotPages is the size of a profile's hot region, the pages a figure
// populates.
func hotPages(p workload.Profile) int64 { return int64(float64(p.TotalPages) * p.HotFraction) }

// appStream is an application model's access stream.
func appStream(p workload.Profile, seed uint64) func() core.PageID {
	gen := workload.NewApp(p, seed)
	return func() core.PageID { return gen.Next().Page }
}

// ztierFramePages is the tier-off residency budget. The tier-on
// configuration spends the same RAM differently: a quarter of the frames
// are handed to the compressed victim tier as a byte budget, so any hit
// ratio it wins back comes purely from compression stretching those bytes
// over more pages.
const ztierFramePages = 2048

// ztierFig runs every application with and without the compressed victim
// tier at equal RAM, labelled "<app>/off" and "<app>/tier"; the tier run
// also compresses batched frames on the wire, over a cluster like Open's
// private one. Pages carry semi-compressible records, so the tier's
// effective capacity — and with it the hit ratio — depends on the realized
// compression ratio.
func ztierFig(s Scale, seed uint64) []memCell {
	accesses := perRun(s, 4, 2000)
	var cells []memCell
	for ai, p := range scaledApps() {
		cellSeed := seed + uint64(ai)*977
		for _, mode := range []string{"off", "tier"} {
			opts := []runtime.Option{runtime.WithSeed(cellSeed), runtime.WithQueueDepth(8)}
			if mode == "tier" {
				reserve := ztierFramePages / 4
				_, host := cluster(3, nil, remote.HostConfig{SlabPages: 1024, Replicas: 2, QueueDepth: 8, Seed: cellSeed,
					Compress: true})
				opts = append(opts,
					runtime.WithCacheCapacity(ztierFramePages-reserve),
					runtime.WithCompressedTier(int64(reserve)*remote.PageSize),
					runtime.WithRemoteHost(host))
			} else {
				opts = append(opts, runtime.WithCacheCapacity(ztierFramePages))
			}
			cells = append(cells, memRun(memCase{
				label:    p.AppName + "/" + mode,
				opts:     opts,
				populate: min(hotPages(p), 3*ztierFramePages),
				stride:   1,
				// The written pages are the tier's seal candidates once the
				// residency LRU evicts them.
				fill:     func(buf []byte, pg int64) { fillSemiPage(buf, uint64(pg)*2654435761+cellSeed) },
				next:     appStream(p, cellSeed),
				measured: accesses,
			}))
		}
	}
	return cells
}

// fillSemiPage writes a semi-compressible page image: repeated 16-byte
// records, each with one pseudo-random byte — the mixed-entropy pages of a
// real heap, compressing a few-fold under the ztier codec rather than
// collapsing to nothing.
func fillSemiPage(dst []byte, seed uint64) {
	const record = "record-deadbeef!"
	for off := 0; off+len(record) <= len(dst); off += len(record) {
		copy(dst[off:], record)
		seed = seed*6364136223846793005 + 1442695040888963407
		dst[off+12] = byte(seed >> 33)
	}
}

// wireSaved is the fraction of batched-frame payload bytes on-wire
// compression saved during a cell's measured phase (0 with it off).
func wireSaved(c memCell) float64 {
	raw := c.Host.WireRawBytes - c.before.Host.WireRawBytes
	if raw <= 0 {
		return 0
	}
	return 1 - ratio(c.Host.WireCompressedBytes-c.before.Host.WireCompressedBytes, raw)
}

func renderZtier(s Scale, seed uint64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ztier — compressed victim tier at equal RAM (%d accesses/cell, %d-page budget; tier mode trades 1/4 of the frames for compressed bytes)\n",
		perRun(s, 4, 2000), ztierFramePages)
	var rows [][]any
	for _, c := range ztierFig(s, seed) {
		app, mode, _ := strings.Cut(c.label, "/")
		rows = append(rows, []any{app, mode, 100 * c.HitRatio, c.Latency.P50, c.Latency.P99,
			c.Ztier.Hits, c.Ztier.Ratio, 100 * wireSaved(c)})
	}
	table(&b, "  ", []col{{"app", -12, ""}, {"mode", -5, ""}, {"hit", 9, percent}, {"p50", 11, ""}, {"p99", 11, ""},
		{"z-hits", 8, ""}, {"ratio", 7, "%.2f"}, {"wire-saved", 10, percent}}, rows)
	b.WriteString("  (a z-hit decompresses a sealed victim locally instead of paying a fabric round trip)\n")
	return b.String()
}

// ensemblePolicies are the selector ablation's policies: the online
// selector first, then every fixed arm it chooses between.
var ensemblePolicies = []string{"ensemble", "leap", "ghb", "stride", "readahead", "nextnline"}

// ensembleFramePages is every ensemble cell's residency budget: identical
// across policies, so the prefetching policy is the only variable.
const ensembleFramePages = 1024

// ensembleFig runs every application once per policy, labelled
// "<app>/<policy>". Every policy in an app's row shares the cell seed, so
// the populate pass, the warmup stream and the measured stream are
// identical access for access. The warmup gives the selector its
// convergence window: a deployed ensemble is judged on steady state, not
// on the epochs it spends learning.
func ensembleFig(s Scale, seed uint64) []memCell {
	accesses := perRun(s, 2, 2000)
	var cells []memCell
	for ai, p := range scaledApps() {
		cellSeed := seed + uint64(ai)*977
		for _, policy := range ensemblePolicies {
			cells = append(cells, memRun(memCase{
				label: p.AppName + "/" + policy,
				opts: []runtime.Option{
					runtime.WithSeed(cellSeed),
					runtime.WithQueueDepth(8),
					runtime.WithCacheCapacity(ensembleFramePages),
					runtime.WithPrefetcherFactory(func() prefetch.Prefetcher { return mustPrefetcher(policy) }),
				},
				populate: min(hotPages(p), 3*ensembleFramePages),
				stride:   1,
				next:     appStream(p, cellSeed),
				warmup:   accesses,
				measured: accesses,
			}))
		}
	}
	return cells
}

func renderEnsemble(s Scale, seed uint64) string {
	var b strings.Builder
	accesses := perRun(s, 2, 2000)
	fmt.Fprintf(&b, "Ensemble — online per-client prefetcher selection vs fixed policies (%d accesses/cell after %d warmup, %d-page budget)\n",
		accesses, accesses, ensembleFramePages)
	var rows [][]any
	for _, c := range ensembleFig(s, seed) {
		app, policy, _ := strings.Cut(c.label, "/")
		switches, final := any("-"), "-"
		if c.arm != "" {
			switches, final = c.switches, c.arm
		}
		rows = append(rows, []any{app, policy, 100 * c.HitRatio, 100 * c.Accuracy, 100 * c.Coverage,
			c.Latency.P50, c.Latency.P99, switches, final})
	}
	table(&b, "  ", []col{{"app", -12, ""}, {"policy", -10, ""}, {"hit", 9, percent}, {"accuracy", 9, percent},
		{"coverage", 9, percent}, {"p50", 11, ""}, {"p99", 11, ""}, {"switches", 9, ""}, {"final", -10, ""}}, rows)
	b.WriteString("  (equal RAM and identical access streams per app row; the policy is the only variable)\n")
	return b.String()
}
