package experiments

import (
	"fmt"
	"strings"

	"leap/internal/core"
	"leap/internal/datapath"
	"leap/internal/metrics"
	"leap/internal/rdma"
	"leap/internal/remote"
	"leap/internal/sim"
)

// The `-fig scaling` sweep drives the rendezvous-sharded, batched,
// asynchronous remote-memory engine closed-loop at a pipeline window of
// agents × depth outstanding operations per doorbell round — the fio-style
// iodepth discipline. Throughput rises along both axes: deeper doorbells
// amortize the per-submission dispatch cost and the wire round trip over
// more pages (3PO's observation that prefetch benefit is bounded by how
// fast the far-memory path drains), and more agents drain batches in
// parallel behind independent fabric queues. Every latency distribution in
// the sweep is configured deterministic (σ=0), so the figure is a pure
// function of (Scale, seed) and the depth-1→8 throughput gain is
// structural, not sampling noise.

// scalingRow is one (agents, queue depth) point: closed-loop throughput and
// per-op tail latency of the sharded remote-memory engine.
type scalingRow struct {
	agents, depth int
	ops           int64
	opsPerSec     float64
	p50, p99      sim.Duration
	doorbells     int64
	pagesPerDB    float64
}

// scalingAgents and scalingDepths are the sweep grid.
var (
	scalingAgents = []int{1, 2, 4, 8}
	scalingDepths = []int{1, 2, 4, 8}
)

// scalingLoop charges one closed-loop driver's virtual time: transport
// calls observed from the host's flush become doorbells — host-side
// submission cost on a serial cursor, wire time on the fabric's per-agent
// queues — and the group completes when its last page lands.
type scalingLoop struct {
	fabric   *rdma.Fabric
	path     *datapath.Path
	cursor   sim.Time // host CPU: doorbell submissions serialize here
	done     sim.Time // latest wire completion in the open group
	buf      []sim.Time
	doorbell int64
	pages    int64
}

func (l *scalingLoop) observe(o remote.CallObservation) {
	// One doorbell: the host traverses the lean submission path once for
	// the whole frame, then the fabric streams its pages.
	l.cursor = l.cursor.Add(l.path.DoorbellOverhead().Total())
	l.buf = l.fabric.SubmitBatch(o.Agent, o.Pages, l.cursor, l.buf)
	l.doorbell++
	l.pages += int64(o.Pages)
	if last := l.buf[len(l.buf)-1]; last > l.done {
		l.done = last
	}
}

// deterministicPath is the lean path with σ=0 stage costs (paper means).
func deterministicPath(rng *sim.RNG) *datapath.Path {
	return datapath.New(datapath.Config{
		Kind:     datapath.Lean,
		Entry:    sim.Normal{Mu: 270, Sigma: 0, Floor: 270},
		Dispatch: sim.Normal{Mu: 2100, Sigma: 0, Floor: 2100},
		HitPath:  sim.Normal{Mu: 270, Sigma: 0, Floor: 270},
	}, rng)
}

// runScalingPoint measures one (agents, depth) grid point.
func runScalingPoint(agents, depth, ops int, seed uint64) scalingRow {
	base := sim.NewRNG(seed ^ uint64(agents)<<8 ^ uint64(depth))
	loop := &scalingLoop{
		fabric: rdma.New(rdma.Config{
			Queues:    agents,
			OpLatency: sim.Normal{Mu: 4300, Sigma: 0, Floor: 4300},
		}, base.Fork(1)),
		path: deterministicPath(base.Fork(2)),
	}
	replicas := 2
	if agents < 2 {
		replicas = 1
	}
	_, host := cluster(agents, loop.observe, remote.HostConfig{
		SlabPages:  64,
		Replicas:   replicas,
		QueueDepth: depth,
		Seed:       seed,
	})

	const pageCount = 1024
	window := agents * depth // outstanding ops per doorbell round
	rng := base.Fork(3)
	page := make([]byte, remote.PageSize)
	bufs := make([][]byte, window)
	for i := range bufs {
		bufs[i] = make([]byte, remote.PageSize)
	}
	var clock sim.Time

	// flushGroup rings the doorbell for the open group and advances the
	// closed loop to its completion, returning the group's latency.
	flushGroup := func() sim.Duration {
		start := clock
		loop.cursor, loop.done = clock, clock
		if err := host.Flush(); err != nil {
			panic(err)
		}
		end := loop.done
		if loop.cursor > end {
			end = loop.cursor
		}
		clock = end
		return end.Sub(start)
	}

	// Populate every page (unmeasured warmup: placements, slab maps).
	for lo := 0; lo < pageCount; lo += window {
		for p := lo; p < min(lo+window, pageCount); p++ {
			page[0] = byte(p)
			host.WritePageAsync(core.PageID(p), page)
		}
		flushGroup()
	}

	// Measured closed loop: window outstanding ops per round, 70/30
	// read/write over the populated pages. Writes enqueue before reads —
	// the eviction-writeback batch then the prefetch fan-out, as the paging
	// layer issues them — which also packs same-kind doorbells tighter.
	var hist metrics.Histogram
	measured := int64(0)
	start := clock
	kinds := make([]bool, window) // true = write
	targets := make([]core.PageID, window)
	reads := make([]*remote.Ticket, 0, window)
	for measured < int64(ops) {
		n := window
		for i := 0; i < n; i++ {
			kinds[i] = rng.Float64() < 0.3
			targets[i] = core.PageID(rng.Int63n(pageCount))
		}
		for i := 0; i < n; i++ {
			if kinds[i] {
				page[0] = byte(targets[i])
				host.WritePageAsync(targets[i], page)
			}
		}
		for i := 0; i < n; i++ {
			if !kinds[i] {
				reads = append(reads, host.ReadPageAsync(targets[i], bufs[i]))
			}
		}
		lat := flushGroup()
		// Every read has landed: each ticket, a coalesced one too, gives
		// up its own hold, and the host recycles the reads.
		for _, t := range reads {
			t.Release()
		}
		reads = reads[:0]
		for i := 0; i < n; i++ {
			hist.Observe(lat)
		}
		measured += int64(n)
	}
	elapsed := clock.Sub(start)

	row := scalingRow{
		agents:    agents,
		depth:     depth,
		ops:       measured,
		p50:       hist.Percentile(50),
		p99:       hist.Percentile(99),
		doorbells: loop.doorbell,
	}
	if elapsed > 0 {
		row.opsPerSec = float64(measured) / elapsed.Seconds()
	}
	if loop.doorbell > 0 {
		row.pagesPerDB = float64(loop.pages) / float64(loop.doorbell)
	}
	return row
}

// scaling runs the agents × depth sweep.
func scaling(s Scale, seed uint64) []scalingRow {
	var rows []scalingRow
	for _, agents := range scalingAgents {
		for _, depth := range scalingDepths {
			rows = append(rows, runScalingPoint(agents, depth, int(s.Measured/5), seed))
		}
	}
	return rows
}

func renderScaling(s Scale, seed uint64) string {
	points := scaling(s, seed)
	var b strings.Builder
	b.WriteString("Figure S — scaling: sharded+batched+async remote-memory engine (closed loop, window = agents×depth)\n")
	var rows [][]any
	for _, r := range points {
		rows = append(rows, []any{r.agents, r.depth, r.ops, r.opsPerSec / 1e3, r.p50, r.p99, r.doorbells, r.pagesPerDB})
	}
	table(&b, "  ", []col{{"agents", 6, ""}, {"depth", 6, ""}, {"ops", 8, ""}, {"Kops/s", 12, "%.1f"},
		{"p50", 10, ""}, {"p99", 10, ""}, {"doorbells", 10, ""}, {"pages/db", 9, "%.2f"}}, rows)
	deepest := scalingDepths[len(scalingDepths)-1]
	fmt.Fprintf(&b, "  queue-depth amortization (throughput ×, depth %d vs 1):", deepest)
	for i, agents := range scalingAgents {
		row := points[i*len(scalingDepths) : (i+1)*len(scalingDepths)]
		fmt.Fprintf(&b, "  %d-agent %.2f×", agents, ratio(row[len(row)-1].opsPerSec, row[0].opsPerSec))
	}
	fmt.Fprintf(&b, "\n  (deterministic σ=0 latencies; doorbell batching amortizes the %v dispatch and the wire round trip — the 3PO drain-rate bound)\n",
		2100*sim.Nanosecond)
	return b.String()
}
