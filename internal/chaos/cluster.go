package chaos

import (
	"encoding/binary"
	"fmt"
	"strings"

	"leap/internal/core"
	"leap/internal/metrics"
	"leap/internal/rdma"
	"leap/internal/remote"
	"leap/internal/sim"
)

// Config sizes a chaos run. The zero value of every field selects a
// sensible default.
type Config struct {
	// Agents is the cluster size (default 4; Library schedules need ≥4).
	Agents int
	// SlabPages is the slab granularity in pages (default 16 — small slabs
	// keep repair copies cheap and placements numerous).
	SlabPages int
	// Replicas per slab (default 2, the paper's replication factor).
	Replicas int
	// Pages is the working-set size the workload touches (default 256).
	Pages int64
	// Ops is the number of workload operations to run (default 4000).
	Ops int
	// WriteFrac is the probability an op is a write (default 0.35).
	WriteFrac float64
	// OpGap is the mean virtual-time gap between ops, exponentially
	// distributed (default 5µs).
	OpGap sim.Duration
	// FailDetect is the virtual time burned by one failed transport
	// attempt before failing over — the timeout/err-detection cost that
	// shapes the failover-latency CDF (default 30µs).
	FailDetect sim.Duration
	// RepairEvery, when positive, runs Host.RepairSlabs on a virtual-time
	// period — the background repair daemon whose traffic interferes with
	// the workload through the shared fabric queues.
	RepairEvery sim.Duration
	// Seed drives everything: workload, placement, fault decisions, fabric
	// jitter.
	Seed uint64
	// Fabric parameterizes the simulated RDMA network ops are charged to.
	Fabric rdma.Config
}

func (c Config) withDefaults() Config {
	if c.Agents <= 0 {
		c.Agents = 4
	}
	if c.SlabPages <= 0 {
		c.SlabPages = 16
	}
	if c.Replicas <= 0 {
		c.Replicas = 2
	}
	if c.Pages <= 0 {
		c.Pages = 256
	}
	if c.Ops <= 0 {
		c.Ops = 4000
	}
	if c.WriteFrac <= 0 {
		c.WriteFrac = 0.35
	}
	if c.OpGap <= 0 {
		c.OpGap = 5 * sim.Microsecond
	}
	if c.FailDetect <= 0 {
		c.FailDetect = 30 * sim.Microsecond
	}
	return c
}

// Horizon estimates the virtual time a run spans (ops × mean gap), the
// natural scale for Library schedules.
func (c Config) Horizon() sim.Duration {
	c = c.withDefaults()
	return sim.Duration(c.Ops) * c.OpGap
}

// Report is the outcome of one chaos run: throughput/latency accounting,
// failure and repair activity, and the invariant violations (which must be
// zero for every shipped schedule).
type Report struct {
	Schedule string
	Ops      int64
	Reads    int64
	Writes   int64

	// WriteFailures counts host-level write errors (no replica reachable).
	WriteFailures int64
	// FailoverReads counts successful reads that needed more than one
	// transport attempt — served by a replica after the primary failed.
	FailoverReads int64
	// DegradedReads counts reads that failed or returned stale bytes while
	// no acknowledged holder of the page was reachable — the window where
	// staleness is permitted (last-resort reads) rather than a bug.
	DegradedReads int64

	// ScaleUps / ScaleDowns count elastic transitions the schedule drove:
	// agents provisioned into the pool and agents gracefully drained out.
	ScaleUps   int64
	ScaleDowns int64

	// FreshnessViolations counts reads that failed or returned stale bytes
	// even though an acknowledged holder WAS reachable. Always a bug.
	FreshnessViolations int64
	// LostPages counts pages whose final post-repair readback did not
	// return the last acked write. Always a bug.
	LostPages int64
	// BarrierViolations counts repair barriers (repairs run with every
	// agent healthy) that left under-replicated slabs or degraded pages.
	BarrierViolations int64

	// RepairRounds / RepairedSlabs / RepairErrors describe repair activity;
	// RepairTime is the virtual time repair traffic occupied.
	RepairRounds  int64
	RepairedSlabs int64
	RepairErrors  int64
	RepairTime    sim.Duration

	// Latency distributions in virtual time.
	ReadLatency     metrics.Histogram
	WriteLatency    metrics.Histogram
	FailoverLatency metrics.Histogram

	// Failovers/Repairs mirror the host's own counters for cross-checking.
	HostStats remote.HostStats
	// Elapsed is the total virtual time of the run.
	Elapsed sim.Duration
}

// Violations sums the invariant breaches: zero for a correct service under
// a disciplined schedule.
func (r *Report) Violations() int64 {
	return r.FreshnessViolations + r.LostPages + r.BarrierViolations
}

// String renders a compact deterministic summary.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "schedule %-16s ops=%d (r=%d w=%d) elapsed=%v\n",
		r.Schedule, r.Ops, r.Reads, r.Writes, r.Elapsed)
	fmt.Fprintf(&b, "  read p50=%v p99=%v  write p50=%v  failovers=%d (p99=%v)\n",
		r.ReadLatency.Percentile(50), r.ReadLatency.Percentile(99),
		r.WriteLatency.Percentile(50), r.FailoverReads, r.FailoverLatency.Percentile(99))
	fmt.Fprintf(&b, "  repairs: rounds=%d slabs=%d errs=%d time=%v  degraded-reads=%d write-failures=%d\n",
		r.RepairRounds, r.RepairedSlabs, r.RepairErrors, r.RepairTime, r.DegradedReads, r.WriteFailures)
	fmt.Fprintf(&b, "  violations: freshness=%d lost=%d barrier=%d\n",
		r.FreshnessViolations, r.LostPages, r.BarrierViolations)
	if r.ScaleUps+r.ScaleDowns > 0 {
		fmt.Fprintf(&b, "  elastic: scale-ups=%d scale-downs=%d\n", r.ScaleUps, r.ScaleDowns)
	}
	return b.String()
}

// pageState is the harness's model of one page: the version of the last
// acked write and the agents known to hold it.
type pageState struct {
	version uint32
	holders []int
}

// Cluster owns a remote.Host, its agents (optionally in-process) and the
// fault transports between them, plus the virtual clock and fabric that
// make runs deterministic. Not safe for concurrent use: determinism comes
// from single-threaded execution over virtual time.
type Cluster struct {
	cfg    Config
	clock  *sim.Clock
	rng    *sim.RNG // workload stream
	fabric *rdma.Fabric
	host   *remote.Host
	rig    *Applier

	// Per-op virtual-time cursor, advanced by the transport observer.
	cursor    sim.Time
	callsInOp int

	model      map[core.PageID]*pageState
	written    []core.PageID // model keys in first-write order
	lastRepair sim.Time
	report     Report
	buf        []byte
	ran        bool

	// scaleRNG feeds the fault transports of agents provisioned mid-run,
	// created lazily off a dedicated seed so static schedules keep their
	// exact historical RNG streams.
	scaleRNG *sim.RNG
	doneBuf  []sim.Time
}

// New builds a cluster of cfg.Agents in-process agents behind fault
// transports.
func New(cfg Config) (*Cluster, error) {
	cfg = cfg.withDefaults()
	agents := make([]*remote.Agent, cfg.Agents)
	inner := make([]remote.Transport, cfg.Agents)
	for i := range agents {
		agents[i] = remote.NewAgent(cfg.SlabPages, 0)
		inner[i] = remote.NewInProc(agents[i])
	}
	c, err := NewWithTransports(cfg, inner)
	if err != nil {
		return nil, err
	}
	c.rig.Agents = agents
	return c, nil
}

// hostQueueDepth is the chaos host's doorbell depth: one page operation a
// frame, which every figure built on the harness was measured at (the host's
// default is 8).
const hostQueueDepth = 1

// NewWithTransports builds a cluster over caller-supplied transports (e.g.
// TCP connections to real agent processes), wrapping each in a
// FaultTransport. Restart events cannot wipe external agents' memory; the
// host-side purge still keeps reads correct.
func NewWithTransports(cfg Config, inner []remote.Transport) (*Cluster, error) {
	cfg = cfg.withDefaults()
	if len(inner) != cfg.Agents {
		return nil, fmt.Errorf("chaos: %d transports for %d agents", len(inner), cfg.Agents)
	}
	base := sim.NewRNG(cfg.Seed)
	c := &Cluster{
		cfg:    cfg,
		clock:  &sim.Clock{},
		rng:    base.Fork(1),
		fabric: rdma.New(cfg.Fabric, base.Fork(2)),
		model:  make(map[core.PageID]*pageState),
		buf:    make([]byte, remote.PageSize),
	}
	c.rig = &Applier{
		Faults:    make([]*remote.FaultTransport, cfg.Agents),
		Agents:    make([]*remote.Agent, cfg.Agents),
		Replicas:  cfg.Replicas,
		Provision: c.provision,
		Timed: func(f func() error) error {
			_, _, err := c.timed(f)
			return err
		},
		Now: c.clock.Now,
	}
	transports := make([]remote.Transport, cfg.Agents)
	for i, tr := range inner {
		ft := remote.NewFaultTransport(i, tr, base.Fork(0x100+uint64(i)))
		ft.SetObserver(c.observe)
		c.rig.Faults[i] = ft
		transports[i] = ft
	}
	host, err := remote.NewHost(remote.HostConfig{
		SlabPages:  cfg.SlabPages,
		Replicas:   cfg.Replicas,
		QueueDepth: hostQueueDepth,
		Seed:       base.Uint64(),
	}, transports)
	if err != nil {
		return nil, err
	}
	c.host = host
	c.rig.Host = host
	return c, nil
}

// Host exposes the cluster's host for inspection.
func (c *Cluster) Host() *remote.Host { return c.host }

// Faults exposes the per-agent fault transports (for custom scripting).
func (c *Cluster) Faults() []*remote.FaultTransport { return c.rig.Faults }

// observe charges one transport call to the fabric (or the failure-detect
// timeout) on the current op's virtual-time cursor. A batched frame is one
// doorbell: it pays the round-trip latency once and per-page service time,
// so the cursor lands on the batch's last completion.
func (c *Cluster) observe(o remote.CallObservation) {
	c.callsInOp++
	if o.Injected {
		c.cursor = c.cursor.Add(c.cfg.FailDetect)
		return
	}
	c.doneBuf = c.fabric.SubmitBatch(o.Agent, o.Pages, c.cursor, c.doneBuf)
	c.cursor = c.doneBuf[len(c.doneBuf)-1]
	if o.Extra > 0 {
		c.cursor = c.cursor.Add(o.Extra)
	}
}

// timed runs f with the cursor rebased to now, advances the clock to the
// op's completion and returns its virtual latency.
func (c *Cluster) timed(f func() error) (sim.Duration, int, error) {
	c.cursor = c.clock.Now()
	c.callsInOp = 0
	err := f()
	lat := c.cursor.Sub(c.clock.Now())
	c.clock.AdvanceTo(c.cursor)
	return lat, c.callsInOp, err
}

// fill writes the deterministic page payload for (page, version) into buf.
func fill(buf []byte, page core.PageID, version uint32) {
	binary.LittleEndian.PutUint64(buf[0:8], uint64(page))
	binary.LittleEndian.PutUint32(buf[8:12], version)
	b := byte(uint64(page)*31 + uint64(version)*7 + 13)
	for i := 12; i < len(buf); i++ {
		buf[i] = b
	}
}

// fresh reports whether buf holds exactly the (page, version) payload.
func fresh(buf []byte, page core.PageID, version uint32) bool {
	if binary.LittleEndian.Uint64(buf[0:8]) != uint64(page) ||
		binary.LittleEndian.Uint32(buf[8:12]) != version {
		return false
	}
	b := byte(uint64(page)*31 + uint64(version)*7 + 13)
	for i := 12; i < len(buf); i += 256 {
		if buf[i] != b {
			return false
		}
	}
	return buf[len(buf)-1] == b
}

// holderReachable reports whether any agent known to hold page's latest
// bytes is currently reachable.
func (c *Cluster) holderReachable(st *pageState) bool {
	for _, idx := range st.holders {
		if c.rig.Faults[idx].Reachable() {
			return true
		}
	}
	return false
}

// refreshHolders re-derives every tracked page's holder set from the
// host's acknowledgment bookkeeping (repair extends it as it re-copies).
func (c *Cluster) refreshHolders() {
	for _, page := range c.written {
		c.model[page].holders = c.host.AckedReplicas(page)
	}
}

// apply executes one schedule event at the (already advanced) clock. A
// Repair is the harness's own, so that a barrier is checked; every other
// event is the Applier's, after which the holder sets are re-derived where
// the event moved pages.
func (c *Cluster) apply(e Event) error {
	if e.Kind == Repair {
		c.runRepair()
		return nil
	}
	if err := c.rig.Apply(e); err != nil {
		return err
	}
	switch e.Kind {
	case ScaleUp:
		c.report.ScaleUps++
	case ScaleDown:
		c.report.ScaleDowns++
	case Restart:
	default:
		return nil
	}
	c.refreshHolders()
	return nil
}

// provision builds the in-process agent a scale-up adds as agent idx. Its
// fault-decision RNG comes from a dedicated stream (seeded off Config.Seed)
// so provisioning never perturbs the workload, fabric or static-agent
// streams — static schedules replay bit-identically whether or not the
// elastic machinery exists.
func (c *Cluster) provision(idx int) (*remote.Agent, *remote.FaultTransport, remote.Transport) {
	if c.scaleRNG == nil {
		c.scaleRNG = sim.NewRNG(c.cfg.Seed ^ 0xe1a57ec)
	}
	ag := remote.NewAgent(c.cfg.SlabPages, 0)
	ft := remote.NewFaultTransport(idx, remote.NewInProc(ag), c.scaleRNG.Fork(uint64(idx)))
	ft.SetObserver(c.observe)
	return ag, ft, ft
}

// runRepair invokes the host's repair path under virtual-time accounting
// and, when the whole cluster is healthy (a barrier), asserts that the
// replication factor and page freshness were fully restored.
func (c *Cluster) runRepair() {
	healthy := c.rig.Healthy()
	var repaired int
	lat, _, err := c.timed(func() error {
		var rerr error
		repaired, rerr = c.host.RepairSlabs()
		return rerr
	})
	c.report.RepairRounds++
	c.report.RepairedSlabs += int64(repaired)
	c.report.RepairTime += lat
	if err != nil {
		c.report.RepairErrors++
	}
	c.refreshHolders()
	if healthy {
		if err != nil || c.host.UnderReplicated() > 0 || c.host.DegradedPages() > 0 {
			c.report.BarrierViolations++
		}
	}
	c.lastRepair = c.clock.Now()
}

// doWrite performs one model-checked write.
func (c *Cluster) doWrite(page core.PageID) {
	st := c.model[page]
	version := uint32(1)
	if st != nil {
		version = st.version + 1
	}
	fill(c.buf, page, version)
	lat, _, err := c.timed(func() error { return c.host.WritePage(page, c.buf) })
	c.report.Writes++
	if err != nil {
		// Unacked write: the model keeps the previous version.
		c.report.WriteFailures++
		return
	}
	c.report.WriteLatency.Observe(lat)
	if st == nil {
		st = &pageState{}
		c.model[page] = st
		c.written = append(c.written, page)
	}
	st.version = version
	st.holders = c.host.AckedReplicas(page)
}

// doRead performs one model-checked read.
func (c *Cluster) doRead(page core.PageID) {
	st := c.model[page]
	lat, calls, err := c.timed(func() error { return c.host.ReadPage(page, c.buf) })
	c.report.Reads++
	reachable := c.holderReachable(st)
	switch {
	case err != nil:
		if reachable {
			c.report.FreshnessViolations++
		} else {
			c.report.DegradedReads++
		}
	case !fresh(c.buf, page, st.version):
		if reachable {
			c.report.FreshnessViolations++
		} else {
			c.report.DegradedReads++
		}
	default:
		c.report.ReadLatency.Observe(lat)
		if calls > 1 {
			c.report.FailoverReads++
			c.report.FailoverLatency.Observe(lat)
		}
	}
}

// Run executes the workload under the schedule and returns the report. The
// run ends with a full heal + repair barrier and a complete readback, so
// "zero acked-write losses" is checked against every page ever written.
//
// A Cluster is single-use: the clock, fabric queues and page model all
// carry the run's history, so a second Run is rejected — build a fresh
// Cluster per schedule.
func (c *Cluster) Run(sched Schedule) (*Report, error) {
	if c.ran {
		return nil, fmt.Errorf("chaos: Cluster is single-use; build a new one per Run")
	}
	// Scale-ups grow the pool mid-run, so the static bound is the initial
	// size plus every provisioned agent; apply() still rejects an event that
	// targets an index before its scale-up has happened.
	if maxA, limit := sched.MaxAgent(), c.cfg.Agents+sched.ScaleUps(); maxA >= limit {
		return nil, fmt.Errorf("chaos: schedule %q needs agent %d, cluster has %d",
			sched.Name, maxA, limit)
	}
	c.ran = true
	c.report = Report{Schedule: sched.Name}
	events := sched.sorted()
	ei := 0
	for op := 0; op < c.cfg.Ops; op++ {
		gap := sim.Duration(c.rng.ExpFloat64() * float64(c.cfg.OpGap))
		next := c.clock.Now().Add(gap)
		for ei < len(events) && sim.Time(0).Add(events[ei].At) <= next {
			c.clock.AdvanceTo(sim.Time(0).Add(events[ei].At))
			if err := c.apply(events[ei]); err != nil {
				return nil, err
			}
			ei++
		}
		c.clock.AdvanceTo(next)
		c.rig.stepRamps()
		if c.cfg.RepairEvery > 0 && c.clock.Now().Sub(c.lastRepair) >= c.cfg.RepairEvery {
			c.runRepair()
		}
		c.report.Ops++
		page := core.PageID(c.rng.Int63n(c.cfg.Pages))
		if len(c.written) == 0 || c.rng.Float64() < c.cfg.WriteFrac {
			c.doWrite(page)
		} else {
			c.doRead(c.written[c.rng.Intn(len(c.written))])
		}
	}
	// Drain any schedule tail, then close with a full heal + barrier.
	for ; ei < len(events); ei++ {
		c.clock.AdvanceTo(sim.Time(0).Add(events[ei].At))
		if err := c.apply(events[ei]); err != nil {
			return nil, err
		}
	}
	if err := c.rig.HealAll(); err != nil {
		return nil, err
	}
	c.runRepair()
	// Final verification: every page ever acked must read back its last
	// written value.
	for _, page := range c.written {
		st := c.model[page]
		_, _, err := c.timed(func() error { return c.host.ReadPage(page, c.buf) })
		if err != nil || !fresh(c.buf, page, st.version) {
			c.report.LostPages++
		}
	}
	c.report.HostStats = c.host.Stats()
	c.report.Elapsed = c.clock.Now().Sub(0)
	out := c.report
	return &out, nil
}
