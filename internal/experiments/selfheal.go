package experiments

import (
	"fmt"
	"strings"

	"leap/internal/control"
	"leap/internal/core"
	"leap/internal/metrics"
	"leap/internal/remote"
	"leap/internal/runtime"
	"leap/internal/sim"
)

// The `-fig selfheal` experiment is the runtime-integration counterpart of
// `-fig elastic`: instead of an open-loop model of a host, it drives the
// real leap.Memory fault path — predictor, prefetch windows, async ticket
// engine, eviction — over a four-agent in-process cluster while agents
// misbehave mid-run. Four logical clients with distinct access patterns
// (sequential, strided, hotspot, uniform) share the Memory through Client
// handles; one agent is partitioned during the run and another turns slow.
// The identical workload runs twice: unsupervised, and with
// runtime.WithControlPlane attached. The unsupervised run pays the
// failure-detection timeout on every fetch whose primary is partitioned and
// the slow agent's lag on every fetch it serves; the supervised run's
// detector fails the partitioned agent (re-replicating its slabs), routes
// reads away from the slow one, and probation brings the healed agent back.
// Deterministic throughout: virtual time, seeded placement, a fixed fault
// timeline — two runs of the same (Scale, seed) are byte-identical.

// Self-healing model constants: the failure-detection timeout a fetch pays
// per call that dies on an unreachable agent, the injected lag of the slow
// agent, and the cluster shape.
const (
	selfhealAgents = 4
	selfhealDetect = 30 * sim.Microsecond
	selfhealSlow   = 40 * sim.Microsecond
	selfhealPages  = 4096 // 4 tenants × 1024-page regions
	selfhealCache  = 32
)

// selfhealRow is one run of the shared-tenant workload.
type selfhealRow struct {
	label    string
	ops      int64
	p50, p99 sim.Duration
	faultP99 sim.Duration // ops inside the partition window
	// Stats is the Memory's at the end of the run: hit ratio, and the
	// control plane's view and actions (zero-valued unsupervised).
	runtime.Stats
}

// selfhealLoop is the harness's per-call accounting: virtual-time penalties
// the transports expose but the runtime's latency model does not charge
// (the detection timeout on injected failures, the slow agent's lag). The
// runtime chains its control-plane feed onto this observer, so the penalty
// stream and the detector see the same calls.
type selfhealLoop struct {
	pend sim.Duration
}

func (l *selfhealLoop) observe(o remote.CallObservation) {
	if o.Op == remote.OpPing { // control-plane probes are free
		return
	}
	if o.Injected {
		l.pend += selfhealDetect
		return
	}
	l.pend += o.Extra
}

// selfhealPattern generates the i-th page offset of tenant t inside its
// 1024-page region. Tenants 0/1 scan (unit and 8-page stride), tenant 2 is
// an 80/20 hotspot, tenant 3 uniform; the LCG streams are seeded per
// tenant, so the mix replays exactly.
type selfhealPattern struct {
	tenant int
	pos    int64
	rnd    uint64
}

func (p *selfhealPattern) next() int64 {
	const region = int64(selfhealPages / selfhealAgents)
	switch p.tenant {
	case 0: // sequential
		off := p.pos % region
		p.pos++
		return off
	case 1: // stride-8
		off := (p.pos * 8) % region
		p.pos++
		return off
	case 2: // 80/20 hotspot over an 8-page head, strided one page per slab
		// so the head spreads across agents and spatial prefetch cannot
		// cover it — the head pages keep faulting, which is exactly the
		// signal hot-page replication feeds on.
		p.rnd = p.rnd*6364136223846793005 + 1442695040888963407
		r := p.rnd >> 11
		if r%10 < 8 {
			return int64(r%8) * 64
		}
		return int64(r % uint64(region))
	default: // uniform
		p.rnd = p.rnd*6364136223846793005 + 1442695040888963407
		return int64((p.rnd >> 11) % uint64(region))
	}
}

// runSelfheal executes the workload once over a fresh cluster.
func runSelfheal(withControl bool, ops int, seed uint64) selfhealRow {
	loop := &selfhealLoop{}
	// The observer is installed before Open: the runtime chains onto it.
	fts, host := cluster(selfhealAgents, loop.observe, remote.HostConfig{
		SlabPages: 64,
		Replicas:  2,
		Seed:      seed,
	})

	opts := []runtime.Option{
		runtime.WithRemoteHost(host),
		runtime.WithSeed(seed),
		runtime.WithCacheCapacity(selfhealCache),
		runtime.WithQueueDepth(8),
	}
	if withControl {
		opts = append(opts,
			// FailErr equals SuspectErr deliberately: suspecting an agent
			// routes reads away from it, so a partitioned agent's error EWMA
			// freezes (no traffic, no update) — the frozen value that made it
			// suspect must also clear the fail bar, or it idles in suspect
			// until the partition heals. The slow agent suspects on latency
			// with a zero error EWMA, so it never escalates (FailLat 0).
			runtime.WithControlPlane(control.Config{
				Detector: control.DetectorConfig{
					SuspectLat: 20 * sim.Microsecond,
					SuspectErr: 0.2,
					FailErr:    0.2,
				},
				HotK:     8,
				HotEvery: 4,
			}),
			// The harness ticks explicitly below so maintenance traffic
			// (repairs, hot copies) lands between measured ops, not inside
			// one unlucky op's latency.
			runtime.WithControlInterval(sim.Duration(1)<<40),
		)
	}
	mem, err := runtime.Open(opts...)
	if err != nil {
		panic(err)
	}
	defer mem.Close()

	// Populate every tenant region through the runtime (recording off, like
	// a warmup): real bytes land on the cluster, and the written set is what
	// feeds the control plane's hot-page frequency samples later.
	mem.SetRecording(false)
	buf := make([]byte, remote.PageSize)
	for p := int64(0); p < selfhealPages; p++ {
		buf[0] = byte(p)
		if _, err := mem.WriteAt(buf, p*remote.PageSize); err != nil {
			panic(err)
		}
	}
	if err := mem.Flush(); err != nil {
		panic(err)
	}
	mem.SetRecording(true)

	clients := make([]*runtime.Client, selfhealAgents)
	pats := make([]*selfhealPattern, selfhealAgents)
	for t := range clients {
		clients[t] = mem.Client(t)
		pats[t] = &selfhealPattern{tenant: t, rnd: seed ^ uint64(t)*0x9e3779b97f4a7c15}
	}

	// Fault timeline, in op indices: agent 1 is partitioned for a third of
	// the run, agent 2 turns slow shortly after it heals.
	faultStart, faultHeal := int(float64(ops)*0.20), int(float64(ops)*0.55)
	slowStart, slowEnd := int(float64(ops)*0.60), int(float64(ops)*0.85)
	tickOps := ops / 60
	if tickOps < 1 {
		tickOps = 1
	}

	var all, fault metrics.Histogram
	const region = int64(selfhealPages / selfhealAgents)
	for i := 0; i < ops; i++ {
		switch i {
		case faultStart:
			fts[1].SetMode(remote.FaultMode{Partitioned: true})
		case faultHeal:
			fts[1].SetMode(remote.FaultMode{})
		case slowStart:
			fts[2].SetMode(remote.FaultMode{ExtraLatency: selfhealSlow})
		case slowEnd:
			fts[2].SetMode(remote.FaultMode{})
		}

		t := i % selfhealAgents
		pg := core.PageID(int64(t)*region + pats[t].next())
		loop.pend = 0
		before := mem.Now()
		if _, err := clients[t].Get(pg); err != nil {
			panic(err)
		}
		lat := mem.Now().Sub(before) + loop.pend
		all.Observe(lat)
		if i >= faultStart && i < faultHeal {
			fault.Observe(lat)
		}
		if withControl && (i+1)%tickOps == 0 {
			mem.TickControl()
		}
	}

	row := selfhealRow{
		label:    "unsupervised",
		ops:      int64(ops),
		p50:      all.Percentile(50),
		p99:      all.Percentile(99),
		faultP99: fault.Percentile(99),
		Stats:    mem.Stats(),
	}
	if withControl {
		row.label = "control-plane"
	}
	return row
}

// selfheal runs the workload unsupervised, then with the control plane.
func selfheal(s Scale, seed uint64) (base, ctl selfhealRow) {
	ops := int(perRun(s, 4, 4000))
	return runSelfheal(false, ops, seed), runSelfheal(true, ops, seed)
}

func renderSelfheal(s Scale, seed uint64) string {
	base, ctl := selfheal(s, seed)
	var b strings.Builder
	fmt.Fprintf(&b, "Figure S — selfheal: leap.Memory under mid-run agent faults, unsupervised vs WithControlPlane (%d agents, %d tenants)\n",
		selfhealAgents, selfhealAgents)
	var rows [][]any
	for _, r := range []selfhealRow{base, ctl} {
		live := selfhealAgents
		if r.Control.Enabled {
			live = r.Control.Live
		}
		rows = append(rows, []any{r.label, r.ops, r.p50, r.p99, r.faultP99, 100 * r.HitRatio, live})
	}
	table(&b, "  ", []col{{"runtime", -14, ""}, {"ops", 8, ""}, {"p50", 10, ""}, {"p99", 10, ""},
		{"fault-p99", 10, ""}, {"hit", 7, percent}, {"live", 5, ""}}, rows)
	c := ctl.Control
	fmt.Fprintf(&b, "  control actions: suspect=%d clear=%d fail=%d recover=%d hot-add=%d\n",
		c.Suspects, c.Clears, c.Fails, c.Recovers, c.HotAdds)
	if ctl.p99 > 0 {
		fmt.Fprintf(&b, "  p99 %.2f× lower with the control plane; fault-window p99 %v → %v (fail+repair vs paying %v per dead-primary call)\n",
			float64(base.p99)/float64(ctl.p99), base.faultP99, ctl.faultP99, selfhealDetect)
	}
	b.WriteString("  (real fault path end to end: predictor, prefetch windows, ticket engine and eviction all run; the control plane is the only variable)\n")
	return b.String()
}
