package experiments

import (
	"fmt"
	"math"
	"strings"

	"leap/internal/control"
	"leap/internal/core"
	"leap/internal/metrics"
	"leap/internal/rdma"
	"leap/internal/remote"
	"leap/internal/sim"
)

// The `-fig elastic` experiment drives the remote-memory engine open-loop
// through a diurnal traffic ramp — arrival gaps shrink sinusoidally to a
// peak and widen again — with a network partition landing on one agent
// during the ramp-up. The same workload runs twice: a static 3-agent
// cluster, and the same cluster under the internal/control plane (failure
// detector + autoscaler + hot-page replicas, provisioning up to 8 agents).
// The static run rides out the fault paying the failure-detection timeout
// on every read whose primary is partitioned and saturates its three fabric
// queues at peak; the control loop fails the partitioned agent over after a
// few ticks of error pressure, re-replicates, grows the pool through the
// peak and drains it again as traffic falls. Everything is deterministic:
// σ=0 latency distributions, seeded RNG forks, virtual time — two runs of
// the same (Scale, seed) are byte-identical.

// Elastic model constants: per-call host submission cost on the serial CPU
// cursor, the failure-detection timeout charged per unreachable call, the
// per-op wire occupancy that makes fabric queues the scaling bottleneck,
// and the cluster size bounds.
const (
	elasticSubmitCost = 300 * sim.Nanosecond
	elasticDetectCost = 30 * sim.Microsecond
	elasticService    = 5 * sim.Microsecond
	elasticMinAgents  = 3
	elasticMaxAgents  = 8
	elasticGapMax     = 12 * sim.Microsecond
	elasticGapMin     = 1700 * sim.Nanosecond
)

// elasticRow is one run of the ramp: overall and windowed tail latency,
// fault exposure, and the control actions taken.
type elasticRow struct {
	label    string
	ops      int64
	p50, p99 sim.Duration
	peakP99  sim.Duration // ops in the middle tenth of the ramp (peak load)
	faultP99 sim.Duration // ops inside the partition window
	// exposure is the virtual time the run was exposed to the fault: for
	// the control run, partition start → the detector's fail+repair action;
	// for the static run, the whole partition window.
	exposure sim.Duration
	live     int // live agents when the run ends
	scaleUps, scaleDowns,
	fails, recovers, hotAdds int
}

// elasticLoop charges transport calls to the open-loop accounting model:
// submission cost on a serial host-CPU cursor, wire time on the per-agent
// fabric queues, the detection timeout for unreachable agents. When a
// control plane is attached every call is also reported as an observation.
//
// Background traffic — the populate pass, and repair/rebalance copies run
// by control actions — rides a reserved lane (its own fabric instance and
// cursor, the paper's throttled-background-I/O discipline) so maintenance
// never queues behind demand fetches; it is also invisible to the detector,
// which watches demand-path submissions only.
type elasticLoop struct {
	fabric *rdma.Fabric
	plane  *control.Plane
	cursor sim.Time // serial host CPU: per-call submission cost
	// ready is the current op's issue time: detection timeouts push it out,
	// so a failover retry (inherently sequential — the timeout must elapse
	// first) submits late, while the op's parallel fan-out calls and every
	// other op are unaffected. The timeout is waiting, not CPU burn.
	ready    sim.Time
	done     sim.Time // completion of the current op's last call
	buf      []sim.Time
	bg       bool // charging the background lane
	bgFabric *rdma.Fabric
	bgCursor sim.Time
}

func (l *elasticLoop) observe(o remote.CallObservation) {
	if l.bg {
		if o.Injected {
			l.bgCursor = l.bgCursor.Add(elasticDetectCost)
			return
		}
		l.bgCursor = l.bgCursor.Add(elasticSubmitCost)
		l.buf = l.bgFabric.SubmitBatch(o.Agent, o.Pages, l.bgCursor, l.buf)
		return
	}
	if o.Injected {
		l.ready = l.ready.Add(elasticDetectCost)
		if l.plane != nil {
			l.plane.ObserveCall(o.Agent, elasticDetectCost, true)
		}
		if l.ready > l.done {
			l.done = l.ready
		}
		return
	}
	l.cursor = l.cursor.Add(elasticSubmitCost)
	submit := l.cursor
	if l.ready > submit {
		submit = l.ready
	}
	l.buf = l.fabric.SubmitBatch(o.Agent, o.Pages, submit, l.buf)
	last := l.buf[len(l.buf)-1]
	if l.plane != nil {
		l.plane.ObserveCall(o.Agent, last.Sub(submit), false)
	}
	if o.Extra > 0 {
		last = last.Add(o.Extra)
	}
	if last > l.done {
		l.done = last
	}
}

// runElastic executes the ramp once. withControl attaches the control plane
// (detector thresholds tuned to the model's error and queue-delay scales);
// without it the cluster is frozen at its initial size and the fault is
// never routed around.
func runElastic(withControl bool, ops int, seed uint64) elasticRow {
	base := sim.NewRNG(seed ^ 0xe1a5f1)
	wire := rdma.Config{
		Queues:      elasticMaxAgents,
		OpLatency:   sim.Normal{Mu: 4300, Sigma: 0, Floor: 4300},
		ServiceTime: elasticService,
	}
	loop := &elasticLoop{
		fabric:   rdma.New(wire, base.Fork(1)),
		bgFabric: rdma.New(wire, base.Fork(2)),
	}
	fts, host := cluster(elasticMinAgents, loop.observe, remote.HostConfig{
		SlabPages: 16,
		Replicas:  2,
		Seed:      seed,
	})

	var plane *control.Plane
	var actions []control.Action
	if withControl {
		hooks := control.Hooks{
			Provision: func() (remote.Transport, bool) {
				if len(fts) >= elasticMaxAgents {
					return nil, false
				}
				ft := faultAgent(len(fts), 16, loop.observe)
				fts = append(fts, ft)
				return ft, true
			},
			Probe: func(agent int) bool {
				if agent < 0 || agent >= len(fts) {
					return false
				}
				m := fts[agent].Mode()
				return !m.Crashed && !m.Partitioned
			},
			OnAction: func(a control.Action) { actions = append(actions, a) },
		}
		plane = control.New(control.Config{
			Detector: control.DetectorConfig{
				SuspectErr: 0.2,
				FailErr:    0.5,
			},
			Scaler: control.ScalerConfig{
				Min:      elasticMinAgents,
				Max:      elasticMaxAgents,
				HighLat:  12 * sim.Microsecond,
				LowLat:   5 * sim.Microsecond,
				UpTicks:  2,
				Cooldown: 3,
			},
			HotK:     8,
			HotEvery: 4,
		}, host, hooks)
		loop.plane = plane
	}

	const pageCount = 1024
	rng := base.Fork(3)
	page := make([]byte, remote.PageSize)
	buf := make([]byte, remote.PageSize)

	// Unmeasured population pass on the background lane: placements, slab
	// maps, initial contents.
	loop.bg = true
	for p := 0; p < pageCount; p++ {
		page[0] = byte(p)
		if err := host.WritePage(core.PageID(p), page); err != nil {
			panic(err)
		}
	}
	loop.bg = false

	// The diurnal ramp: gap(i) shrinks from GapMax to GapMin at mid-run and
	// recovers. The partition lands on agent 1 during the ramp-up.
	faultStart, faultEnd := int(float64(ops)*0.15), int(float64(ops)*0.30)
	peakLo, peakHi := int(float64(ops)*0.45), int(float64(ops)*0.55)
	tickOps := ops / 120
	if tickOps < 1 {
		tickOps = 1
	}
	// 20% of accesses hit a 16-page hot set, strided one page per slab so
	// the skew exercises hot-page replication without collapsing onto a
	// single fabric queue.
	const hotHead, hotStride = 16, 64

	var all, peak, fault metrics.Histogram
	var faultAt sim.Time
	arrival := sim.Time(0)
	for i := 0; i < ops; i++ {
		frac := float64(i) / float64(ops)
		gap := elasticGapMax - sim.Duration(float64(elasticGapMax-elasticGapMin)*math.Sin(math.Pi*frac))
		arrival = arrival.Add(gap)
		switch i {
		case faultStart:
			fts[1].SetMode(remote.FaultMode{Partitioned: true})
			faultAt = arrival
		case faultEnd:
			fts[1].SetMode(remote.FaultMode{})
		}

		if loop.cursor < arrival {
			loop.cursor = arrival
		}
		loop.ready = loop.cursor
		loop.done = loop.cursor
		var target core.PageID
		if rng.Float64() < 0.2 {
			target = core.PageID(rng.Int63n(hotHead) * hotStride)
		} else {
			target = core.PageID(rng.Int63n(pageCount))
		}
		if rng.Float64() < 0.2 {
			page[0] = byte(target)
			_ = host.WritePage(target, page)
		} else {
			if plane != nil {
				plane.ObserveRead(target)
			}
			_ = host.ReadPage(target, buf)
		}
		lat := loop.done.Sub(arrival)
		all.Observe(lat)
		if i >= peakLo && i < peakHi {
			peak.Observe(lat)
		}
		if i >= faultStart && i < faultEnd {
			fault.Observe(lat)
		}
		if plane != nil && (i+1)%tickOps == 0 {
			// Control actions (repair, rebalance, hot copies) run on the
			// background lane: maintenance traffic never queues ahead of
			// demand fetches.
			loop.bg = true
			plane.Tick(arrival)
			loop.bg = false
		}
	}

	row := elasticRow{
		ops:      int64(ops),
		p50:      all.Percentile(50),
		p99:      all.Percentile(99),
		peakP99:  peak.Percentile(99),
		faultP99: fault.Percentile(99),
		live:     elasticMinAgents,
	}
	if !withControl {
		row.label = "static"
		// Exposure is the whole window: nothing ever routes around the fault.
		for i := faultStart; i < faultEnd; i++ {
			frac := float64(i) / float64(ops)
			row.exposure += elasticGapMax - sim.Duration(float64(elasticGapMax-elasticGapMin)*math.Sin(math.Pi*frac))
		}
		return row
	}
	row.label = "self-healing"
	row.live = plane.LiveAgents()
	for _, a := range actions {
		if a.Err != nil {
			continue
		}
		switch a.Kind {
		case control.ActScaleUp:
			row.scaleUps++
		case control.ActScaleDown:
			row.scaleDowns++
		case control.ActFail:
			row.fails++
			if row.exposure == 0 {
				row.exposure = a.At.Sub(faultAt)
			}
		case control.ActRecover:
			row.recovers++
		case control.ActHotAdd:
			row.hotAdds++
		}
	}
	return row
}

// elastic runs the ramp on the static cluster, then under the control loop.
func elastic(s Scale, seed uint64) (static, ctl elasticRow) {
	ops := int(s.Measured / 5)
	return runElastic(false, ops, seed), runElastic(true, ops, seed)
}

func renderElastic(s Scale, seed uint64) string {
	st, ctl := elastic(s, seed)
	var b strings.Builder
	fmt.Fprintf(&b, "Figure E — elastic: diurnal ramp with a mid-ramp partition, static vs self-healing cluster (%d→%d agents)\n",
		elasticMinAgents, elasticMaxAgents)
	var rows [][]any
	for _, r := range []elasticRow{st, ctl} {
		rows = append(rows, []any{r.label, r.ops, r.p50, r.p99, r.peakP99, r.faultP99, r.exposure, r.live})
	}
	table(&b, "  ", []col{{"cluster", -13, ""}, {"ops", 8, ""}, {"p50", 10, ""}, {"p99", 10, ""}, {"peak-p99", 10, ""},
		{"fault-p99", 10, ""}, {"exposure", 12, ""}, {"live", 5, ""}}, rows)
	fmt.Fprintf(&b, "  control actions: scale-up=%d scale-down=%d fail=%d recover=%d hot-add=%d\n",
		ctl.scaleUps, ctl.scaleDowns, ctl.fails, ctl.recovers, ctl.hotAdds)
	if st.p99 > 0 {
		fmt.Fprintf(&b, "  p99 %.2f× lower with the control loop; fault exposure %v → %v (detect+repair vs ride it out)\n",
			float64(st.p99)/float64(ctl.p99), st.exposure, ctl.exposure)
	}
	fmt.Fprintf(&b, "  (open loop: arrivals follow the ramp regardless of completions; the static run pays the %v detection timeout per partitioned-primary read and saturates %d fabric queues at peak)\n",
		elasticDetectCost, elasticMinAgents)
	return b.String()
}
