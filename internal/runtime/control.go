package runtime

import (
	"strings"

	"leap/internal/control"
	"leap/internal/remote"
	"leap/internal/sim"
)

// DefaultControlInterval is the default WithControlPlane tick cadence in
// virtual time: the plane folds its observations, walks the detector state
// machine, runs the autoscaler and refreshes hot replicas once per interval.
const DefaultControlInterval = 100 * sim.Microsecond

// WithControlPlane attaches a self-healing control plane (internal/control:
// per-agent failure detector, autoscaler, hot-page replicas) to the runtime.
// The plane observes every transport call through fault-injection transport
// wrappers, receives every remotely-served fault as a hot-page frequency
// sample, and ticks off the runtime clock (see WithControlInterval): a slow
// agent is hinted away from, a failed one is excluded and its slabs
// re-replicated, probation brings it back, and sustained pressure grows the
// private cluster. Without this option the cluster is unsupervised and the
// runtime behaves bit-identically to previous releases.
func WithControlPlane(cfg control.Config) Option {
	return func(o *memOptions) { o.planeCfg = &cfg }
}

// WithControlInterval sets the control plane's tick cadence in virtual time
// (default DefaultControlInterval). The cadence is checked on the fault
// path and on Flush; open-loop drivers whose clock the runtime does not
// advance can call TickControl instead. Non-positive values keep the
// default.
func WithControlInterval(d sim.Duration) Option {
	return func(o *memOptions) { o.planeEvery = d }
}

// ControlStats is the Stats.Control block: the control plane's view of the
// cluster plus the actions it has taken since Open. The zero value (Enabled
// false) means no plane is attached.
type ControlStats struct {
	// Enabled reports whether a control plane is attached.
	Enabled bool
	// Ticks counts control ticks run (cadence-driven and TickControl).
	Ticks int64
	// Live is the number of serving agents (healthy or suspect).
	Live int
	// Phases renders every agent's detector phase in agent order, slash
	// separated ("healthy/suspect/failed"). A string keeps Stats comparable
	// with ==, which replay-determinism tests rely on.
	Phases string
	// HotPages is how many pages currently carry plane-managed extra read
	// replicas.
	HotPages int
	// Suspects, Clears, Fails and Recovers count successful detector
	// transitions acted on the host.
	Suspects, Clears, Fails, Recovers int64
	// ScaleUps, ScaleDowns, HotAdds and HotDrops count successful autoscaler
	// and hot-replica actions.
	ScaleUps, ScaleDowns, HotAdds, HotDrops int64
}

// attachPlane builds the control plane over the runtime's host and chains
// its observation feed onto the host's fault-injection transports. Called
// from Open, after the host exists.
func (m *Memory) attachPlane(cfg control.Config, every sim.Duration) {
	if every <= 0 {
		every = DefaultControlInterval
	}
	m.planeEvery = every
	hooks := control.Hooks{
		Probe:    m.probeAgent,
		OnAction: m.noteAction,
	}
	if m.ownHost {
		hooks.Provision = m.provisionAgent
	}
	m.plane = control.New(cfg, m.host, hooks)
	// Chain the plane's feed onto every fault-injection transport, keeping
	// any observer a harness installed before Open (its accounting hook runs
	// first). Harnesses that install observers after Open must feed
	// Plane().ObserveCall themselves.
	for _, tr := range m.host.Transports() {
		if ft, ok := tr.(*remote.FaultTransport); ok {
			ft.SetObserver(m.chainObserver(ft.Observer()))
		}
	}
}

// chainObserver wraps prev (possibly nil) with the plane's ObserveCall feed.
// The detector's latency signal is the injected slow-agent lag (Extra) and
// its error signal the injection decision; liveness probes (OpPing) are the
// plane's own traffic and are not fed back.
func (m *Memory) chainObserver(prev func(remote.CallObservation)) func(remote.CallObservation) {
	return func(o remote.CallObservation) {
		if prev != nil {
			prev(o)
		}
		if o.Op == remote.OpPing {
			return
		}
		m.plane.ObserveCall(o.Agent, o.Extra, o.Injected)
	}
}

// probeAgent is the plane's recovery probe: a liveness ping straight to the
// agent's transport. Called from inside Tick with the plane's lock held —
// it must not call back into the plane (and does not).
func (m *Memory) probeAgent(idx int) bool {
	trs := m.host.Transports()
	if idx < 0 || idx >= len(trs) {
		return false
	}
	resp, err := trs[idx].Call(&remote.Request{Op: remote.OpPing})
	return err == nil && resp.Status == remote.StatusOK
}

// provisionAgent supplies a brand-new in-process agent when the autoscaler
// wants capacity beyond the known pool — private-cluster runtimes only (a
// host supplied via WithRemoteHost grows through its owner). Called under
// the plane's lock; must not call back into the plane.
func (m *Memory) provisionAgent() (remote.Transport, bool) {
	ft := remote.NewFaultTransport(m.host.Agents(),
		remote.NewInProc(remote.NewAgent(m.slabPages, 0)), nil)
	ft.SetObserver(m.chainObserver(nil))
	return ft, true
}

// noteAction accumulates the per-kind action counters for Stats.Control.
// Only actions the host executed cleanly are counted.
func (m *Memory) noteAction(a control.Action) {
	if a.Err != nil || int(a.Kind) >= len(m.planeActs) {
		return
	}
	m.planeActs[a.Kind].Add(1)
}

// planeDue reports whether the control tick cadence has elapsed, advancing
// the next-tick deadline when it has. Lock-free: the deadline is an atomic
// and a CAS elects exactly one goroutine per due tick — a raced shard
// simply sees the advanced deadline and skips. The tick itself must run
// with no shard lock held (see tickPlane).
func (m *Memory) planeDue() (sim.Time, bool) {
	if m.plane == nil {
		return 0, false
	}
	now := m.clock.Now()
	next := m.planeNext.Load()
	if int64(now) < next {
		return 0, false
	}
	if !m.planeNext.CompareAndSwap(next, int64(now.Add(m.planeEvery))) {
		return 0, false
	}
	return now, true
}

// tickPlane runs one control tick at virtual time now. Callers must NOT
// hold any shard lock: the tick's actions mutate the host (repair, drain,
// scale, hot-replica refresh), and the lock order is shard.mu → plane.mu →
// host.mu — the tick path enters at plane.mu.
func (m *Memory) tickPlane(now sim.Time) []control.Action {
	acts := m.plane.Tick(now)
	m.planeTicks.Add(1)
	return acts
}

// TickControl runs one control-plane tick immediately at the runtime's
// current virtual time and resets the cadence, returning the actions taken.
// Open-loop drivers — harnesses that advance a shared clock themselves, or
// tests that need a tick at an exact instant — call this instead of waiting
// for the fault-path cadence. It returns nil without WithControlPlane.
func (m *Memory) TickControl() []control.Action {
	if m.plane == nil {
		return nil
	}
	now := m.clock.Now()
	m.planeNext.Store(int64(now.Add(m.planeEvery)))
	return m.tickPlane(now)
}

// Plane exposes the attached control plane (nil without WithControlPlane) —
// for harnesses that feed their own ObserveCall stream or inspect agent
// phases directly.
func (m *Memory) Plane() *control.Plane { return m.plane }

// controlStats assembles the Stats.Control block. Callers must not hold
// any shard lock (the plane takes its own locks).
func (m *Memory) controlStats() ControlStats {
	if m.plane == nil {
		return ControlStats{}
	}
	var phases strings.Builder
	for i, p := range m.plane.Phases() {
		if i > 0 {
			phases.WriteByte('/')
		}
		phases.WriteString(p.String())
	}
	return ControlStats{
		Enabled:    true,
		Ticks:      m.planeTicks.Load(),
		Live:       m.plane.LiveAgents(),
		Phases:     phases.String(),
		HotPages:   len(m.plane.HotPages()),
		Suspects:   m.planeActs[control.ActSuspect].Load(),
		Clears:     m.planeActs[control.ActClear].Load(),
		Fails:      m.planeActs[control.ActFail].Load(),
		Recovers:   m.planeActs[control.ActRecover].Load(),
		ScaleUps:   m.planeActs[control.ActScaleUp].Load(),
		ScaleDowns: m.planeActs[control.ActScaleDown].Load(),
		HotAdds:    m.planeActs[control.ActHotAdd].Load(),
		HotDrops:   m.planeActs[control.ActHotDrop].Load(),
	}
}
