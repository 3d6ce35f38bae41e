package chaos

import (
	"fmt"

	"leap/internal/remote"
	"leap/internal/sim"
)

// Applier plays schedule events on a host and the fault transports in front
// of its agents: the one place a crash, a partition, a restart or a scale
// event is done, for the chaos harness and for every test that runs a
// schedule against the runtime. Not safe for concurrent use.
type Applier struct {
	Host *remote.Host
	// Faults fronts every agent, indexed as the host indexes them.
	Faults []*remote.FaultTransport
	// Agents are the agents behind Faults; a nil entry is an agent a restart
	// cannot wipe (one in another process).
	Agents []*remote.Agent
	// Replicas is the host's replication factor, under which no drain may
	// shrink the live pool.
	Replicas int
	// Provision builds the agent a ScaleUp adds as agent idx, the fault
	// transport in front of it, and the transport the host is handed for it
	// (the fault transport itself, or a link over it).
	Provision func(idx int) (*remote.Agent, *remote.FaultTransport, remote.Transport)
	// Timed runs a host call that moves pages (a scale event's Rebalance, a
	// Repair); nil runs it as it is.
	Timed func(func() error) error
	// Now is the clock a SlowRamp ramps on.
	Now func() sim.Time

	drained map[int]bool
	ramps   []rampState
}

// rampDuration is the virtual time a SlowRamp takes to reach its peak
// latency; shorter windows simply stop partway up.
const rampDuration = 1 * sim.Millisecond

// rampState is one in-progress SlowRamp.
type rampState struct {
	agent int
	peak  sim.Duration
	start sim.Time
}

func (a *Applier) timed(f func() error) error {
	if a.Timed == nil {
		return f()
	}
	return a.Timed(f)
}

// Apply executes one schedule event.
func (a *Applier) Apply(e Event) error {
	if e.Kind != Repair && e.Kind != ScaleUp && (e.Agent < 0 || e.Agent >= len(a.Faults)) {
		return fmt.Errorf("chaos: event %q targets agent %d of %d", e, e.Agent, len(a.Faults))
	}
	// Fault dimensions compose per-field, so overlapping windows on one
	// agent (e.g. a flaky phase inside a slow phase) end independently.
	// Crash and Restart are the exceptions: a crashed process takes its
	// slowness/flakiness down with it, and a restarted one comes back clean.
	update := func(f func(*remote.FaultMode)) {
		m := a.Faults[e.Agent].Mode()
		f(&m)
		a.Faults[e.Agent].SetMode(m)
	}
	switch e.Kind {
	case Crash:
		a.Faults[e.Agent].SetMode(remote.FaultMode{Crashed: true})
		return a.Host.MarkFailed(e.Agent)
	case Restart:
		return a.restart(e.Agent)
	case Partition:
		update(func(m *remote.FaultMode) { m.Partitioned = true })
	case Heal:
		update(func(m *remote.FaultMode) { m.Partitioned = false })
	case SlowStart:
		update(func(m *remote.FaultMode) { m.ExtraLatency = e.Extra })
	case SlowEnd:
		a.dropRamp(e.Agent)
		update(func(m *remote.FaultMode) { m.ExtraLatency = 0 })
	case SlowRamp:
		a.dropRamp(e.Agent)
		a.ramps = append(a.ramps, rampState{agent: e.Agent, peak: e.Extra, start: a.Now()})
	case FlakyStart:
		update(func(m *remote.FaultMode) { m.WriteFailProb = e.Prob })
	case FlakyEnd:
		update(func(m *remote.FaultMode) { m.WriteFailProb = 0 })
	case Repair:
		return a.timed(func() error {
			_, err := a.Host.RepairSlabs()
			return err
		})
	case ScaleUp:
		return a.scaleUp()
	case ScaleDown:
		return a.scaleDown(e.Agent)
	}
	return nil
}

// Healthy reports whether every agent is up, reachable and takes every write:
// a repair then must succeed and leave nothing under-replicated.
func (a *Applier) Healthy() bool {
	for _, ft := range a.Faults {
		if m := ft.Mode(); m.Crashed || m.Partitioned || m.WriteFailProb > 0 {
			return false
		}
	}
	return true
}

// restart brings a crashed agent back empty and rejoins it.
func (a *Applier) restart(idx int) error {
	if a.Agents[idx] != nil {
		a.Agents[idx].Reset()
	}
	if _, err := a.Host.PurgeAgent(idx); err != nil {
		return err
	}
	if err := a.Host.MarkRecovered(idx); err != nil {
		return err
	}
	a.Faults[idx].SetMode(remote.FaultMode{})
	return nil
}

// HealAll ends every fault: a crashed agent restarts, every other comes back
// with no fault left on it.
func (a *Applier) HealAll() error {
	for i, ft := range a.Faults {
		if ft.Mode().Crashed {
			if err := a.restart(i); err != nil {
				return err
			}
		} else {
			ft.SetMode(remote.FaultMode{})
		}
	}
	a.ramps = nil
	return nil
}

// scaleUp provisions an agent at the next free index, adds it to the host's
// placement pool and rebalances its rendezvous share onto it.
func (a *Applier) scaleUp() error {
	idx := len(a.Faults)
	ag, ft, tr := a.Provision(idx)
	a.Agents = append(a.Agents, ag)
	a.Faults = append(a.Faults, ft)
	if got := a.Host.AddAgent(tr); got != idx {
		return fmt.Errorf("chaos: scale-up expected index %d, host assigned %d", idx, got)
	}
	return a.timed(func() error {
		_, err := a.Host.Rebalance()
		return err
	})
}

// scaleDown gracefully drains agent idx: Retire it out of the rendezvous
// ranking, Rebalance its slabs onto the survivors (the retiree stays a live
// copy source throughout, so no fresh copy is ever lost), then PurgeAgent.
// A drain that would leave fewer live agents than the replication factor is
// a schedule error.
func (a *Applier) scaleDown(idx int) error {
	if a.drained[idx] {
		return fmt.Errorf("chaos: scaledown %d: agent already drained", idx)
	}
	live := 0
	for i, ft := range a.Faults {
		if i != idx && !a.drained[i] && !ft.Mode().Crashed {
			live++
		}
	}
	if live < a.Replicas {
		return fmt.Errorf("chaos: scaledown %d would leave %d live agents for %d replicas",
			idx, live, a.Replicas)
	}
	if err := a.Host.Retire(idx); err != nil {
		return err
	}
	err := a.timed(func() error {
		_, rerr := a.Host.Rebalance()
		return rerr
	})
	if err != nil {
		// Roll the drain back: the agent still holds everything it held.
		_ = a.Host.Reinstate(idx)
		return fmt.Errorf("chaos: scaledown %d: rebalance: %w", idx, err)
	}
	if _, err := a.Host.PurgeAgent(idx); err != nil {
		return err
	}
	if a.drained == nil {
		a.drained = make(map[int]bool)
	}
	a.drained[idx] = true
	return nil
}

// dropRamp removes agent idx's active ramp, if any.
func (a *Applier) dropRamp(idx int) {
	for i, r := range a.ramps {
		if r.agent == idx {
			a.ramps = append(a.ramps[:i], a.ramps[i+1:]...)
			return
		}
	}
}

// stepRamps advances every active SlowRamp to the latency its elapsed time
// calls for: peak × min(1, elapsed/rampDuration). With no ramps active it is
// a no-op.
func (a *Applier) stepRamps() {
	if len(a.ramps) == 0 {
		return
	}
	now := a.Now()
	for _, r := range a.ramps {
		frac := float64(now.Sub(r.start)) / float64(rampDuration)
		if frac > 1 {
			frac = 1
		}
		target := sim.Duration(float64(r.peak) * frac)
		m := a.Faults[r.agent].Mode()
		if m.ExtraLatency != target {
			m.ExtraLatency = target
			a.Faults[r.agent].SetMode(m)
		}
	}
}
